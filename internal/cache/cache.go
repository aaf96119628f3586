// Package cache implements a generic set-associative, write-back cache with
// LRU replacement. It models both the cache hierarchy levels (L1/L2/LLC) and
// the three security-metadata caches of the paper (counter cache, MAC cache,
// Merkle-tree cache; Table I).
//
// The cache tracks presence and dirtiness only; functional content for dirty
// lines is held by the owning component (the secure memory controller keeps
// the logical values of dirty metadata lines). This split mirrors hardware:
// the array stores bits, the controller decides what they mean. So that
// the owner finds that content without a table of its own, every line
// carries an opaque int32 owner slot: the cache never interprets it, zeroes
// it when a line is inserted and in InvalidateAll, and hands a victim's
// slot back in its Eviction. The way-returning variants (LookupWay, WayOf,
// InsertWay, Touch) give the owner the line index that Owner and SetOwner
// take.
package cache

import "fmt"

// line is one cache way. owner sits in the padding after the two flags, so
// a line stays 24 bytes.
type line struct {
	tag   uint64
	valid bool
	dirty bool
	owner int32  // opaque slot of the owning component; 0 = none
	lru   uint64 // higher = more recently used
}

// Stats counts cache events.
type Stats struct {
	Hits           int64
	Misses         int64
	Evictions      int64
	DirtyEvictions int64
}

// Cache is a set-associative write-back cache. Not safe for concurrent use;
// the simulator is single-threaded by design (deterministic schedules).
type Cache struct {
	name      string
	blockSize uint64
	numSets   uint64
	ways      int
	lines     []line // numSets sets of ways lines each, set-major
	tick      uint64
	stats     Stats

	preferClean bool
}

// SetPreferCleanVictims switches the replacement policy to evict the LRU
// *clean* line when one exists, falling back to LRU overall. For the
// security-metadata caches this trades extra re-fetches of clean nodes for
// fewer dirty write-backs (each of which cascades into a tree-parent
// update under the lazy scheme).
func (c *Cache) SetPreferCleanVictims(on bool) { c.preferClean = on }

// New returns a cache of sizeBytes organised as ways-associative with the
// given block size. sizeBytes must be an exact multiple of ways*blockSize.
func New(name string, sizeBytes, ways, blockSize int) *Cache {
	if sizeBytes <= 0 || ways <= 0 || blockSize <= 0 {
		panic("cache: size, ways and block size must be positive")
	}
	if sizeBytes%(ways*blockSize) != 0 {
		panic(fmt.Sprintf("cache %s: size %d not divisible by ways*blockSize %d", name, sizeBytes, ways*blockSize))
	}
	numSets := sizeBytes / (ways * blockSize)
	return &Cache{
		name:      name,
		blockSize: uint64(blockSize),
		numSets:   uint64(numSets),
		ways:      ways,
		lines:     make([]line, numSets*ways),
	}
}

// set returns the ways of one set.
func (c *Cache) set(set uint64) []line {
	base := set * uint64(c.ways)
	return c.lines[base : base+uint64(c.ways)]
}

// Name returns the diagnostic name.
func (c *Cache) Name() string { return c.name }

// Lines returns the total line capacity.
func (c *Cache) Lines() int { return int(c.numSets) * c.ways }

// SizeBytes returns the capacity in bytes.
func (c *Cache) SizeBytes() int { return c.Lines() * int(c.blockSize) }

// Stats returns a copy of the event counters.
func (c *Cache) Stats() Stats { return c.stats }

func (c *Cache) index(addr uint64) (set uint64, tag uint64) {
	bn := addr / c.blockSize
	return bn % c.numSets, bn / c.numSets
}

func (c *Cache) addrOf(set, tag uint64) uint64 {
	return (tag*c.numSets + set) * c.blockSize
}

// Lookup probes for addr. On a hit it updates LRU state and returns true.
// On a miss it returns false and counts a miss; it does not allocate.
func (c *Cache) Lookup(addr uint64) bool { return c.LookupWay(addr) >= 0 }

// LookupWay is Lookup returning the hit line's index, or -1 on a miss.
func (c *Cache) LookupWay(addr uint64) int {
	if w := c.WayOf(addr); w >= 0 {
		c.tick++
		c.lines[w].lru = c.tick
		c.stats.Hits++
		return w
	}
	c.stats.Misses++
	return -1
}

// Contains probes for addr without touching LRU state or statistics.
func (c *Cache) Contains(addr uint64) bool { return c.WayOf(addr) >= 0 }

// WayOf returns the index of addr's line, or -1 if absent, without touching
// LRU state or statistics.
func (c *Cache) WayOf(addr uint64) int {
	set, tag := c.index(addr)
	base := int(set) * c.ways
	ways := c.lines[base : base+c.ways]
	for i := range ways {
		if l := &ways[i]; l.valid && l.tag == tag {
			return base + i
		}
	}
	return -1
}

// Owner returns the owner slot of the line at index way.
func (c *Cache) Owner(way int) int32 { return c.lines[way].owner }

// SetOwner sets the owner slot of the line at index way.
func (c *Cache) SetOwner(way int, owner int32) { c.lines[way].owner = owner }

// IsDirty reports whether addr is present and dirty (no LRU update).
func (c *Cache) IsDirty(addr uint64) bool {
	set, tag := c.index(addr)
	ways := c.set(set)
	for i := range ways {
		l := &ways[i]
		if l.valid && l.tag == tag {
			return l.dirty
		}
	}
	return false
}

// Eviction describes a line displaced by Insert.
type Eviction struct {
	Addr  uint64
	Dirty bool
	Owner int32 // the victim's owner slot
}

// Insert allocates addr (which must not be present), choosing the LRU victim
// if the set is full. It returns the eviction, if any. The dirty flag sets
// the initial dirtiness of the new line.
func (c *Cache) Insert(addr uint64, dirty bool) (ev Eviction, evicted bool) {
	_, ev, evicted = c.InsertWay(addr, dirty)
	return ev, evicted
}

// InsertWay is Insert also returning the new line's index. The new line's
// owner slot is zero.
func (c *Cache) InsertWay(addr uint64, dirty bool) (way int, ev Eviction, evicted bool) {
	set, tag := c.index(addr)
	victim := -1
	cleanVictim := -1
	var oldest uint64 = ^uint64(0)
	var oldestClean uint64 = ^uint64(0)
	ways := c.set(set)
	for i := range ways {
		l := &ways[i]
		if l.valid && l.tag == tag {
			panic(fmt.Sprintf("cache %s: Insert of already-present address %#x", c.name, addr))
		}
		if !l.valid {
			victim = i
			oldest = 0
			break
		}
		if l.lru < oldest {
			oldest = l.lru
			victim = i
		}
		if !l.dirty && l.lru < oldestClean {
			oldestClean = l.lru
			cleanVictim = i
		}
	}
	if c.preferClean && oldest != 0 && cleanVictim >= 0 {
		victim = cleanVictim
	}
	v := &ways[victim]
	if v.valid {
		ev = Eviction{Addr: c.addrOf(set, v.tag), Dirty: v.dirty, Owner: v.owner}
		evicted = true
		c.stats.Evictions++
		if v.dirty {
			c.stats.DirtyEvictions++
		}
	}
	c.tick++
	*v = line{tag: tag, valid: true, dirty: dirty, lru: c.tick}
	return int(set)*c.ways + victim, ev, evicted
}

// Touch marks addr (which must be present) as most recently used and
// optionally dirty, and returns its line's index.
func (c *Cache) Touch(addr uint64, makeDirty bool) int {
	w := c.WayOf(addr)
	if w < 0 {
		panic(fmt.Sprintf("cache %s: Touch of absent address %#x", c.name, addr))
	}
	l := &c.lines[w]
	c.tick++
	l.lru = c.tick
	if makeDirty {
		l.dirty = true
	}
	return w
}

// Clean clears the dirty bit of addr if present.
func (c *Cache) Clean(addr uint64) {
	set, tag := c.index(addr)
	ways := c.set(set)
	for i := range ways {
		l := &ways[i]
		if l.valid && l.tag == tag {
			l.dirty = false
			return
		}
	}
}

// Invalidate removes addr if present, returning whether it was dirty.
func (c *Cache) Invalidate(addr uint64) (wasDirty, wasPresent bool) {
	set, tag := c.index(addr)
	ways := c.set(set)
	for i := range ways {
		l := &ways[i]
		if l.valid && l.tag == tag {
			wasDirty = l.dirty
			l.valid = false
			l.dirty = false
			return wasDirty, true
		}
	}
	return false, false
}

// ValidLines returns the addresses of all valid lines, sets in order and
// ways in physical order (a deterministic hardware-scan order).
func (c *Cache) ValidLines() []uint64 {
	var out []uint64
	for i := range c.lines {
		if l := &c.lines[i]; l.valid {
			out = append(out, c.addrOf(uint64(i/c.ways), l.tag))
		}
	}
	return out
}

// DirtyLines returns the addresses of all valid dirty lines in scan order.
func (c *Cache) DirtyLines() []uint64 {
	var out []uint64
	for i := range c.lines {
		if l := &c.lines[i]; l.valid && l.dirty {
			out = append(out, c.addrOf(uint64(i/c.ways), l.tag))
		}
	}
	return out
}

// EachDirty calls fn with the address and owner slot of every valid dirty
// line, in scan order.
func (c *Cache) EachDirty(fn func(addr uint64, owner int32)) {
	for i := range c.lines {
		if l := &c.lines[i]; l.valid && l.dirty {
			fn(c.addrOf(uint64(i/c.ways), l.tag), l.owner)
		}
	}
}

// CountValid returns the number of valid lines.
func (c *Cache) CountValid() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].valid {
			n++
		}
	}
	return n
}

// CountDirty returns the number of valid dirty lines.
func (c *Cache) CountDirty() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].valid && c.lines[i].dirty {
			n++
		}
	}
	return n
}

// InvalidateAll clears the cache (models loss of volatile state at a crash).
func (c *Cache) InvalidateAll() { clear(c.lines) }
