package secmem

import (
	"fmt"

	"repro/internal/bmt"
	"repro/internal/cache"
	"repro/internal/cme"
	"repro/internal/mem"
	"repro/internal/sim"
)

// maxEvictionDepth bounds the cascade of eviction -> parent fetch ->
// eviction chains. Real chains are bounded by the tree height; blowing this
// limit indicates a simulator bug, so we fail loudly.
const maxEvictionDepth = 128

// zeroMAC is the parent entry of a never-written child.
var zeroMAC cme.MAC

// levelLabels caches the per-level counter keys: formatting "L%d" on every
// verification-walk fetch was a measurable share of drain allocations. Tree
// heights stay well under 32 levels for any simulated capacity.
var levelLabels = func() [32]string {
	var ls [32]string
	for i := range ls {
		ls[i] = fmt.Sprintf("L%d", i)
	}
	return ls
}()

func levelLabel(level int) string {
	if level >= 0 && level < len(levelLabels) {
		return levelLabels[level]
	}
	return fmt.Sprintf("L%d", level)
}

// entryOf extracts the 8-byte entry for a child slot from a parent node.
func entryOf(parent mem.Block, slot int) cme.MAC {
	var m cme.MAC
	copy(m[:], parent[slot*cme.MACSize:(slot+1)*cme.MACSize])
	return m
}

// setEntry stores an 8-byte entry into a parent node content.
func setEntry(parent *mem.Block, slot int, m cme.MAC) {
	copy(parent[slot*cme.MACSize:(slot+1)*cme.MACSize], m[:])
}

// ensureNode returns the current logical content of metadata node (level,
// index), fetching it from NVM — with a full verification walk to the
// nearest cached ancestor — if it is not cached. The returned time is when
// the verified content is available.
func (c *Controller) ensureNode(ready sim.Time, level int, index uint64) (mem.Block, sim.Time, error) {
	if level == c.lay.RootLevel() {
		return c.root, ready, nil
	}
	addr := c.lay.NodeAddr(level, index)
	ca := c.cacheFor(level)
	if way := ca.LookupWay(addr); way >= 0 {
		return c.wayContent(ca, way, addr), ready, nil
	}
	if i := c.inWriteBack(addr); i >= 0 {
		// Write-back buffer hit: the line is mid-eviction; its current
		// content lives in the buffer until the write-back completes.
		return c.wb[i].content, ready, nil
	}
	// Miss: fetch from NVM and verify against the parent, which is fetched
	// (and verified) recursively until a cached ancestor or the root.
	if !c.functional {
		c.levelFetches.Add(levelLabel(level), 1)
	}
	raw, t := c.nvm.Read(ready, addr, memCategoryFor(level))
	pLevel, pIndex, slot := c.lay.Parent(level, index)
	parent, t, err := c.ensureNode(t, pLevel, pIndex)
	if err != nil {
		return mem.Block{}, t, err
	}
	expected := entryOf(parent, slot)
	t = c.issueMAC(t, MACVerify)
	if expected == zeroMAC {
		// Sparse-tree default: a zero parent entry asserts the child was
		// never persisted, so its NVM content must still be zero.
		if !raw.IsZero() {
			return mem.Block{}, t, &IntegrityError{
				Kind: KindTamper, Addr: addr, Level: level, Index: index,
				Detail: "nonzero content under a zero parent entry",
			}
		}
	} else if c.eng.NodeMAC(level, index, raw) != expected {
		return mem.Block{}, t, &IntegrityError{
			Kind: KindTamper, Addr: addr, Level: level, Index: index,
			Detail: "node MAC mismatch against parent entry",
		}
	}
	// The parent fetch may have cascaded into evictions whose handling
	// fetched (or is currently writing back) this very node; in that case
	// its current logical content supersedes the copy read above.
	if way := ca.WayOf(addr); way >= 0 {
		return c.wayContent(ca, way, addr), t, nil
	}
	if i := c.inWriteBack(addr); i >= 0 {
		return c.wb[i].content, t, nil
	}
	c.insertLine(t, ca, addr, false, raw)
	return raw, t, nil
}

// ensureMACBlock returns the logical content of the data-MAC block at addr,
// fetching it on a miss. Data MAC blocks are not covered by the tree
// (Bonsai: the per-block MAC itself provides integrity and freshness once
// the counter is verified), so no verification walk is needed.
func (c *Controller) ensureMACBlock(ready sim.Time, addr uint64) (mem.Block, sim.Time) {
	if way := c.macCache.LookupWay(addr); way >= 0 {
		return c.wayContent(c.macCache, way, addr), ready
	}
	raw, t := c.nvm.Read(ready, addr, mem.CatMAC)
	c.insertLine(t, c.macCache, addr, false, raw)
	return raw, t
}

// insertLine allocates a line and handles the displaced victim: dirty
// victims are written back to NVM and, for counter/tree lines, their parent
// entry is recomputed and marked dirty (the lazy-update propagation step;
// under the eager scheme parents are already current, so only the
// write-back happens).
func (c *Controller) insertLine(ready sim.Time, ca *cache.Cache, addr uint64, dirty bool, content mem.Block) {
	way, ev, evicted := ca.InsertWay(addr, dirty)
	if dirty {
		ca.SetOwner(way, c.allocSlot(content))
	}
	if !evicted || !ev.Dirty {
		return
	}
	if ev.Owner == 0 {
		panic(fmt.Sprintf("secmem: dirty victim %#x holds no content slot", ev.Addr))
	}
	c.evictionDepth++
	if c.evictionDepth > maxEvictionDepth {
		panic("secmem: runaway eviction cascade")
	}
	defer func() { c.evictionDepth-- }()

	level, index, isNode := c.lay.Coord(ev.Addr)
	var cat mem.Category
	switch {
	case isNode:
		cat = memCategoryFor(level)
	case c.lay.RegionOf(ev.Addr) == bmt.RegionMAC:
		cat = mem.CatMAC
	default:
		panic(fmt.Sprintf("secmem: dirty eviction of unexpected address %#x", ev.Addr))
	}
	if !isNode || c.cfg.Scheme == EagerUpdate {
		// Data-MAC blocks have no parent entry; under the eager scheme
		// parents were already updated at write time. No cascade can touch
		// the victim, so write it back directly.
		c.nvm.Write(ready, ev.Addr, c.pool[ev.Owner], cat)
		c.releaseSlot(ev.Owner)
		return
	}
	// Lazy: recompute the parent entry before persisting the new content,
	// so nested fetches never observe (new content, old entry) in NVM.
	// While the parent update cascades, the victim sits in the write-back
	// buffer: nested cascades may re-read it — or even update one of its
	// own child entries — through that buffer, in which case the parent
	// entry is recomputed for the final content. Nested cascades push and
	// pop above it, so its index stays put.
	wi := len(c.wb)
	c.wb = append(c.wb, wbLine{addr: ev.Addr, content: c.pool[ev.Owner]})
	c.releaseSlot(ev.Owner)
	t := ready
	for attempt := 0; ; attempt++ {
		if attempt > 16 {
			panic("secmem: victim thrashing during eviction")
		}
		content := c.wb[wi].content
		t = c.issueMAC(t, MACTreeUpdate)
		macVal := c.eng.NodeMAC(level, index, content)
		if err := c.storeParentEntry(t, level, index, macVal); err != nil {
			// A verification failure during eviction handling means the
			// NVM was tampered with mid-operation; surface it loudly.
			panic(fmt.Sprintf("secmem: integrity failure during eviction: %v", err))
		}
		if c.wb[wi].content != content {
			continue // a nested cascade updated the victim; redo the entry
		}
		c.nvm.Write(t, ev.Addr, content, cat)
		c.wb = c.wb[:wi]
		return
	}
}

// storeParentEntry writes the MAC entry for child (level, index) into its
// parent, fetching the parent if needed and marking it dirty (or updating
// the on-chip root register when the parent is the root).
func (c *Controller) storeParentEntry(ready sim.Time, level int, index uint64, macVal cme.MAC) error {
	pLevel, pIndex, slot := c.lay.Parent(level, index)
	if pLevel == c.lay.RootLevel() {
		setEntry(&c.root, slot, macVal)
		return nil
	}
	_, _, err := c.updateNodeEntry(ready, pLevel, pIndex, slot, macVal)
	return err
}

// updateNodeEntry sets one child entry in the stored tree node (level,
// index), fetching the node if absent, and returns the node's updated
// logical content. It re-reads the node's current logical content at update
// time: fetching it may trigger eviction cascades that update the very same
// node for a sibling child, and applying a stale copy would silently drop
// that sibling's entry. If a cascade evicts the node between the fetch and
// the update (consistently — the eviction wrote it back and updated its
// parent), the fetch is retried.
func (c *Controller) updateNodeEntry(ready sim.Time, level int, index uint64, slot int, macVal cme.MAC) (mem.Block, sim.Time, error) {
	addr := c.lay.NodeAddr(level, index)
	ca := c.cacheFor(level)
	t := ready
	for attempt := 0; ; attempt++ {
		if attempt > 16 {
			panic("secmem: node thrashing while updating a parent entry")
		}
		var err error
		if _, t, err = c.ensureNode(t, level, index); err != nil {
			return mem.Block{}, t, err
		}
		if way := ca.WayOf(addr); way >= 0 {
			content := c.wayContent(ca, way, addr)
			setEntry(&content, slot, macVal)
			c.markDirty(ca, addr, content)
			return content, t, nil
		}
		if i := c.inWriteBack(addr); i >= 0 {
			// The node is mid-eviction: update it in the write-back buffer;
			// the eviction loop recomputes its parent entry afterwards.
			setEntry(&c.wb[i].content, slot, macVal)
			return c.wb[i].content, t, nil
		}
		// Evicted by a cascade during the fetch; refetch.
	}
}

// propagateEager pushes a leaf update through every tree level to the root
// register (the eager scheme). Each level costs one MAC computation; levels
// are fetched (with verification) if absent.
func (c *Controller) propagateEager(ready sim.Time, level int, index uint64, content mem.Block) (sim.Time, error) {
	t := ready
	lv, idx, cur := level, index, content
	for lv < c.lay.RootLevel() {
		t = c.issueMAC(t, MACTreeUpdate)
		macVal := c.eng.NodeMAC(lv, idx, cur)
		pLevel, pIndex, slot := c.lay.Parent(lv, idx)
		if pLevel == c.lay.RootLevel() {
			setEntry(&c.root, slot, macVal)
			return t, nil
		}
		var err error
		cur, t, err = c.updateNodeEntry(t, pLevel, pIndex, slot, macVal)
		if err != nil {
			return t, err
		}
		lv, idx = pLevel, pIndex
	}
	return t, nil
}
