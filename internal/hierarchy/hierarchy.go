// Package hierarchy models the contents of the processor cache hierarchy at
// the moment a crash is detected: the set of dirty cache blocks that the EPD
// (extended persistence domain) machinery must drain to the NVM.
//
// EPD platform requirements are defined by the worst case (§III), so the
// package provides the paper's worst-case fill — every line of every level
// dirty, with pairwise physical distance of at least 16 KB so that security-
// metadata locality is minimal (§V-A) — along with denser patterns used by
// the sensitivity ablations.
//
// The hierarchy is modelled as its *contents* (an ordered set of dirty
// blocks with data), not as an insertion-time simulator: the paper's
// draining study depends only on which blocks are dirty when the crash
// hits, and platform sizing assumes all of them are.
package hierarchy

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/addrmap"
	"repro/internal/mem"
)

// LevelConfig describes one cache level.
type LevelConfig struct {
	Name         string
	SizeBytes    int
	Ways         int
	LatencyCycle int // access latency in core cycles (Table I); informational
}

// Lines returns the level's line capacity.
func (lc LevelConfig) Lines() int { return lc.SizeBytes / mem.BlockSize }

// Config describes the hierarchy.
type Config struct {
	Levels []LevelConfig
}

// TableI returns the paper's hierarchy: L1 64 KB 2-way (2 cycles),
// L2 2 MB 8-way (20 cycles), inclusive LLC 16 MB 16-way (32 cycles).
func TableI() Config { return TableIWithLLC(16 << 20) }

// TableIWithLLC returns the Table I hierarchy with a different LLC capacity,
// used by the paper's LLC-size sensitivity studies (Figs. 14-16).
func TableIWithLLC(llcBytes int) Config {
	return Config{Levels: []LevelConfig{
		{Name: "L1", SizeBytes: 64 << 10, Ways: 2, LatencyCycle: 2},
		{Name: "L2", SizeBytes: 2 << 20, Ways: 8, LatencyCycle: 20},
		{Name: "LLC", SizeBytes: llcBytes, Ways: 16, LatencyCycle: 32},
	}}
}

// TotalLines returns the total line capacity across all levels; the paper's
// worst case assumes all of them dirty with distinct addresses.
func (c Config) TotalLines() int {
	n := 0
	for _, l := range c.Levels {
		n += l.Lines()
	}
	return n
}

// DirtyBlock is one block awaiting drain: its original physical address and
// its plaintext content.
type DirtyBlock struct {
	Addr uint64
	Data mem.Block
}

// Hierarchy holds the dirty contents of the cache hierarchy: one dense,
// insertion-ordered block array plus an open-addressed index from address to
// position. Iteration order is the array's, so no output depends on hash
// order, and the drain reads the array directly instead of a copy.
type Hierarchy struct {
	cfg      Config
	capacity int          // cfg.TotalLines(), the dirty-block bound
	blocks   []DirtyBlock // insertion order
	index    addrmap.Map[int32]
}

// New returns an empty hierarchy.
func New(cfg Config) *Hierarchy {
	if len(cfg.Levels) == 0 {
		panic("hierarchy: config needs at least one level")
	}
	n := cfg.TotalLines()
	if n > math.MaxInt32 {
		panic("hierarchy: more lines than the int32 block index holds")
	}
	return &Hierarchy{cfg: cfg, capacity: n}
}

// Config returns the hierarchy's configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// Write inserts or updates a dirty block. Addresses must be 64-byte aligned.
func (h *Hierarchy) Write(addr uint64, data mem.Block) {
	if addr%mem.BlockSize != 0 {
		panic(fmt.Sprintf("hierarchy: unaligned address %#x", addr))
	}
	if i, ok := h.index.Get(addr); ok {
		h.blocks[i].Data = data
		return
	}
	if len(h.blocks) >= h.capacity {
		panic("hierarchy: dirty blocks exceed total line capacity")
	}
	*h.index.Ref(addr) = int32(len(h.blocks))
	h.blocks = append(h.blocks, DirtyBlock{Addr: addr, Data: data})
}

// Read returns the content of a dirty block, if present.
func (h *Hierarchy) Read(addr uint64) (mem.Block, bool) {
	if i, ok := h.index.Get(addr); ok {
		return h.blocks[i].Data, true
	}
	return mem.Block{}, false
}

// DirtyCount returns the number of dirty blocks.
func (h *Hierarchy) DirtyCount() int { return len(h.blocks) }

// Reserve sizes the hierarchy for n dirty blocks in total (at most its line
// capacity), so filling it with a known footprint (a worst-case fill, a
// recovery refill) never grows the block array or the index.
func (h *Hierarchy) Reserve(n int) {
	n = min(n, h.capacity)
	h.index.Reserve(n)
	if cap(h.blocks) < n {
		h.blocks = append(make([]DirtyBlock, 0, n), h.blocks...)
	}
}

// Clear models the loss of the (volatile) cache arrays, e.g. after draining
// completes and power is lost. It releases the storage rather than keeping
// it for a refill: a crashed system that is never recovered (every baseline
// episode) would otherwise hold a full hierarchy's worth of dead blocks.
func (h *Hierarchy) Clear() {
	h.blocks = nil
	h.index.Reset()
}

// DirtyBlocks returns the dirty blocks in insertion order. The slice is the
// hierarchy's own storage, capped so that appending to it copies: callers
// must treat it as read-only, and a later Write of an address already dirty
// shows through it.
func (h *Hierarchy) DirtyBlocks() []DirtyBlock {
	n := len(h.blocks)
	return h.blocks[:n:n]
}

// Golden returns a copy of the dirty contents keyed by address. It remains
// for the host-cost benchmark's recovery checks; harnesses use DirtyBlocks.
func (h *Hierarchy) Golden() map[uint64]mem.Block {
	out := make(map[uint64]mem.Block, len(h.blocks))
	for _, b := range h.blocks {
		out[b.Addr] = b.Data
	}
	return out
}

// FillPattern selects how FillAllDirty chooses addresses.
type FillPattern int

// Fill patterns.
const (
	// PatternWorstCaseSparse places blocks on distinct pseudo-random 16 KB
	// slots, the paper's worst case: every block in its own counter region
	// and MAC region, minimal metadata-cache locality.
	PatternWorstCaseSparse FillPattern = iota
	// PatternDense places blocks contiguously from address 0 (best case for
	// the baselines' metadata locality).
	PatternDense
	// PatternStride places block i at i*Stride (Stride from FillOptions).
	PatternStride
)

// FillOptions parameterises FillAllDirty.
type FillOptions struct {
	Pattern  FillPattern
	DataSize uint64 // size of the protected data region
	Stride   uint64 // used by PatternStride; bytes, 64B multiple
	Seed     int64  // rng seed for slot selection and data generation
}

// SparseSlotBytes is the minimum physical distance of the paper's
// worst-case fill.
const SparseSlotBytes = 16 << 10

// FillAllDirty fills every line of every level with a dirty block of
// pseudo-random data and returns the number of blocks placed. The total
// equals Config.TotalLines (295 936 for the Table I hierarchy, the count in
// the paper's Fig. 6).
func (h *Hierarchy) FillAllDirty(opt FillOptions) int {
	n := h.capacity
	if len(h.blocks) != 0 {
		panic("hierarchy: FillAllDirty on a non-empty hierarchy")
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	addrs := make([]uint64, 0, n)
	switch opt.Pattern {
	case PatternWorstCaseSparse:
		slots := opt.DataSize / SparseSlotBytes
		if uint64(n) > slots {
			panic(fmt.Sprintf("hierarchy: %d blocks need %d 16KB slots but data region has %d", n, n, slots))
		}
		// Choose n distinct slots via a partial Fisher-Yates over the slot
		// index space, sparse-map based so 32 GB regions stay cheap.
		swap := make(map[uint64]uint64)
		for i := 0; i < n; i++ {
			j := uint64(i) + uint64(rng.Int63n(int64(slots-uint64(i))))
			vi, vj := valueAt(swap, uint64(i)), valueAt(swap, j)
			swap[uint64(i)], swap[j] = vj, vi
			addrs = append(addrs, vj*SparseSlotBytes)
		}
	case PatternDense:
		if uint64(n)*mem.BlockSize > opt.DataSize {
			panic("hierarchy: dense fill exceeds data region")
		}
		for i := 0; i < n; i++ {
			addrs = append(addrs, uint64(i)*mem.BlockSize)
		}
	case PatternStride:
		if opt.Stride == 0 || opt.Stride%mem.BlockSize != 0 {
			panic("hierarchy: stride must be a positive 64B multiple")
		}
		if uint64(n)*opt.Stride > opt.DataSize {
			panic("hierarchy: strided fill exceeds data region")
		}
		for i := 0; i < n; i++ {
			addrs = append(addrs, uint64(i)*opt.Stride)
		}
	default:
		panic("hierarchy: unknown fill pattern")
	}
	h.Reserve(n)
	for _, a := range addrs {
		h.Write(a, randomBlock(rng))
	}
	return n
}

func valueAt(swap map[uint64]uint64, i uint64) uint64 {
	if v, ok := swap[i]; ok {
		return v
	}
	return i
}

func randomBlock(rng *rand.Rand) mem.Block {
	var b mem.Block
	for i := 0; i < mem.BlockSize; i += 8 {
		v := rng.Uint64()
		for k := 0; k < 8; k++ {
			b[i+k] = byte(v >> (8 * k))
		}
	}
	return b
}
