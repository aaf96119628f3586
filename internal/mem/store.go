// Package mem models the non-volatile main memory of the simulated system:
// a functional, sparse, 64-byte-block store plus a banked timing and energy
// model matching the paper's DDR-based PCM parameters (Table I: 150 ns read,
// 500 ns write; §V-G: 5.5 nJ per read, 531.8 nJ per write).
package mem

import (
	"fmt"
	"sort"

	"repro/internal/addrmap"
)

// BlockSize is the memory access granularity in bytes (one cache line).
const BlockSize = 64

// Block is a 64-byte memory block.
type Block [BlockSize]byte

// IsZero reports whether every byte of the block is zero.
func (b *Block) IsZero() bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}

// storeEntry is one populated block's state: its content plus its lifetime
// write (wear) count. Fusing the two means the controller's per-write hot
// path probes one table once instead of a block table and a wear table.
type storeEntry struct {
	b    Block
	wear int64
}

// Store is a sparse functional memory: unwritten blocks read as zero.
// Addresses are byte addresses and must be 64-byte aligned.
//
// Blocks live in one open-addressed table (internal/addrmap) rather than a Go
// map: every timed access funnels through ReadBlock/WriteBlock, so the probe
// cost and the map's per-bucket overhead are on the simulator's hottest path.
// The table grows on demand; code that knows a machine's footprint up front
// sizes it once with Reserve.
type Store struct {
	m addrmap.Map[storeEntry]
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{} }

func checkAligned(addr uint64) {
	if addr%BlockSize != 0 {
		panic(fmt.Sprintf("mem: unaligned block address %#x", addr))
	}
}

// ReadBlock returns the content of the block at addr (zero if never written).
func (s *Store) ReadBlock(addr uint64) Block {
	checkAligned(addr)
	e, _ := s.m.Get(addr)
	return e.b
}

// WriteBlock stores b at addr without touching the wear count (functional
// writes from tests and recovery are not medium writes).
func (s *Store) WriteBlock(addr uint64, b Block) {
	checkAligned(addr)
	s.m.Ref(addr).b = b
}

// entry returns a pointer to the block's fused content+wear entry, inserting
// a zero entry if absent. The pointer is invalidated by the next insertion
// (table growth); the controller uses it strictly within one access.
func (s *Store) entry(addr uint64) *storeEntry {
	checkAligned(addr)
	return s.m.Ref(addr)
}

// wearOf returns the lifetime write count of one block.
func (s *Store) wearOf(addr uint64) int64 {
	e, _ := s.m.Get(addr)
	return e.wear
}

// eachWear calls fn for every block with a non-zero wear count, in
// unspecified order. Blocks only ever written functionally (wear zero) are
// skipped, preserving the semantics of the former separate wear table.
func (s *Store) eachWear(fn func(addr uint64, wear int64)) {
	s.m.Each(func(a uint64, e storeEntry) {
		if e.wear != 0 {
			fn(a, e.wear)
		}
	})
}

// Populated returns the number of blocks that have been written.
func (s *Store) Populated() int { return s.m.Len() }

// Cap returns how many blocks the store holds before its table next grows.
func (s *Store) Cap() int { return s.m.Cap() }

// Reserve pre-sizes the store for at least n populated blocks, so a write
// burst of known footprint doesn't pay repeated table-growth rehashes. It
// never shrinks and is safe at any time.
func (s *Store) Reserve(n int) { s.m.Reserve(n) }

// Snapshot returns a deep copy of the store, used by tests to compare
// pre-crash and post-recovery memory images.
func (s *Store) Snapshot() *Store {
	return &Store{m: s.m.Clone()}
}

// CopyFrom makes s a slot-for-slot copy of src: the same blocks, wear counts
// and table layout, so iteration order and later insertions match src. A
// store whose table already has src's size is overwritten in place without
// allocating, which lets the litmus oracle recycle one store across cells.
func (s *Store) CopyFrom(src *Store) { s.m.CopyFrom(&src.m) }

// Each calls fn for every populated block, in unspecified order. The litmus
// harness uses it to copy a snapshotted image into a fresh system's store;
// callers needing a deterministic order should collect and sort.
func (s *Store) Each(fn func(addr uint64, b Block)) {
	s.m.Each(func(a uint64, e storeEntry) { fn(a, e.b) })
}

// AddressesInRange returns the sorted addresses of populated blocks within
// [lo, hi). Recovery scans use it to enumerate memory without materialising
// the full (sparse) address space.
func (s *Store) AddressesInRange(lo, hi uint64) []uint64 {
	var out []uint64
	s.m.Each(func(a uint64, _ storeEntry) {
		if a >= lo && a < hi {
			out = append(out, a)
		}
	})
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// CorruptByte flips the bit at bitIndex of the byte at byteOffset within the
// block at addr. It is used by attack-injection tests and returns the
// previous block content.
func (s *Store) CorruptByte(addr uint64, byteOffset int, bitMask byte) Block {
	checkAligned(addr)
	p := s.m.Ref(addr)
	old := p.b
	p.b[byteOffset] ^= bitMask
	return old
}
