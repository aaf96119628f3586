// Package mem models the non-volatile main memory of the simulated system:
// a functional, sparse, 64-byte-block store plus a banked timing and energy
// model matching the paper's DDR-based PCM parameters (Table I: 150 ns read,
// 500 ns write; §V-G: 5.5 nJ per read, 531.8 nJ per write).
package mem

import (
	"fmt"
	"math"
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

// minBlocks is the dense arrays' first capacity when a store grows on
// demand: the index's first capacity (64 slots at its 3/4 load limit), so
// an unreserved store grows its arrays and its index in step.
const minBlocks = 48

// Store is a sparse functional memory: unwritten blocks read as zero.
// Addresses are byte addresses and must be 64-byte aligned.
//
// Populated blocks live densely, in insertion order: blocks[i] is one
// 64-byte host cache line holding the content of addrs[i], and wear[i] is
// its lifetime write count. An open-addressed index (internal/addrmap) maps
// an address to its position, so every timed access funnels through one
// index probe and then touches only that block's own line and wear word.
// The dense arrays grow by explicit doubling; code that knows a machine's
// footprint up front sizes the store once, exactly, with Reserve.
type Store struct {
	index  addrmap.Map[int32]
	addrs  []uint64
	blocks []Block
	wear   []int64
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
	if i, ok := s.index.Get(addr); ok {
		return s.blocks[i]
	}
	return Block{}
}

// WriteBlock stores b at addr without touching the wear count (functional
// writes from tests and recovery are not medium writes).
func (s *Store) WriteBlock(addr uint64, b Block) {
	s.blocks[s.pos(addr)] = b
}

// pos returns the block's position in the dense arrays, appending a zero
// block with zero wear if absent: one index probe either way. A position
// stays valid for the store's lifetime (nothing is ever deleted).
func (s *Store) pos(addr uint64) int {
	checkAligned(addr)
	n := s.index.Len()
	p := s.index.Ref(addr)
	if s.index.Len() == n {
		return int(*p)
	}
	i := len(s.blocks)
	if i == math.MaxInt32 {
		panic("mem: more blocks than the int32 store index holds")
	}
	if i == cap(s.blocks) {
		s.resize(max(2*i, minBlocks))
	}
	*p = int32(i)
	s.addrs = append(s.addrs, addr)
	s.blocks = append(s.blocks, Block{})
	s.wear = append(s.wear, 0)
	return i
}

// resize moves the dense arrays to capacity c (at least their length).
// Growth always comes through here with an explicit size, never through
// append's own growth rule.
func (s *Store) resize(c int) {
	addrs := make([]uint64, len(s.addrs), c)
	blocks := make([]Block, len(s.blocks), c)
	wear := make([]int64, len(s.wear), c)
	copy(addrs, s.addrs)
	copy(blocks, s.blocks)
	copy(wear, s.wear)
	s.addrs, s.blocks, s.wear = addrs, blocks, wear
}

// wearOf returns the lifetime write count of one block.
func (s *Store) wearOf(addr uint64) int64 {
	if i, ok := s.index.Get(addr); ok {
		return s.wear[i]
	}
	return 0
}

// eachWear calls fn for every block with a non-zero wear count, in
// insertion order. Blocks only ever written functionally (wear zero) are
// skipped.
func (s *Store) eachWear(fn func(addr uint64, wear int64)) {
	for i, w := range s.wear {
		if w != 0 {
			fn(s.addrs[i], w)
		}
	}
}

// Populated returns the number of blocks that have been written.
func (s *Store) Populated() int { return len(s.blocks) }

// Cap returns how many blocks the store holds before it next allocates:
// the smaller of the dense arrays' capacity and the index's.
func (s *Store) Cap() int { return min(cap(s.blocks), s.index.Cap()) }

// Reserve sizes the store for at least n populated blocks, so a write burst
// of known footprint never grows it: the index for n entries, and the dense
// arrays to exactly n (not to the index's power-of-two capacity). It never
// shrinks and is safe at any time.
func (s *Store) Reserve(n int) {
	s.index.Reserve(n)
	if cap(s.blocks) < n {
		s.resize(n)
	}
}

// Snapshot returns a deep copy of the store, with the same capacity, used
// by tests to compare pre-crash and post-recovery memory images.
func (s *Store) Snapshot() *Store {
	out := NewStore()
	out.CopyFrom(s)
	return out
}

// CopyFrom makes s a copy of src: the same blocks and wear counts in the
// same insertion order, and the same capacity. It reuses s's index when that
// has src's size, and s's dense arrays when they have at least src's
// capacity, so a store recycled against one source allocates nothing; that
// lets the litmus oracle reuse one store across cells.
func (s *Store) CopyFrom(src *Store) {
	s.index.CopyFrom(&src.index)
	c := cap(src.blocks)
	if cap(s.blocks) < c {
		s.addrs, s.blocks, s.wear = nil, nil, nil // resize copies nothing
		s.resize(c)
	}
	s.addrs = append(s.addrs[:0:c], src.addrs...)
	s.blocks = append(s.blocks[:0:c], src.blocks...)
	s.wear = append(s.wear[:0:c], src.wear...)
}

// Each calls fn for every populated block in insertion order (the order of
// each address's first write), so its output is deterministic. fn must not
// write to the store.
func (s *Store) Each(fn func(addr uint64, b Block)) {
	for i, a := range s.addrs {
		fn(a, s.blocks[i])
	}
}

// AddressesInRange returns the sorted addresses of populated blocks within
// [lo, hi). Recovery scans use it to enumerate memory without materialising
// the full (sparse) address space.
func (s *Store) AddressesInRange(lo, hi uint64) []uint64 {
	var out []uint64
	for _, a := range s.addrs {
		if a >= lo && a < hi {
			out = append(out, a)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// CorruptByte flips the bit at bitIndex of the byte at byteOffset within the
// block at addr. It is used by attack-injection tests and returns the
// previous block content.
func (s *Store) CorruptByte(addr uint64, byteOffset int, bitMask byte) Block {
	p := &s.blocks[s.pos(addr)]
	old := *p
	p[byteOffset] ^= bitMask
	return old
}
