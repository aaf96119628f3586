package mem

import (
	"math/rand"
	"testing"
)

// TestStoreReserveHoldsFootprint pins the sizing contract callers rely on:
// after Reserve(n) the store takes n blocks, and rewrites of them, without
// growing; only the next new block past Cap grows the table.
func TestStoreReserveHoldsFootprint(t *testing.T) {
	const n = 1000
	s := NewStore()
	s.Reserve(n)
	c := s.Cap()
	if c < n {
		t.Fatalf("Cap after Reserve(%d) = %d", n, c)
	}
	blk := func(i int) Block { return Block{byte(i), byte(i >> 8), 1} }
	for i := 0; i < c; i++ {
		s.WriteBlock(uint64(i)*BlockSize, blk(i))
	}
	s.WriteBlock(0, blk(0))
	if s.Cap() != c || s.Populated() != c {
		t.Fatalf("filling to Cap grew the store: Cap %d -> %d, Populated %d", c, s.Cap(), s.Populated())
	}
	s.WriteBlock(uint64(c)*BlockSize, blk(c))
	if s.Cap() <= c {
		t.Fatalf("insert past Cap did not grow: Cap %d", s.Cap())
	}
	for i := 0; i <= c; i++ {
		if s.ReadBlock(uint64(i)*BlockSize) != blk(i) {
			t.Fatalf("block %d lost across growth", i)
		}
	}
}

// TestStoreDifferentialVsMap exercises the public Store API against a map
// reference, including Snapshot isolation and AddressesInRange ordering.
func TestStoreDifferentialVsMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := NewStore()
	ref := map[uint64]Block{}

	addrs := make([]uint64, 0, 300)
	for i := 0; i < 300; i++ {
		addrs = append(addrs, uint64(rng.Intn(1<<20))*BlockSize)
	}

	for step := 0; step < 10000; step++ {
		addr := addrs[rng.Intn(len(addrs))]
		switch rng.Intn(4) {
		case 0, 1:
			var b Block
			rng.Read(b[:])
			s.WriteBlock(addr, b)
			ref[addr] = b
		case 2:
			if got, want := s.ReadBlock(addr), ref[addr]; got != want {
				t.Fatalf("step %d: ReadBlock(%#x) mismatch", step, addr)
			}
		case 3:
			old := s.CorruptByte(addr, int(addr/BlockSize)%BlockSize, 0x40)
			if old != ref[addr] {
				t.Fatalf("step %d: CorruptByte old content mismatch", step)
			}
			nb := ref[addr]
			nb[int(addr/BlockSize)%BlockSize] ^= 0x40
			ref[addr] = nb
		}
	}
	if s.Populated() != len(ref) {
		t.Fatalf("Populated = %d, want %d", s.Populated(), len(ref))
	}

	// AddressesInRange must be sorted and complete.
	lo, hi := uint64(1<<10)*BlockSize, uint64(1<<19)*BlockSize
	got := s.AddressesInRange(lo, hi)
	want := 0
	for a := range ref {
		if a >= lo && a < hi {
			want++
		}
	}
	if len(got) != want {
		t.Fatalf("AddressesInRange returned %d addrs, want %d", len(got), want)
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("AddressesInRange not strictly sorted at %d", i)
		}
	}
	for _, a := range got {
		if s.ReadBlock(a) != ref[a] {
			t.Fatalf("content mismatch at %#x", a)
		}
	}

	// Snapshot isolation.
	snap := s.Snapshot()
	probe := got[0]
	var b Block
	rng.Read(b[:])
	s.WriteBlock(probe, b)
	if snap.ReadBlock(probe) != ref[probe] {
		t.Fatal("Snapshot changed when the original store was written")
	}
}
