package mem

import (
	"math/rand"
	"testing"
)

// TestAddrMapDifferentialVsMap drives the open-addressed table and a plain
// Go map through the same randomized workload and requires identical
// contents at every step boundary. This is the correctness oracle for
// replacing the store/wear maps on the hot path.
func TestAddrMapDifferentialVsMap(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var m addrMap[int64]
	ref := map[uint64]int64{}

	// Address pool mixing dense, strided and high-bit (DrainPadDomain-style)
	// addresses, including address zero.
	pool := make([]uint64, 0, 512)
	for i := 0; i < 256; i++ {
		pool = append(pool, uint64(i)*BlockSize)
	}
	for i := 0; i < 128; i++ {
		pool = append(pool, uint64(i)*16384)
	}
	for i := 0; i < 128; i++ {
		pool = append(pool, 1<<63|uint64(i)*BlockSize)
	}

	for step := 0; step < 20000; step++ {
		addr := pool[rng.Intn(len(pool))]
		switch rng.Intn(3) {
		case 0: // insert/overwrite
			v := rng.Int63()
			*m.ref(addr) = v
			ref[addr] = v
		case 1: // increment through ref
			*m.ref(addr)++
			ref[addr]++
		case 2: // lookup
			got, ok := m.get(addr)
			want, refOK := ref[addr]
			if ok != refOK || got != want {
				t.Fatalf("step %d: get(%#x) = (%d, %v), want (%d, %v)", step, addr, got, ok, want, refOK)
			}
		}
		if m.len() != len(ref) {
			t.Fatalf("step %d: len = %d, want %d", step, m.len(), len(ref))
		}
	}

	// Full sweep: every reference entry present with the right value, and
	// each() enumerates exactly the reference set.
	for addr, want := range ref {
		if got, ok := m.get(addr); !ok || got != want {
			t.Fatalf("final get(%#x) = (%d, %v), want (%d, true)", addr, got, ok, want)
		}
	}
	seen := map[uint64]int64{}
	m.each(func(addr uint64, v int64) {
		if _, dup := seen[addr]; dup {
			t.Fatalf("each() visited %#x twice", addr)
		}
		seen[addr] = v
	})
	if len(seen) != len(ref) {
		t.Fatalf("each() visited %d entries, want %d", len(seen), len(ref))
	}
	for addr, v := range ref {
		if seen[addr] != v {
			t.Fatalf("each() gave %#x -> %d, want %d", addr, seen[addr], v)
		}
	}

	// clone() is deep: mutating the clone leaves the original untouched.
	cl := m.clone()
	probe := pool[0]
	before, _ := m.get(probe)
	*cl.ref(probe) = before + 1000
	if after, _ := m.get(probe); after != before {
		t.Fatalf("clone mutation leaked into original: %d -> %d", before, after)
	}
	if got, _ := cl.get(probe); got != before+1000 {
		t.Fatalf("clone value = %d, want %d", got, before+1000)
	}
}

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
