package mem

import (
	"math/rand"
	"sort"
	"testing"
)

// Operations of the store's differential model.
const (
	sopWriteBlock   = iota // functional WriteBlock: content, no wear
	sopWriteTimed          // Controller.Write: content and wear
	sopWriteFunc           // Controller.Write inside Functionally: content and wear
	sopRead                // ReadBlock, timed Read and PeekRead; never insert
	sopCorrupt             // CorruptByte: flip bits, inserting a zero block if absent
	sopReserve             // Reserve(arg * 4)
	sopSnapshot            // freeze a Snapshot, checked against the model at the end
	sopCopyEqual           // continue on a copy in a store of the live store's shape
	sopCopySmaller         // ... in a smaller, already populated store
	sopCopyLarger          // ... in a store reserved far past the live one
	sopCopyEmpty           // ... in a fresh empty store
	sopCopyFromNone        // overwrite the live store from an empty store
	numStoreOps
)

// storeRef is the reference model: a Go map per field plus the order of
// first insertion, which Each must reproduce.
type storeRef struct {
	blocks map[uint64]Block
	wear   map[uint64]int64
	order  []uint64
}

func newStoreRef() *storeRef {
	return &storeRef{blocks: map[uint64]Block{}, wear: map[uint64]int64{}}
}

func (r *storeRef) touch(addr uint64) {
	if _, ok := r.blocks[addr]; !ok {
		r.blocks[addr] = Block{}
		r.order = append(r.order, addr)
	}
}

func (r *storeRef) clone() *storeRef {
	c := newStoreRef()
	for a, b := range r.blocks {
		c.blocks[a] = b
	}
	for a, w := range r.wear {
		c.wear[a] = w
	}
	c.order = append(c.order, r.order...)
	return c
}

// storeRun drives one controller, and the store under it, against the
// reference model.
type storeRun struct {
	t      testing.TB
	c      *Controller
	ref    *storeRef
	pool   []uint64
	frozen []*Store
	models []*storeRef
	step   int
}

func newStoreRun(t testing.TB) *storeRun {
	r := &storeRun{t: t, c: NewController(DefaultConfig()), ref: newStoreRef()}
	// Low blocks, a strided run far above them, and address zero.
	for i := uint64(0); i < 64; i++ {
		r.pool = append(r.pool, i*BlockSize, (1<<20)+i*4096)
	}
	return r
}

// copyInto makes dst a copy of the live store, checks its capacity, and
// continues on it as the controller's store.
func (r *storeRun) copyInto(dst *Store) {
	dst.CopyFrom(r.c.Store())
	if dst.Cap() != r.c.Store().Cap() {
		r.t.Fatalf("step %d: CopyFrom gave Cap %d, want the source's %d", r.step, dst.Cap(), r.c.Store().Cap())
	}
	r.c.UseStore(dst)
}

func (r *storeRun) apply(op int, idx int, arg byte) {
	r.step++
	st := r.c.Store()
	addr := r.pool[idx%len(r.pool)]
	b := Block{0: arg, 7: byte(idx), 63: arg ^ 0xff}
	prevLen, prevCap := len(st.blocks), cap(st.blocks)
	switch op {
	case sopWriteBlock:
		st.WriteBlock(addr, b)
		r.ref.touch(addr)
		r.ref.blocks[addr] = b
	case sopWriteTimed, sopWriteFunc:
		if op == sopWriteTimed {
			r.c.Write(0, addr, b, CatData)
		} else {
			r.c.Functionally(func() { r.c.Write(0, addr, b, CatData) })
		}
		r.ref.touch(addr)
		r.ref.blocks[addr] = b
		r.ref.wear[addr]++
	case sopRead:
		want := r.ref.blocks[addr]
		got, _ := r.c.Read(0, addr, CatData)
		if st.ReadBlock(addr) != want || got != want || r.c.PeekRead(addr) != want {
			r.t.Fatalf("step %d: read of %#x differs from the model", r.step, addr)
		}
	case sopCorrupt:
		off := int(arg) % BlockSize
		old := st.CorruptByte(addr, off, arg|1)
		r.ref.touch(addr)
		if old != r.ref.blocks[addr] {
			r.t.Fatalf("step %d: CorruptByte(%#x) returned stale content", r.step, addr)
		}
		nb := r.ref.blocks[addr]
		nb[off] ^= arg | 1
		r.ref.blocks[addr] = nb
	case sopReserve:
		n := int(arg) * 4
		st.Reserve(n)
		if st.Cap() < n {
			r.t.Fatalf("step %d: Cap %d after Reserve(%d)", r.step, st.Cap(), n)
		}
		return
	case sopSnapshot:
		if len(r.frozen) < 8 {
			r.frozen = append(r.frozen, st.Snapshot())
			r.models = append(r.models, r.ref.clone())
		}
		return
	case sopCopyEqual:
		r.copyInto(st.Snapshot())
		return
	case sopCopySmaller:
		dst := NewStore()
		dst.WriteBlock(1<<30, Block{1})
		r.copyInto(dst)
		return
	case sopCopyLarger:
		dst := NewStore()
		dst.Reserve(4 * (st.Cap() + 64))
		r.copyInto(dst)
		return
	case sopCopyEmpty:
		r.copyInto(NewStore())
		return
	case sopCopyFromNone:
		st.CopyFrom(NewStore())
		r.ref = newStoreRef()
		return
	}
	// An insertion into full dense arrays doubles them, never less.
	if len(st.blocks) > prevLen && prevLen == prevCap {
		if want := max(2*prevCap, minBlocks); cap(st.blocks) != want {
			r.t.Fatalf("step %d: full arrays of %d grew to %d, want %d", r.step, prevCap, cap(st.blocks), want)
		}
	}
}

// checkStore requires s to hold exactly the model's blocks and wear, with Each
// in first-insertion order and every derived view agreeing.
func checkStore(t testing.TB, step int, s *Store, ref *storeRef) {
	if s.Populated() != len(ref.order) || s.Populated() > s.Cap() {
		t.Fatalf("step %d: Populated %d, Cap %d, model %d", step, s.Populated(), s.Cap(), len(ref.order))
	}
	i := 0
	s.Each(func(a uint64, b Block) {
		if i >= len(ref.order) || a != ref.order[i] || b != ref.blocks[a] {
			t.Fatalf("step %d: Each entry %d is %#x, out of insertion order or content", step, i, a)
		}
		i++
	})
	for _, a := range ref.order {
		if s.ReadBlock(a) != ref.blocks[a] || s.wearOf(a) != ref.wear[a] {
			t.Fatalf("step %d: block %#x differs from the model", step, a)
		}
	}
	sorted := append([]uint64(nil), ref.order...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, rg := range [][2]uint64{{0, 1 << 20}, {1 << 20, ^uint64(0)}, {0, ^uint64(0)}} {
		var want []uint64
		var top, total int64
		for _, a := range sorted {
			if a >= rg[0] && a < rg[1] {
				want = append(want, a)
				total += ref.wear[a]
				top = max(top, ref.wear[a])
			}
		}
		got := s.AddressesInRange(rg[0], rg[1])
		if len(got) != len(want) {
			t.Fatalf("step %d: AddressesInRange%v has %d addresses, want %d", step, rg, len(got), len(want))
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("step %d: AddressesInRange%v[%d] = %#x, want %#x", step, rg, k, got[k], want[k])
			}
		}
		c := &Controller{store: s}
		if gm, gt := c.WearInRange(rg[0], rg[1]); gm != top || gt != total {
			t.Fatalf("step %d: WearInRange%v = (%d, %d), want (%d, %d)", step, rg, gm, gt, top, total)
		}
	}
	var want WearStats
	for _, a := range sorted {
		w := ref.wear[a]
		if w == 0 {
			continue
		}
		if w > want.MaxWrites {
			want.MaxWrites, want.HotAddr = w, a
		}
		want.TotalWrites += w
		want.UniqueBlocks++
	}
	if got := (&Controller{store: s}).WearStats(); got != want {
		t.Fatalf("step %d: WearStats = %+v, want %+v", step, got, want)
	}
}

// finish checks the live store and every frozen snapshot, which later
// writes to the store they were taken from must not have reached.
func (r *storeRun) finish() {
	checkStore(r.t, r.step, r.c.Store(), r.ref)
	for i, s := range r.frozen {
		checkStore(r.t, r.step, s, r.models[i])
	}
}

// TestStoreDifferentialVsReference drives the dense store and its
// controller through random writes (functional, timed and inside
// Functionally), reads of present and absent blocks, corruptions,
// reservations before and after inserts, snapshots and CopyFrom in every
// shape, and checks them against the Go-map reference after every step.
func TestStoreDifferentialVsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	r := newStoreRun(t)
	r.apply(sopReserve, 0, 5) // reserve before any insert
	for step := 0; step < 4000; step++ {
		var op int
		switch p := rng.Intn(100); {
		case p < 70:
			op = rng.Intn(sopCorrupt + 1)
		case p < 75:
			op = sopReserve
		default:
			op = sopSnapshot + rng.Intn(numStoreOps-sopSnapshot)
		}
		if op == sopCopyFromNone && rng.Intn(4) != 0 {
			op = sopWriteTimed // keep the store populated most of the time
		}
		r.apply(op, rng.Intn(len(r.pool)), byte(rng.Intn(256)))
		checkStore(t, r.step, r.c.Store(), r.ref)
	}
	r.finish()
}

// TestStoreCopyFromSameShapeAllocatesNothing pins the litmus oracle's
// recycling: copying into a store of the source's shape reuses its index
// and arrays, and so does copying again into a store whose arrays were
// larger (AllocsPerRun's warm-up call gives it the source's index size).
func TestStoreCopyFromSameShapeAllocatesNothing(t *testing.T) {
	src := NewStore()
	src.Reserve(500)
	for i := 0; i < 400; i++ {
		src.WriteBlock(uint64(i*7)*BlockSize, Block{byte(i)})
	}
	larger := NewStore()
	larger.Reserve(2000)
	for name, dst := range map[string]*Store{"same shape": src.Snapshot(), "larger arrays": larger} {
		if n := testing.AllocsPerRun(20, func() { dst.CopyFrom(src) }); n != 0 {
			t.Errorf("%s: CopyFrom allocates %v times, want 0", name, n)
		}
		if dst.Cap() != src.Cap() {
			t.Errorf("%s: Cap %d after CopyFrom, want the source's %d", name, dst.Cap(), src.Cap())
		}
	}
}

// FuzzStore runs the store's differential model over fuzzer-chosen
// operation sequences: each three-byte group is (op, address index, arg).
func FuzzStore(f *testing.F) {
	f.Add([]byte{sopWriteTimed, 0, 1, sopWriteBlock, 1, 2, sopRead, 2, 0, sopCorrupt, 3, 9})
	// Fill past the first growth, snapshot, overwrite, then copy into each
	// destination shape and from an empty store.
	var grow []byte
	for k := byte(0); k < 48; k++ {
		grow = append(grow, sopWriteTimed, k, k)
	}
	grow = append(grow, sopSnapshot, 0, 0, sopWriteFunc, 3, 7)
	for op := byte(sopCopyEqual); op < numStoreOps; op++ {
		grow = append(grow, sopWriteBlock, op, op, op, 0, 0)
	}
	f.Add(grow)
	// Reserve after inserts, fill to the reservation, insert past it.
	var res []byte
	for k := byte(0); k < 10; k++ {
		res = append(res, sopWriteBlock, k, k)
	}
	res = append(res, sopReserve, 0, 5)
	for k := byte(10); k < 30; k++ {
		res = append(res, sopWriteFunc, k, k, sopCorrupt, k+1, k)
	}
	f.Add(res)
	f.Fuzz(func(t *testing.T, data []byte) {
		r := newStoreRun(t)
		for i := 0; i+2 < len(data); i += 3 {
			r.apply(int(data[i])%numStoreOps, int(data[i+1]), data[i+2])
		}
		r.finish()
	})
}
