package addrmap

import (
	"math/rand"
	"testing"
)

// testPool is the address pool the differential model draws from. It mixes
// dense, strided and high-bit (DrainPadDomain-style) addresses, address
// zero, and a cluster whose home slots fall in the last four slots of a
// minimum-size table. The cluster's probe runs wrap past the end of the
// array, and part of the cluster keeps wrapping after growth (the home slot
// stays in the top four of every aligned minSlots block, the last of which
// ends the array), so deletions must shift entries back across the wrap.
func testPool() []uint64 {
	pool := make([]uint64, 0, 512)
	for i := 0; i < 128; i++ {
		pool = append(pool, uint64(i)*64)
	}
	for i := 0; i < 96; i++ {
		pool = append(pool, uint64(i)*16384)
	}
	for i := 0; i < 96; i++ {
		pool = append(pool, 1<<63|uint64(i)*64)
	}
	for b := uint64(1 << 20); len(pool) < 512; b++ {
		if hash(b<<6)&(minSlots-1) >= minSlots-4 {
			pool = append(pool, b<<6)
		}
	}
	return pool
}

// Model operations, chosen by op%opCount.
const (
	opSet = iota
	opIncr
	opDelete
	opGet
	opHas
	opReserve
	opClone
	opReset
	opCopyFrom
	opCount
)

// modelRun drives a Map[int64] and a Go map through the same operations and
// fails on the first divergence. Each op is (code, address index, value).
type modelRun struct {
	t    testing.TB
	pool []uint64
	m    Map[int64]
	ref  map[uint64]int64
	step int
}

func newModelRun(t testing.TB) *modelRun {
	return &modelRun{t: t, pool: testPool(), ref: map[uint64]int64{}}
}

func (r *modelRun) apply(code, idx int, v int64) {
	t := r.t
	addr := r.pool[idx%len(r.pool)]
	switch code % opCount {
	case opSet:
		*r.m.Ref(addr) = v
		r.ref[addr] = v
	case opIncr:
		*r.m.Ref(addr)++
		r.ref[addr]++
	case opDelete:
		_, want := r.ref[addr]
		if got := r.m.Delete(addr); got != want {
			t.Fatalf("step %d: Delete(%#x) = %v, want %v", r.step, addr, got, want)
		}
		delete(r.ref, addr)
	case opGet:
		got, ok := r.m.Get(addr)
		want, refOK := r.ref[addr]
		if ok != refOK || got != want {
			t.Fatalf("step %d: Get(%#x) = (%d, %v), want (%d, %v)", r.step, addr, got, ok, want, refOK)
		}
	case opHas:
		if _, want := r.ref[addr]; r.m.Has(addr) != want {
			t.Fatalf("step %d: Has(%#x) = %v, want %v", r.step, addr, !want, want)
		}
	case opReserve:
		n := idx % 1024
		r.m.Reserve(n)
		if r.m.Cap() < n {
			t.Fatalf("step %d: Cap after Reserve(%d) = %d", r.step, n, r.m.Cap())
		}
	case opClone:
		// A clone is deep and equal; mutating it leaves the original alone.
		cl := r.m.Clone()
		r.check(&cl)
		*cl.Ref(addr) = v ^ 1
		cl.Delete(r.pool[(idx+1)%len(r.pool)])
	case opReset:
		r.m.Reset()
		clear(r.ref)
	case opCopyFrom:
		r.copyFrom(idx%4, addr, v)
	}
	r.step++
	r.check(&r.m)
}

// copyFrom exercises one CopyFrom shape: the model's table copied into a
// table of the same slot count (which must be overwritten in place), of a
// different slot count, into an empty table, or an empty table (zero value,
// or allocated with no entries) copied over a copy of the model's table.
func (r *modelRun) copyFrom(shape int, addr uint64, v int64) {
	t := r.t
	src := &r.m
	var dst Map[int64]
	switch shape {
	case 0, 1:
		slots := len(src.keys)
		if shape == 1 {
			slots = max(2*slots, minSlots)
			if v&1 == 1 && len(src.keys) > minSlots {
				slots = len(src.keys) / 2
			}
		}
		dst = Map[int64]{keys: make([]uint64, slots), vals: make([]int64, slots)}
		for i := 0; i < dst.Cap()/2; i++ {
			*dst.Ref(r.pool[(int(addr>>6)+i*7)%len(r.pool)]) = int64(i)
		}
	case 3:
		dst = src.Clone()
		*dst.Ref(addr) = v
		empty := Map[int64]{}
		if v&1 == 1 {
			empty = Map[int64]{keys: make([]uint64, len(dst.keys)), vals: make([]int64, len(dst.keys))}
		}
		dst.CopyFrom(&empty)
		if dst.Len() != 0 || len(dst.keys) != len(empty.keys) {
			t.Fatalf("step %d: copy of an empty table holds %d entries in %d slots, want 0 in %d", r.step, dst.Len(), len(dst.keys), len(empty.keys))
		}
		dst.Each(func(a uint64, _ int64) { t.Fatalf("step %d: copy of an empty table visits %#x", r.step, a) })
		*dst.Ref(addr) = v
		if got, ok := dst.Get(addr); !ok || got != v || dst.Len() != 1 {
			t.Fatalf("step %d: insert into a copy of an empty table: Get = (%d, %v), Len %d", r.step, got, ok, dst.Len())
		}
		return
	}
	inPlace := shape == 0 && len(src.keys) > 0
	var slot0 *uint64
	if inPlace {
		slot0 = &dst.keys[0]
	}
	dst.CopyFrom(src)
	if inPlace && &dst.keys[0] != slot0 {
		t.Fatalf("step %d: CopyFrom into a same-size table reallocated it", r.step)
	}
	r.check(&dst)
	// Slot for slot: Each visits the same entries in the same order.
	type kv struct {
		a uint64
		v int64
	}
	var want, got []kv
	src.Each(func(a uint64, v int64) { want = append(want, kv{a, v}) })
	dst.Each(func(a uint64, v int64) { got = append(got, kv{a, v}) })
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("step %d: copy visits %#x -> %d at position %d, source %#x -> %d", r.step, got[i].a, got[i].v, i, want[i].a, want[i].v)
		}
	}
	// Writes to the copy must not reach the source (apply's closing check
	// compares the source with the reference).
	*dst.Ref(addr) = v ^ 1
	dst.Delete(r.pool[(int(addr>>6)+1)%len(r.pool)])
	for i := 0; i < 200; i++ {
		*dst.Ref(r.pool[(int(addr>>6)+3*i)%len(r.pool)])++
	}
}

// check requires m to hold exactly the reference entries and every occupied
// slot to be reachable from its home slot without crossing an empty slot.
func (r *modelRun) check(m *Map[int64]) {
	t := r.t
	if m.Len() != len(r.ref) {
		t.Fatalf("step %d: Len = %d, want %d", r.step, m.Len(), len(r.ref))
	}
	seen := 0
	m.Each(func(addr uint64, v int64) {
		if want, ok := r.ref[addr]; !ok || v != want {
			t.Fatalf("step %d: Each gave %#x -> %d, want (%d, %v)", r.step, addr, v, want, ok)
		}
		seen++
	})
	if seen != len(r.ref) {
		t.Fatalf("step %d: Each visited %d entries, want %d", r.step, seen, len(r.ref))
	}
	mask := uint64(len(m.keys) - 1)
	for i, k := range m.keys {
		if k == 0 {
			continue
		}
		for j := hash(k&^1) & mask; j != uint64(i); j = (j + 1) & mask {
			if m.keys[j] == 0 {
				t.Fatalf("step %d: key %#x at slot %d unreachable: slot %d is empty", r.step, k&^1, i, j)
			}
		}
	}
}

// TestAddrMapDifferentialVsMap drives the table and a plain Go map through
// the same random insert, overwrite, delete, get, reserve, clone, reset and
// copy sequence and requires identical contents after every step. Deletes are
// frequent enough that the table repeatedly grows and drains, and the
// clustered addresses force backward shifts across the array's end.
func TestAddrMapDifferentialVsMap(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	r := newModelRun(t)
	wraps := 0
	for step := 0; step < 20000; step++ {
		var code int
		switch p := rng.Intn(1000); {
		case p < 350:
			code = opSet
		case p < 450:
			code = opIncr
		case p < 750:
			code = opDelete
		case p < 900:
			code = opGet
		case p < 975:
			code = opHas
		case p < 985:
			code = opReserve
		case p < 991:
			code = opClone
		case p < 997:
			code = opCopyFrom
		default:
			code = opReset
		}
		r.apply(code, rng.Intn(1<<20), rng.Int63())
		if len(r.m.keys) > 0 && r.m.keys[0] != 0 && r.m.keys[len(r.m.keys)-1] != 0 {
			wraps++
		}
	}
	if wraps == 0 {
		t.Fatal("no probe run ever wrapped past the end of the array")
	}
}

// TestAddrMapResetReleases pins that Reset drops the arrays: a table that
// held a large working set must not keep it live.
func TestAddrMapResetReleases(t *testing.T) {
	var m Map[int]
	m.Reserve(10000)
	*m.Ref(64) = 1
	m.Reset()
	if m.keys != nil || m.vals != nil || m.Len() != 0 || m.Cap() != 0 {
		t.Fatalf("Reset kept storage: %d slots, Len %d", len(m.keys), m.Len())
	}
	if _, ok := m.Get(64); ok {
		t.Fatal("Get found an entry after Reset")
	}
}

// FuzzAddrMap runs the differential model over fuzzer-chosen operation
// sequences: each three-byte group is (op, address index, value).
func FuzzAddrMap(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 1, 2, 2, 0, 0, 3, 1, 0})
	f.Add([]byte{0, 200, 1, 0, 201, 2, 0, 202, 3, 2, 200, 0, 3, 201, 0, 3, 202, 0})
	f.Add([]byte{0, 5, 9, 6, 0, 0, 7, 0, 0, 3, 5, 0})
	// Eight cluster entries share four home slots, so their run wraps;
	// deleting them in insertion order shifts entries back across the end.
	var wrap []byte
	for k := byte(0); k < 8; k++ {
		wrap = append(wrap, opSet, 128+k, k)
	}
	for k := byte(0); k < 8; k++ {
		wrap = append(wrap, opDelete, 128+k, 0)
	}
	f.Add(wrap)
	// Fill past one growth, then each CopyFrom shape: same size, different
	// size, into empty, from empty.
	var cp []byte
	for k := byte(0); k < 60; k++ {
		cp = append(cp, opSet, k, k)
	}
	for shape := byte(0); shape < 4; shape++ {
		cp = append(cp, opCopyFrom, shape, shape)
	}
	f.Add(cp)
	f.Fuzz(func(t *testing.T, data []byte) {
		r := newModelRun(t)
		for i := 0; i+2 < len(data); i += 3 {
			// Bias the index into the wrapping cluster (the pool's tail).
			idx := int(data[i+1])
			if idx >= 128 {
				idx = len(r.pool) - 1 - (idx - 128)
			}
			r.apply(int(data[i]), idx, int64(data[i+2]))
		}
	})
}
