package litmus

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/mem"
)

// mkWrites builds a write stream from (addr, cat) pairs with distinct data.
func mkWrites(specs ...struct {
	addr uint64
	cat  mem.Category
}) []Write {
	out := make([]Write, len(specs))
	for i, s := range specs {
		var b mem.Block
		b[0] = byte(i + 1)
		out[i] = Write{Step: i, Addr: s.addr, Cat: s.cat, Data: b}
	}
	return out
}

func spec(addr uint64, cat mem.Category) struct {
	addr uint64
	cat  mem.Category
} {
	return struct {
		addr uint64
		cat  mem.Category
	}{addr, cat}
}

func TestRecorderEpochSegmentation(t *testing.T) {
	r := NewRecorder()
	var closed []Epoch
	r.OnEpochClose = func(e Epoch) { closed = append(closed, e) }

	write := func(addr uint64, cat mem.Category, v byte) {
		var b mem.Block
		b[0] = v
		if got, ok := r.OnWrite(addr, cat, mem.Block{}, b); !ok || got != b {
			t.Fatalf("recorder changed write %#x: landed %v, %x", addr, ok, got[0])
		}
	}

	r.OnStage("drain:blocks")
	write(0, mem.CatData, 1)
	write(64, mem.CatData, 2)
	r.OnStage("drain:meta-flush") // closes epoch 0
	r.OnStage("meta:vault")       // empty epoch: not recorded
	write(128, mem.CatMetaFlush, 3)
	r.Finish()

	epochs := r.Epochs()
	if len(epochs) != 2 {
		t.Fatalf("epochs = %d, want 2 (empty epochs must be skipped)", len(epochs))
	}
	if epochs[0].Stage != "drain:blocks" || epochs[0].Lo != 0 || epochs[0].Hi != 2 {
		t.Errorf("epoch 0 = %+v, want stage drain:blocks [0,2)", epochs[0])
	}
	if epochs[1].Stage != "meta:vault" || epochs[1].Lo != 2 || epochs[1].Hi != 3 {
		t.Errorf("epoch 1 = %+v, want stage meta:vault [2,3)", epochs[1])
	}
	if !reflect.DeepEqual(closed, epochs) {
		t.Errorf("OnEpochClose saw %+v, want %+v", closed, epochs)
	}
	if got := len(r.EpochWrites(epochs[0])); got != 2 {
		t.Errorf("EpochWrites(epoch0) = %d writes, want 2", got)
	}
	if r.Writes()[2].Data[0] != 3 {
		t.Errorf("write content not preserved: %v", r.Writes()[2].Data[0])
	}
	// Finish with no trailing writes must not add an epoch.
	r.Finish()
	if len(r.Epochs()) != 2 {
		t.Errorf("second Finish added an epoch")
	}
}

// checkAdmissible fails the test if the applied set is not prefix-closed per
// address.
func checkAdmissible(t *testing.T, writes []Write, o Ordering) {
	t.Helper()
	in := make([]bool, len(writes))
	for _, i := range o.Applied {
		if i < 0 || i >= len(writes) {
			t.Fatalf("%s: index %d out of range [0,%d)", o.Kind, i, len(writes))
		}
		if in[i] {
			t.Fatalf("%s: index %d applied twice", o.Kind, i)
		}
		in[i] = true
	}
	if !admissible(in, addrGroups(writes)) {
		t.Fatalf("%s: ordering %v violates per-address program order", o.Kind, o.Applied)
	}
	// Landing order itself must respect per-address program order too.
	last := map[uint64]int{}
	for _, i := range o.Applied {
		if p, ok := last[writes[i].Addr]; ok && i < p {
			t.Fatalf("%s: landing order %v reorders same-address writes", o.Kind, o.Applied)
		}
		last[writes[i].Addr] = i
	}
}

func TestOrderingsExhaustiveCounts(t *testing.T) {
	// 3 writes, all distinct addresses: every subset admissible -> 8.
	w := mkWrites(spec(0, mem.CatData), spec(64, mem.CatMAC), spec(128, mem.CatCounter))
	got := Orderings(w, Options{})
	if len(got) != 8 {
		t.Fatalf("distinct-address exhaustive: %d orderings, want 8", len(got))
	}
	for _, o := range got {
		checkAdmissible(t, w, o)
	}

	// 3 writes, two to the same address: subsets containing write 2 without
	// write 0 are inadmissible -> 8 - 2 = 6.
	w = mkWrites(spec(0, mem.CatData), spec(64, mem.CatMAC), spec(0, mem.CatData))
	got = Orderings(w, Options{})
	if len(got) != 6 {
		t.Fatalf("same-address exhaustive: %d orderings, want 6", len(got))
	}
	for _, o := range got {
		checkAdmissible(t, w, o)
	}

	if Orderings(nil, Options{}) != nil {
		t.Errorf("empty epoch must yield no orderings")
	}
}

// bigEpoch builds an epoch large enough for sampled mode: alternating
// data/mac/counter writes, with some repeated addresses.
func bigEpoch(n int) []Write {
	cats := []mem.Category{mem.CatData, mem.CatMAC, mem.CatCounter}
	out := make([]Write, n)
	for i := range out {
		var b mem.Block
		b[0] = byte(i)
		b[1] = byte(i >> 8)
		out[i] = Write{Step: i, Addr: uint64((i % (n / 2)) * 64), Cat: cats[i%len(cats)], Data: b}
	}
	return out
}

func TestOrderingsSampledProperties(t *testing.T) {
	w := bigEpoch(40)
	opt := Options{Seed: 12345, MaxOrderings: 128}
	got := Orderings(w, opt)

	if len(got) < 100 {
		t.Fatalf("sampled mode produced %d distinct orderings, want >= 100", len(got))
	}
	seen := map[string]bool{}
	kinds := map[string]int{}
	for _, o := range got {
		checkAdmissible(t, w, o)
		k := o.Key()
		if seen[k] {
			t.Fatalf("duplicate ordering key %q", k)
		}
		seen[k] = true
		kinds[o.Kind]++
	}
	if kinds["empty"] != 1 || kinds["complete"] != 1 {
		t.Errorf("boundary orderings missing: kinds = %v", kinds)
	}
	// All three categories appear, so each contributes -only/-dropped.
	for _, c := range []string{"data", "mac", "counter"} {
		if kinds["heur:"+c+"-only"] == 0 {
			t.Errorf("missing heuristic ordering heur:%s-only (kinds %v)", c, kinds)
		}
	}
	if kinds["sampled"] == 0 {
		t.Errorf("no sampled orderings generated: %v", kinds)
	}
}

// fmtKey is Ordering.Key as first written, with fmt: the reference the
// allocation-lean Key must match byte for byte, since keys deduplicate
// generated orderings and so fix which cells a run explores.
func fmtKey(o Ordering) string {
	s := append([]int(nil), o.Applied...)
	sort.Ints(s)
	var b strings.Builder
	for _, v := range s {
		fmt.Fprintf(&b, "%x,", v)
	}
	return b.String()
}

// TestOrderingKeyMatchesFmt compares Key against fmtKey over random applied
// sets of random sizes (indices spanning one to four hex digits, in random
// landing order), plus the empty and nil sets.
func TestOrderingKeyMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := []Ordering{{}, {Applied: []int{}}, {Applied: []int{0}}, {Applied: []int{15, 16, 255, 256, 4095, 4096}}}
	for i := 0; i < 2000; i++ {
		n := rng.Intn(40)
		limit := []int{16, 256, 4096, 70000}[rng.Intn(4)]
		applied := rng.Perm(limit)[:min(n, limit)]
		cases = append(cases, Ordering{Kind: "sampled", Applied: applied})
	}
	for _, o := range cases {
		before := append([]int(nil), o.Applied...)
		if got, want := o.Key(), fmtKey(o); got != want {
			t.Fatalf("Key(%v) = %q, want %q", o.Applied, got, want)
		}
		if !reflect.DeepEqual(before, o.Applied) && len(before) > 0 {
			t.Fatalf("Key reordered Applied: %v -> %v", before, o.Applied)
		}
	}
}

func TestOrderingsDeterministic(t *testing.T) {
	w := bigEpoch(64)
	a := Orderings(w, Options{Seed: 99, MaxOrderings: 120})
	b := Orderings(w, Options{Seed: 99, MaxOrderings: 120})
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different ordering sets")
	}
	c := Orderings(w, Options{Seed: 100, MaxOrderings: 120})
	if reflect.DeepEqual(a, c) {
		t.Fatalf("different seeds produced identical sampled sets (suspicious)")
	}
}

func TestSampleOrderingAdmissible(t *testing.T) {
	w := bigEpoch(23)
	for seed := uint64(0); seed < 200; seed++ {
		o := SampleOrdering(w, seed)
		checkAdmissible(t, w, o)
		if len(o.Applied) < 1 || len(o.Applied) > len(w) {
			t.Fatalf("seed %d: cut size %d out of range", seed, len(o.Applied))
		}
	}
	if o := SampleOrdering(nil, 7); len(o.Applied) != 0 {
		t.Fatalf("empty epoch sample returned writes")
	}
}

// refSampleOne is the map-of-positions coherence fix-up sampleOne used to
// run, over address groups kept in a map; it is kept as the reference
// sampled orderings must match bit for bit.
func refSampleOne(writes []Write, r *rng) Ordering {
	groups := make(map[uint64][]int)
	for i, w := range writes {
		groups[w.Addr] = append(groups[w.Addr], i)
	}
	n := len(writes)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(r.next() % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	pos := make(map[uint64][]int)
	for p, idx := range perm {
		a := writes[idx].Addr
		pos[a] = append(pos[a], p)
	}
	for a, ps := range pos {
		sort.Ints(ps)
		for k, p := range ps {
			perm[p] = groups[a][k]
		}
	}
	cut := n
	if n > 1 {
		cut = 1 + int(r.next()%uint64(n-1))
	}
	return Ordering{Kind: "sampled", Applied: append([]int(nil), perm[:cut]...)}
}

// TestSampleOneMatchesReference pins that sampled orderings are unchanged
// by the fix-up's implementation: same RNG draws, same applied sets, over
// address groups of one to several writes.
func TestSampleOneMatchesReference(t *testing.T) {
	for _, w := range [][]Write{bigEpoch(23), bigEpoch(64), skewedEpoch(57)} {
		groups := addrGroups(w)
		for seed := uint64(0); seed < 100; seed++ {
			got, want := sampleOne(w, groups, &rng{state: seed}), refSampleOne(w, &rng{state: seed})
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%d writes, seed %d: sampled %v, reference %v", len(w), seed, got.Applied, want.Applied)
			}
		}
	}
}

// skewedEpoch writes n blocks over seven addresses with uneven group sizes.
func skewedEpoch(n int) []Write {
	out := bigEpoch(n)
	for i := range out {
		out[i].Addr = uint64(i*i%7) * 64
	}
	return out
}

func TestMinimize(t *testing.T) {
	// Failure iff index 3 is applied; addr of 3 repeats at index 5.
	w := mkWrites(
		spec(0, mem.CatData), spec(64, mem.CatData), spec(128, mem.CatData),
		spec(192, mem.CatMAC), spec(256, mem.CatData), spec(192, mem.CatMAC),
	)
	applied := []int{0, 1, 2, 3, 4, 5}
	min := Minimize(w, applied, func(cand []int) bool {
		for _, i := range cand {
			if i == 3 {
				return true
			}
		}
		return false
	})
	if !reflect.DeepEqual(min, []int{3}) {
		t.Fatalf("Minimize = %v, want [3]", min)
	}
	// Dropping 3 must also drop 5 (same address, later) — verify the
	// minimizer preserved admissibility along the way by re-checking.
	checkAdmissible(t, w, Ordering{Kind: "min", Applied: min})
}

func TestCorruptModels(t *testing.T) {
	var cur, old mem.Block
	for i := range cur {
		cur[i] = byte(i * 7)
		old[i] = byte(i * 3)
	}
	for _, m := range AllModels() {
		got := Corrupt(m, cur, old, 42)
		switch m {
		case Rollback, RollbackGroup:
			if got != old {
				t.Errorf("%v: want pre-drain content back", m)
			}
		default:
			if got == cur {
				t.Errorf("%v: corruption left block unchanged", m)
			}
		}
		// Deterministic in the seed.
		if again := Corrupt(m, cur, old, 42); again != got {
			t.Errorf("%v: not deterministic", m)
		}
	}
	// SingleBit differs in exactly one bit.
	diff := 0
	got := Corrupt(SingleBit, cur, old, 7)
	for i := range got {
		for b := 0; b < 8; b++ {
			if (got[i]^cur[i])&(1<<b) != 0 {
				diff++
			}
		}
	}
	if diff != 1 {
		t.Errorf("SingleBit flipped %d bits, want 1", diff)
	}
}

func TestParseModels(t *testing.T) {
	all, err := ParseModels("all")
	if err != nil || len(all) != len(AllModels()) {
		t.Fatalf("ParseModels(all) = %v, %v", all, err)
	}
	none, err := ParseModels("none")
	if err != nil || none != nil {
		t.Fatalf("ParseModels(none) = %v, %v", none, err)
	}
	// Round-trip every name.
	for _, m := range AllModels() {
		got, err := ParseModel(m.String())
		if err != nil || got != m {
			t.Errorf("ParseModel(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseModels("single-bit, rollback"); err != nil {
		t.Errorf("comma list with space rejected: %v", err)
	}
	if _, err := ParseModels("bogus"); err == nil {
		t.Errorf("bogus model accepted")
	}
}
