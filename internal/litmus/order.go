package litmus

import (
	"sort"
	"strconv"

	"repro/internal/addrmap"
)

// Ordering is one admissible crash state of an epoch: the subset of the
// epoch's writes that became durable, listed in landing order. Admissibility
// means the subset is prefix-closed per address (a write landed only if
// every earlier program-order write to the same address landed). Because
// same-address writes land in program order, the durable memory state is a
// function of the applied set alone; Applied's order is kept for traces.
type Ordering struct {
	// Kind records how the ordering was produced: "exhaustive", "sampled",
	// "empty", "complete", "heur:<class>-only", "heur:<class>-dropped".
	Kind string
	// Applied holds epoch-relative write indices in landing order.
	Applied []int
}

// Complete reports whether every write of an n-write epoch landed.
func (o Ordering) Complete(n int) bool { return len(o.Applied) == n }

// Key returns the canonical identity of the ordering's durable state: the
// applied set in ascending order. Two orderings with equal keys materialise
// identical memory images.
func (o Ordering) Key() string {
	s := append([]int(nil), o.Applied...)
	sort.Ints(s)
	// Lower-case hex plus a comma per index: at most four bytes for epochs
	// under 4,096 writes, so one buffer and one string conversion suffice.
	b := make([]byte, 0, 4*len(s))
	for _, v := range s {
		b = strconv.AppendInt(b, int64(v), 16)
		b = append(b, ',')
	}
	return string(b)
}

// Options bounds ordering generation for one epoch.
type Options struct {
	// Seed drives the permutation sampling; the generated set is a pure
	// function of (writes, Options), independent of any parallelism.
	Seed uint64
	// MaxOrderings is the target number of distinct orderings for sampled
	// epochs (0 = 128). Generation stops once reached (or once the sampler
	// has made 4x that many attempts, for epochs whose distinct-state space
	// is smaller than the target).
	MaxOrderings int
	// ExhaustiveWrites is the largest epoch enumerated exhaustively
	// (0 = 5, clamped to 12): every admissible subset of such an epoch is
	// produced, so small tail epochs (CHV tail, vault parity) get complete
	// coverage.
	ExhaustiveWrites int
	// Classify, when set, labels each write with an adversarial-heuristic
	// class (typically the metadata region: mac, counter, tree, ...); for
	// every class present the generator emits the "only this class landed"
	// and "only this class missing" orderings — the MAC-before-data and
	// counter-before-ciphertext shapes. Nil uses the access category.
	Classify func(w Write) string
}

func (o Options) maxOrderings() int {
	if o.MaxOrderings <= 0 {
		return 128
	}
	return o.MaxOrderings
}

func (o Options) exhaustiveWrites() int {
	n := o.ExhaustiveWrites
	if n <= 0 {
		n = 5
	}
	if n > 12 {
		n = 12
	}
	return n
}

func (o Options) classify(w Write) string {
	if o.Classify != nil {
		return o.Classify(w)
	}
	return string(w.Cat)
}

// rng is a splitmix64 stream: the standard cheap deterministic generator
// used across the repo's fault and sampling paths.
type rng struct{ state uint64 }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// addrGroups lists, per address in first-appearance order, the ascending
// epoch-relative indices of its writes — the per-address program order
// admissibility preserves.
func addrGroups(writes []Write) [][]int {
	var groups [][]int
	var index addrmap.Map[int32] // address -> group number plus one
	for i, w := range writes {
		g := index.Ref(w.Addr)
		if *g == 0 {
			groups = append(groups, nil)
			*g = int32(len(groups))
		}
		groups[*g-1] = append(groups[*g-1], i)
	}
	return groups
}

// closure returns the smallest admissible superset of set (as a member
// bitmap): for every address, if the k-th write to it is in, so are writes
// 0..k-1 to it.
func closure(in []bool, groups [][]int) []bool {
	out := append([]bool(nil), in...)
	for _, g := range groups {
		last := -1
		for p, idx := range g {
			if out[idx] {
				last = p
			}
		}
		for p := 0; p <= last; p++ {
			out[g[p]] = true
		}
	}
	return out
}

func admissible(in []bool, groups [][]int) bool {
	for _, g := range groups {
		seen := true
		for _, idx := range g {
			if in[idx] && !seen {
				return false
			}
			seen = in[idx]
		}
	}
	return true
}

func setToApplied(in []bool) []int {
	var out []int
	for i, ok := range in {
		if ok {
			out = append(out, i)
		}
	}
	return out
}

// Orderings generates the distinct admissible orderings to explore for one
// epoch. Epochs of at most Options.ExhaustiveWrites writes are enumerated
// exhaustively (every admissible subset); larger epochs get the boundary
// orderings (nothing landed, everything landed), the per-class adversarial
// heuristics, and deterministic splitmix64-sampled permutation prefixes up
// to Options.MaxOrderings distinct states. The result is a pure function of
// (writes, opt): byte-identical on every call, at any parallelism.
func Orderings(writes []Write, opt Options) []Ordering {
	n := len(writes)
	if n == 0 {
		return nil
	}
	groups := addrGroups(writes)

	var out []Ordering
	seen := make(map[string]bool)
	add := func(o Ordering) bool {
		k := o.Key()
		if seen[k] {
			return false
		}
		seen[k] = true
		out = append(out, o)
		return true
	}

	if n <= opt.exhaustiveWrites() {
		for mask := 0; mask < 1<<n; mask++ {
			in := make([]bool, n)
			for i := 0; i < n; i++ {
				in[i] = mask&(1<<i) != 0
			}
			if !admissible(in, groups) {
				continue
			}
			add(Ordering{Kind: "exhaustive", Applied: setToApplied(in)})
		}
		return out
	}

	// Boundary states: the barrier passed but nothing landed; everything
	// landed (for the final epoch this is the completed drain).
	add(Ordering{Kind: "empty"})
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	add(Ordering{Kind: "complete", Applied: all})

	// Adversarial heuristics: for every write class present, the state
	// where only that class landed (MAC-before-data, counter-before-
	// ciphertext, vault-leaf-before-root) and the state where only that
	// class is missing (e.g. every data block landed but no MAC).
	classes := make(map[string][]bool)
	var classOrder []string
	for i, w := range writes {
		c := opt.classify(w)
		if classes[c] == nil {
			classes[c] = make([]bool, n)
			classOrder = append(classOrder, c)
		}
		classes[c][i] = true
	}
	sort.Strings(classOrder)
	for _, c := range classOrder {
		in := classes[c]
		count := 0
		for _, ok := range in {
			if ok {
				count++
			}
		}
		if count == 0 || count == n {
			continue
		}
		add(Ordering{Kind: "heur:" + c + "-only", Applied: setToApplied(closure(in, groups))})
		comp := make([]bool, n)
		for i := range comp {
			comp[i] = !in[i]
		}
		add(Ordering{Kind: "heur:" + c + "-dropped", Applied: setToApplied(closure(comp, groups))})
	}

	// Sampled permutation prefixes fill the rest of the budget.
	target := opt.maxOrderings()
	r := &rng{state: opt.Seed}
	for attempts := 0; len(out) < target && attempts < 4*target; attempts++ {
		add(sampleOne(writes, groups, r))
	}
	return out
}

// SampleOrdering draws one admissible permutation prefix of the epoch from
// the seed — the primitive behind the sampled mode, exported so the fuzzer
// can drive arbitrary seeds through the same path.
func SampleOrdering(writes []Write, seed uint64) Ordering {
	if len(writes) == 0 {
		return Ordering{Kind: "sampled"}
	}
	return sampleOne(writes, addrGroups(writes), &rng{state: seed})
}

func sampleOne(writes []Write, groups [][]int, r *rng) Ordering {
	n := len(writes)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(r.next() % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	// Coherence fix-up: within each address group, reassign the group's
	// permutation slots so its writes appear in program order. Groups are
	// disjoint, so the order they are visited in does not matter.
	inv := make([]int, n) // inv[idx] is the slot write idx was drawn into
	for p, idx := range perm {
		inv[idx] = p
	}
	var slots []int
	for _, g := range groups {
		if len(g) < 2 {
			continue
		}
		slots = slots[:0]
		for _, idx := range g {
			slots = append(slots, inv[idx])
		}
		sort.Ints(slots)
		for k, p := range slots {
			perm[p] = g[k]
		}
	}
	cut := n
	if n > 1 {
		cut = 1 + int(r.next()%uint64(n-1))
	}
	return Ordering{Kind: "sampled", Applied: append([]int(nil), perm[:cut]...)}
}

// Minimize shrinks a failing ordering: it greedily removes writes (together
// with the later same-address writes admissibility drags along) while the
// predicate still holds, returning a locally minimal applied set. still is
// called with candidate applied sets (ascending index order) and must report
// whether the failure persists; calls are capped so minimisation of an
// expensive predicate stays bounded.
func Minimize(writes []Write, applied []int, still func([]int) bool) []int {
	cur := append([]int(nil), applied...)
	sort.Ints(cur)
	budget := 256
	for i := len(cur) - 1; i >= 0 && budget > 0; i-- {
		if i >= len(cur) {
			continue
		}
		// Removing cur[i] forces removing every later same-address write.
		addr := writes[cur[i]].Addr
		var cand []int
		for _, v := range cur {
			if v < cur[i] || writes[v].Addr != addr {
				cand = append(cand, v)
			}
		}
		if len(cand) == len(cur) {
			continue
		}
		budget--
		if still(cand) {
			cur = cand
		}
	}
	return cur
}
