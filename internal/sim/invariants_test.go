package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// ivTracer captures every reservation for invariant checking.
type ivTracer struct {
	ivs []struct{ ready, start, end, done Time }
}

func (t *ivTracer) OnReserve(_, _ string, ready, start, end, done Time) {
	t.ivs = append(t.ivs, struct{ ready, start, end, done Time }{ready, start, end, done})
}

// naiveReserve is the reference gap-filling model: given all intervals
// reserved so far, the earliest start >= ready whose [start, start+dur)
// intersects none of them. O(n^2) overall and unbounded, unlike the
// production timeline's bounded gap list.
func naiveReserve(ivs [][2]Time, ready, dur Time) Time {
	// Candidate starts: ready itself and the end of every earlier interval.
	cands := []Time{ready}
	for _, iv := range ivs {
		if iv[1] >= ready {
			cands = append(cands, iv[1])
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i] < cands[j] })
	for _, s := range cands {
		if s < ready {
			continue
		}
		ok := true
		for _, iv := range ivs {
			if s < iv[1] && iv[0] < s+dur {
				ok = false
				break
			}
		}
		if ok {
			return s
		}
	}
	panic("unreachable: placing after the last interval always fits")
}

// checkTiling asserts the invariants shared by every acquire sequence:
// wait >= 0 per op, reservations never overlap, and busy + idle exactly
// tile [0, FreeAt): the sum of reservation lengths plus the uncovered time
// equals the span, with every reservation inside it.
func checkTiling(t *testing.T, tr *ivTracer, busy, wait Time, freeAt Time) {
	t.Helper()
	var sumDur, sumWait Time
	for _, iv := range tr.ivs {
		if iv.start < iv.ready {
			t.Fatalf("reservation started at %v before ready %v", iv.start, iv.ready)
		}
		sumWait += iv.start - iv.ready
		sumDur += iv.end - iv.start
		if iv.end > freeAt {
			t.Fatalf("reservation [%v, %v) extends past FreeAt %v", iv.start, iv.end, freeAt)
		}
	}
	if sumWait < 0 {
		t.Fatalf("negative cumulative wait %v", sumWait)
	}
	if wait != sumWait {
		t.Fatalf("WaitTime = %v, per-op sum = %v", wait, sumWait)
	}
	if busy != sumDur {
		t.Fatalf("BusyTime = %v, reservation-length sum = %v", busy, sumDur)
	}
	// Zero-length reservations occupy no time and may share a boundary with
	// a real one; only positive-length intervals can overlap.
	sorted := make([]struct{ ready, start, end, done Time }, 0, len(tr.ivs))
	for _, iv := range tr.ivs {
		if iv.end > iv.start {
			sorted = append(sorted, iv)
		}
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].start < sorted[j].start })
	for i := 1; i < len(sorted); i++ {
		if sorted[i].start < sorted[i-1].end {
			t.Fatalf("reservations overlap: [%v,%v) then [%v,%v)",
				sorted[i-1].start, sorted[i-1].end, sorted[i].start, sorted[i].end)
		}
	}
	idle := freeAt - sumDur
	if idle < 0 {
		t.Fatalf("busy %v exceeds span [0, %v)", sumDur, freeAt)
	}
	// Idle computed from the interval structure must agree: span minus
	// covered time, where covered time is the non-overlapping sum above.
	var covered Time
	for _, iv := range sorted {
		covered += iv.end - iv.start
	}
	if covered+idle != freeAt {
		t.Fatalf("busy (%v) + idle (%v) != FreeAt (%v)", covered, idle, freeAt)
	}
}

// TestResourceGapFillingProperties drives random acquire sequences through
// a Resource and checks (a) the shared tiling/wait invariants and (b) exact
// agreement with the naive unbounded re-simulation. Sequences are capped at
// maxGaps ops so the bounded gap list can never evict, making the naive
// model an exact oracle, not just a bound.
func TestResourceGapFillingProperties(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := NewResource("bank")
		tr := &ivTracer{}
		r.SetTracer("bank", tr)

		var naive [][2]Time
		n := 1 + rng.Intn(maxGaps)
		for op := 0; op < n; op++ {
			// Durations stay positive: the production timeline places a
			// zero-length op at the next gap/tail boundary while the naive
			// model admits it anywhere, and no simulated op is zero-length.
			ready := Time(rng.Intn(4000))
			dur := Time(1 + rng.Intn(300))
			wantStart := naiveReserve(naive, ready, dur)
			start, done := r.Acquire(ready, dur)
			if start != wantStart {
				t.Fatalf("seed %d op %d: Acquire(ready=%v, dur=%v) started at %v, naive model says %v",
					seed, op, ready, dur, start, wantStart)
			}
			if done != start+dur {
				t.Fatalf("seed %d op %d: done %v != start %v + dur %v", seed, op, done, start, dur)
			}
			naive = append(naive, [2]Time{start, start + dur})
		}
		checkTiling(t, tr, r.BusyTime(), r.WaitTime(), r.FreeAt())
		if r.Ops() != int64(n) {
			t.Fatalf("seed %d: ops = %d, want %d", seed, r.Ops(), n)
		}
	}
}

// TestResourceGapFillingLongSequences keeps the tiling/wait invariants over
// sequences long enough to overflow the bounded gap list (where dropped
// gaps may only waste time, never cause overlap or negative wait).
func TestResourceGapFillingLongSequences(t *testing.T) {
	for seed := int64(100); seed < 104; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := NewResource("bank")
		tr := &ivTracer{}
		r.SetTracer("bank", tr)
		for op := 0; op < 2000; op++ {
			ready := Time(rng.Intn(1 << 20))
			dur := Time(rng.Intn(500))
			r.Acquire(ready, dur)
		}
		checkTiling(t, tr, r.BusyTime(), r.WaitTime(), r.FreeAt())
	}
}

// TestEngineGapFillingProperties checks the pipelined engine against the
// same naive model over its issue slots: slots of II width never overlap,
// wait matches the per-op structural-hazard sum, busy is II per op, and
// LastDone is the max completion.
func TestEngineGapFillingProperties(t *testing.T) {
	const latency, ii = 160, 82
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine("mac", latency, ii)
		tr := &ivTracer{}
		e.SetTracer("mac", tr)

		var naive [][2]Time
		var wantLast Time
		n := 1 + rng.Intn(maxGaps)
		for op := 0; op < n; op++ {
			ready := Time(rng.Intn(8000))
			wantStart := naiveReserve(naive, ready, ii)
			done := e.Issue(ready)
			if done != wantStart+latency {
				t.Fatalf("seed %d op %d: Issue(ready=%v) done %v, naive model says %v",
					seed, op, ready, done, wantStart+latency)
			}
			naive = append(naive, [2]Time{wantStart, wantStart + ii})
			if done > wantLast {
				wantLast = done
			}
		}
		if e.LastDone() != wantLast {
			t.Fatalf("seed %d: LastDone %v, want %v", seed, e.LastDone(), wantLast)
		}
		if e.BusyTime() != Time(n)*ii {
			t.Fatalf("seed %d: BusyTime %v, want %v", seed, e.BusyTime(), Time(n)*ii)
		}
		// Issue slots tile like resource reservations; completion tails
		// (done > end) legitimately overlap and are excluded by using the
		// recorded end (start + II).
		checkTiling(t, tr, e.BusyTime(), e.WaitTime(), e.tl.freeAt())
	}
}

// TestEngineCombinationalIssue pins the II == 0 contract: issue is
// unconstrained, start == ready, no wait, no busy time.
func TestEngineCombinationalIssue(t *testing.T) {
	e := NewEngine("aes", 40, 0)
	for i := 0; i < 10; i++ {
		ready := Time(i * 3)
		if done := e.Issue(ready); done != ready+40 {
			t.Fatalf("combinational Issue(%v) = %v, want %v", ready, done, ready+40)
		}
	}
	if e.WaitTime() != 0 || e.BusyTime() != 0 {
		t.Fatalf("combinational engine accumulated wait %v busy %v", e.WaitTime(), e.BusyTime())
	}
}

// boundedModel is the reference for the production timeline, bounded gap
// list included: the same earliest-fit placement, written for clarity with
// none of reserve's shortcuts (no maxLen skip, no
// binary search, no in-place splits). Its eviction rule is the contract:
// a new gap that does not fit evicts the smallest listed gap, the lowest
// start winning a tie between equal lengths, and is itself dropped when no
// listed gap is strictly smaller.
type boundedModel struct {
	gaps []gap // sorted by start
	tail Time

	evictions, ties, drops int // how often each eviction case fired
}

func (m *boundedModel) reserve(ready, dur Time) Time {
	for i, g := range m.gaps {
		s := MaxTime(g.start, ready)
		if s+dur > g.end {
			continue
		}
		m.gaps = append(m.gaps[:i:i], m.gaps[i+1:]...)
		m.add(gap{g.start, s})
		m.add(gap{s + dur, g.end})
		return s
	}
	s := MaxTime(ready, m.tail)
	m.add(gap{m.tail, s})
	m.tail = s + dur
	return s
}

func (m *boundedModel) add(g gap) {
	if g.end <= g.start {
		return
	}
	length := func(g gap) Time { return g.end - g.start }
	if len(m.gaps) == maxGaps {
		victim := 0
		for i, h := range m.gaps {
			v := m.gaps[victim]
			if length(h) < length(v) || (length(h) == length(v) && h.start < v.start) {
				victim = i
			}
		}
		if length(m.gaps[victim]) >= length(g) {
			m.drops++
			return
		}
		m.evictions++
		for i, h := range m.gaps {
			if i != victim && length(h) == length(m.gaps[victim]) {
				m.ties++
				break
			}
		}
		m.gaps = append(m.gaps[:victim:victim], m.gaps[victim+1:]...)
	}
	m.gaps = append(m.gaps, g)
	sort.Slice(m.gaps, func(i, j int) bool { return m.gaps[i].start < m.gaps[j].start })
}

// checkAgainstModel reserves on both, fails on the first divergence in
// start time, tail or gap list, and returns the start.
func checkAgainstModel(t *testing.T, tl *timeline, m *boundedModel, op int, ready, dur Time) Time {
	t.Helper()
	got, want := tl.reserve(ready, dur), m.reserve(ready, dur)
	if got != want {
		t.Fatalf("op %d: reserve(ready=%v, dur=%v) = %v, bounded model says %v", op, ready, dur, got, want)
	}
	if tl.tail != m.tail || len(tl.gaps) != len(m.gaps) {
		t.Fatalf("op %d: tail %v / %d gaps, bounded model has tail %v / %d gaps", op, tl.tail, len(tl.gaps), m.tail, len(m.gaps))
	}
	for i := range tl.gaps {
		if tl.gaps[i] != m.gaps[i] {
			t.Fatalf("op %d: gap %d is %v, bounded model has %v", op, i, tl.gaps[i], m.gaps[i])
		}
	}
	return got
}

// TestTimelineBoundedEvictionModel drives reserve through long sequences
// that keep the gap list full and checks every step against boundedModel:
// placement, tail and the exact gap list, so every eviction choice —
// including which of two equal gaps goes — is pinned. Times sit on a
// coarse grid so equal-length gaps, and therefore ties, are common.
func TestTimelineBoundedEvictionModel(t *testing.T) {
	const ops = 25000
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var tl timeline
		var m boundedModel
		full := 0
		for op := 0; op < ops; op++ {
			dur := Time(1+rng.Intn(3)) * 10
			var ready Time
			if rng.Intn(3) == 0 {
				// Early: lands in one of the listed gaps or behind them.
				ready = m.tail - Time(rng.Intn(400))*10
				if ready < 0 {
					ready = 0
				}
			} else {
				// Late: opens a new gap after the tail.
				ready = m.tail + Time(1+rng.Intn(8))*10
			}
			checkAgainstModel(t, &tl, &m, op, ready, dur)
			if len(tl.gaps) == maxGaps {
				full++
			}
		}
		if full < ops*9/10 || m.ties == 0 || m.drops == 0 || m.evictions == 0 {
			t.Fatalf("seed %d: weak sequence: list full on %d/%d ops, %d evictions (%d ties), %d drops",
				seed, full, ops, m.evictions, m.ties, m.drops)
		}
		t.Logf("seed %d: list full on %d/%d ops, %d evictions (%d with a tie), %d dropped new gaps",
			seed, full, ops, m.evictions, m.ties, m.drops)
	}
}
