package sim

import (
	"math/rand"
	"slices"
	"testing"
)

// headEvents counts the gap-list events that touch timeline's head cache
// (the shortest gap among the first headGaps positions). Each is a way the
// cached key can go stale or must move, so a sequence that reaches them
// all, checked op by op against boundedModel, pins every update.
type headEvents struct {
	removals     int // exact-fit removal below headGaps
	inserts      int // insertion below headGaps into a list that is not full
	shrinks      int // a gap below headGaps shrinks in place
	headVictims  int // eviction whose victim sits below headGaps
	evictInserts int // eviction of a later gap whose new gap lands below headGaps
	refills      int // the list fell below headGaps gaps and filled up again
	low          bool
}

// observe classifies one reserve(ready, dur) from the gap list and tail
// before it and the gap list after it.
func (ev *headEvents) observe(before, after []gap, tail, ready, dur Time) {
	var added gap
	at := -1 // position the new gap is inserted at, before any eviction
	kept := append([]gap(nil), before...)
	fit := -1
	for j, g := range before {
		if MaxTime(g.start, ready)+dur <= g.end {
			fit = j
			break
		}
	}
	if fit >= 0 {
		g := before[fit]
		s := MaxTime(g.start, ready)
		front, back := gap{g.start, s}, gap{s + dur, g.end}
		switch {
		case front.end == front.start && back.end == back.start:
			if fit < headGaps {
				ev.removals++
			}
		case front.end == front.start || back.end == back.start:
			if fit < headGaps {
				ev.shrinks++
			}
		default:
			if fit < headGaps {
				ev.shrinks++
			}
			kept[fit] = front
			added, at = back, fit+1
		}
	} else if ready > tail {
		added, at = gap{tail, ready}, len(before)
	}
	if at >= 0 {
		if len(before) < maxGaps {
			if at < headGaps {
				ev.inserts++
			}
		} else if pos := slices.Index(after, added); pos >= 0 {
			// Not dropped, so exactly one listed gap was evicted.
			victim := slices.IndexFunc(kept, func(g gap) bool { return !slices.Contains(after, g) })
			switch {
			case victim < headGaps:
				ev.headVictims++
			case pos < headGaps:
				ev.evictInserts++
			}
		}
	}
	if len(after) < headGaps {
		ev.low = true
	} else if ev.low && len(after) == maxGaps {
		ev.low = false
		ev.refills++
	}
}

// reached reports whether every counted event fired at least once.
func (ev *headEvents) reached() bool {
	return ev.removals > 0 && ev.inserts > 0 && ev.shrinks > 0 &&
		ev.headVictims > 0 && ev.evictInserts > 0 && ev.refills > 0
}

// headCacheOps generates a reserve sequence in FuzzTimelineReserve's byte
// encoding (ready = 17*b, dur = d%40+1) that works the head cache: it
// fills the list, mixes new tail gaps (evictions) with exact fits, shrinks
// and splits aimed at chosen gaps in and after the head, drains the list
// below headGaps with exact fits and fills it again.
func headCacheOps(rng *rand.Rand) []byte {
	var m boundedModel
	var out []byte
	emit := func(b int, dur Time) {
		out = append(out, byte(b), byte(dur-1))
		m.reserve(Time(b)*17, dur)
	}
	// late opens a new gap after the tail, if the encoding still reaches.
	late := func() bool {
		b := int(m.tail/17) + 1 + rng.Intn(2)
		if b > 255 {
			return false
		}
		emit(b, Time(1+rng.Intn(6)))
		return true
	}
	// hit places a reservation in gap j: an exact fit when asked for and
	// possible, otherwise a shrink or a split. tiny leaves a one-unit gap
	// behind the reservation; split leaves at least two units either side.
	const anyFit, exactFit, tiny, split = 0, 1, 2, 3
	hit := func(j, mode int) {
		g, lo := m.gaps[j], Time(0)
		if j > 0 {
			lo = m.gaps[j-1].end
		}
		// Grid points in [lo, g.start] start at g.start; later ones split.
		first := int((lo + 16) / 17)
		if mode == exactFit && Time(first)*17 <= g.start && g.end-g.start <= 40 {
			emit(first, g.end-g.start)
			return
		}
		var bs []int
		for b := first; Time(b)*17 < g.end && b <= 255; b++ {
			if mode != split || Time(b)*17 >= g.start+2 && Time(b)*17+3 <= g.end {
				bs = append(bs, b)
			}
		}
		if len(bs) == 0 {
			return
		}
		b := bs[rng.Intn(len(bs))]
		s := MaxTime(g.start, Time(b)*17)
		switch room := min(g.end-s, 40); {
		case mode == tiny && g.end-s > 1 && g.end-s <= 41:
			emit(b, g.end-s-1)
		case mode == split:
			emit(b, 1+Time(rng.Int63n(int64(min(g.end-s-2, 40)))))
		default:
			emit(b, 1+Time(rng.Int63n(int64(room))))
		}
	}
	for (len(m.gaps) < maxGaps || rng.Intn(8) != 0) && late() {
	}
	for op := 0; op < 120; op++ {
		switch r := rng.Intn(10); {
		case r < 4:
			late()
		case r < 7 && len(m.gaps) > 0:
			hit(rng.Intn(min(headGaps, len(m.gaps))), rng.Intn(2))
		case len(m.gaps) > headGaps:
			hit(headGaps+rng.Intn(len(m.gaps)-headGaps), rng.Intn(3))
			if r == 9 {
				// A split in the head while the shortest gap is later.
				hit(rng.Intn(headGaps), split)
			}
		}
	}
	for tries := 0; len(m.gaps) >= headGaps-4 && tries < 400; tries++ {
		hit(rng.Intn(len(m.gaps)), exactFit)
	}
	for len(out) < 1000 && late() {
		if rng.Intn(4) == 0 && len(m.gaps) > 0 {
			hit(rng.Intn(len(m.gaps)), rng.Intn(3))
		}
	}
	return out
}

// runEncoded replays a FuzzTimelineReserve input against boundedModel and
// counts its head-cache events.
func runEncoded(t *testing.T, data []byte, ev *headEvents) {
	t.Helper()
	var tl timeline
	var m boundedModel
	for i := 0; i+1 < len(data) && i < 1000; i += 2 {
		ready, dur := Time(data[i])*17, Time(data[i+1]%40)+1
		before, tail := append([]gap(nil), m.gaps...), m.tail
		checkAgainstModel(t, &tl, &m, i/2, ready, dur)
		ev.observe(before, m.gaps, tail, ready, dur)
	}
}

// TestTimelineHeadCacheEvents drives generated sequences that reach every
// event that moves or invalidates the head cache, checking each step
// against boundedModel: placement, tail and the exact gap list.
func TestTimelineHeadCacheEvents(t *testing.T) {
	var all headEvents
	for seed := int64(0); seed < 64; seed++ {
		runEncoded(t, headCacheOps(rand.New(rand.NewSource(seed))), &all)
	}
	if !all.reached() {
		t.Fatalf("weak sequences: %+v", all)
	}
	t.Logf("%+v", all)
	var seed headEvents
	runEncoded(t, headCacheOps(rand.New(rand.NewSource(headCacheFuzzSeed))), &seed)
	if !seed.reached() {
		t.Fatalf("the fuzz seed misses an event: %+v", seed)
	}
}

// headCacheFuzzSeed picks the headCacheOps sequence FuzzTimelineReserve
// starts from. TestTimelineHeadCacheEvents checks it reaches every event;
// it is also a sequence that, on its own, fails against boundedModel when
// any one head-cache update is taken out of timeline.go.
const headCacheFuzzSeed = 49
