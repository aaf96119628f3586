package sim

import "math"

// timeline is a single-server occupancy schedule with gap filling: a
// reservation may be placed in an earlier idle interval if one fits after
// its ready time. This models an out-of-order memory controller or a
// pipelined functional unit with a request queue: independent operations
// issued later in program order can still use earlier idle slots, which is
// what keeps the simulated drain bandwidth-bound rather than artificially
// serialised by issue order.
//
// The gap list is bounded; when it overflows, the smallest gap is dropped
// (conservative: dropped capacity is never reused, slightly over-estimating
// time).
type timeline struct {
	gaps []gap // sorted by start time
	tail Time  // end of the last reservation
	// maxLen over-estimates the longest gap's length: it is exact right
	// after a failed full scan and only ever lags by over-estimating (gap
	// shrinks, removals and evictions don't lower it). When dur exceeds
	// it no gap can fit, so reserve skips the scan; the skip can only
	// bypass a scan that would have failed, leaving placement semantics
	// untouched. The invariants property suite (invariants_test.go) pins
	// the equivalence against the naive earliest-fit oracle.
	maxLen Time
	// minLen under-estimates the shortest listed gap's length, mirroring
	// maxLen: every insert and shrink lowers it, removals leave it, and an
	// eviction refreshes it. A full list drops a new gap no longer than it
	// without the eviction scan: no listed gap can be strictly smaller,
	// which is exactly when the scan would drop the new gap too.
	minLen Time
	// The head cache: when headOK, the shortest gap among the first
	// headGaps positions is headLen long and sits at headPos (the lowest
	// position on a tie), so an eviction scans only the positions after
	// the head. An insertion or removal in the head clears headOK; a head
	// gap's shrink lowers the key in place.
	headLen Time
	headPos int32
	headOK  bool
}

type gap struct{ start, end Time }

// maxGaps bounds the per-timeline gap list.
const maxGaps = 64

// headGaps is the size of the gap list's head, the positions the head
// cache summarises. Simulated drains reserve mostly near the list's end:
// at paper scale 80% of Base-LU victims and 95% of Base-EU victims sit at
// positions 48–63, so the head rarely changes between evictions.
const headGaps = 48

// reserve books dur units starting no earlier than ready, preferring the
// earliest fitting idle gap, and returns the start time.
func (tl *timeline) reserve(ready, dur Time) Time {
	if dur < 0 {
		panic("sim: negative duration")
	}
	if dur <= tl.maxLen {
		// Gaps are disjoint and sorted by start, so their ends are sorted
		// too: gaps ending at or before ready — unusable for this request —
		// form a prefix. The common case (ready at or before the first
		// gap) costs one comparison; otherwise a binary search over the
		// ends replaces the linear skip over the stale prefix.
		i, n := 0, len(tl.gaps)
		full := true
		if n > 0 && tl.gaps[0].end <= ready {
			lo, hi := 1, n
			for lo < hi {
				h := int(uint(lo+hi) >> 1)
				if tl.gaps[h].end > ready {
					hi = h
				} else {
					lo = h + 1
				}
			}
			i, full = lo, false
		}
		for ; i < n; i++ {
			g := tl.gaps[i]
			s := MaxTime(g.start, ready)
			if s+dur > g.end {
				continue
			}
			// Split the gap around [s, s+dur).
			switch {
			case s == g.start && s+dur == g.end:
				tl.gaps = append(tl.gaps[:i], tl.gaps[i+1:]...)
				if i < headGaps {
					tl.headOK = false
				}
			case s == g.start:
				tl.gaps[i].start = s + dur
				tl.shrunk(i, g.end-s-dur)
			case s+dur == g.end:
				tl.gaps[i].end = s
				tl.shrunk(i, s-g.start)
			default:
				tl.gaps[i].end = s
				tl.shrunk(i, s-g.start)
				tl.insertGap(gap{s + dur, g.end}, i+1)
			}
			return s
		}
		if full {
			// The scan touched every gap and found no fit: refresh the
			// over-estimate to the exact maximum for free.
			var m Time
			for _, g := range tl.gaps {
				if d := g.end - g.start; d > m {
					m = d
				}
			}
			tl.maxLen = m
		}
	}
	s := MaxTime(ready, tl.tail)
	if s > tl.tail {
		tl.insertGap(gap{tl.tail, s}, len(tl.gaps))
	}
	tl.tail = s + dur
	return s
}

// shrunk records that the gap at position i is now d long.
func (tl *timeline) shrunk(i int, d Time) {
	tl.minLen = min(tl.minLen, d)
	if i < headGaps && tl.headOK && (d < tl.headLen || d == tl.headLen && int32(i) < tl.headPos) {
		tl.headLen, tl.headPos = d, int32(i)
	}
}

// scanHead refreshes the head cache from the first headGaps gaps.
func (tl *timeline) scanHead() {
	head := tl.gaps[:headGaps]
	shortest, pos := Time(math.MaxInt64), 0
	for j := range head {
		if d := head[j].end - head[j].start; d < shortest {
			shortest, pos = d, j
		}
	}
	tl.headLen, tl.headPos, tl.headOK = shortest, int32(pos), true
}

// insertGap inserts g at position i, evicting the smallest gap when full.
func (tl *timeline) insertGap(g gap, i int) {
	if g.end <= g.start {
		return
	}
	if tl.gaps == nil {
		// One allocation per timeline lifetime: the list is bounded by
		// maxGaps and reset keeps the backing array, so episode loops that
		// Reset between drains never re-grow it.
		tl.gaps = make([]gap, 0, maxGaps)
	}
	glen := g.end - g.start
	if len(tl.gaps) < maxGaps {
		tl.maxLen = max(tl.maxLen, glen)
		tl.minLen = min(tl.minLen, glen)
		if i < headGaps {
			tl.headOK = false
		}
		tl.gaps = append(tl.gaps, gap{})
		copy(tl.gaps[i+1:], tl.gaps[i:])
		tl.gaps[i] = g
		return
	}
	if glen <= tl.minLen {
		return // no listed gap is strictly smaller; drop g unscanned
	}
	// Drop the smallest gap (never this one if it is larger; the lowest
	// start on a tie). The head cache stands in for the first headGaps
	// positions, so only the rest is scanned; a gap there must be strictly
	// shorter to beat the head's, which sits at a lower position. The
	// runner-up length rides along and refreshes the minLen estimate.
	if !tl.headOK {
		tl.scanHead()
	}
	smallest, runnerUp, si := tl.headLen, Time(math.MaxInt64), int(tl.headPos)
	for j := headGaps; j < maxGaps; j++ {
		d := tl.gaps[j].end - tl.gaps[j].start
		if d < smallest {
			smallest, runnerUp, si = d, smallest, j
		} else if d < runnerUp {
			runnerUp = d
		}
	}
	if smallest >= glen {
		tl.minLen = smallest
		return // g itself is the smallest; drop it
	}
	tl.maxLen = max(tl.maxLen, glen)
	if si < headGaps {
		// The head's runner-up is unknown; the victim's length is still
		// no longer than every gap that stays.
		tl.minLen = smallest
		tl.headOK = false
	} else {
		tl.minLen = min(runnerUp, glen)
		if i < headGaps {
			tl.headOK = false
		}
	}
	// Remove the victim and insert g with one move of the gaps between.
	if si < i {
		copy(tl.gaps[si:i-1], tl.gaps[si+1:i])
		tl.gaps[i-1] = g
	} else {
		copy(tl.gaps[i+1:si+1], tl.gaps[i:si])
		tl.gaps[i] = g
	}
}

// freeAt returns the tail free time (ignoring interior gaps).
func (tl *timeline) freeAt() Time { return tl.tail }

// reset clears the schedule, keeping the gap list's backing array.
func (tl *timeline) reset() {
	tl.gaps = tl.gaps[:0]
	// headOK may stay set: refilling the list inserts below headGaps.
	tl.tail, tl.maxLen, tl.minLen = 0, 0, 0
}
