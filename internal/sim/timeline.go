package sim

import (
	"math"
	"sort"
)

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
	// after an eviction scan or a failed full scan and only ever lags by
	// over-estimating (gap shrinks don't lower it). When dur exceeds it no
	// gap can fit, so reserve skips the scan; the skip can only bypass a
	// scan that would have failed, leaving placement semantics untouched.
	// The invariants property suite (invariants_test.go) pins the
	// equivalence against the naive earliest-fit oracle.
	maxLen Time
	// minLen under-estimates the shortest listed gap's length, mirroring
	// maxLen: it is exact right after an eviction scan and only ever lags
	// by under-estimating (every insert and shrink lowers it; removals
	// leave it). A full list drops a new gap no longer than it without
	// the eviction scan: no listed gap can be strictly smaller, which is
	// exactly when the scan would drop the new gap too.
	minLen Time
}

type gap struct{ start, end Time }

// maxGaps bounds the per-timeline gap list.
const maxGaps = 64

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
		// gap) costs one comparison; otherwise a binary search replaces the
		// linear skip over the stale prefix.
		i, n := 0, len(tl.gaps)
		full := true
		if n > 0 && tl.gaps[0].end <= ready {
			i = sort.Search(n, func(j int) bool { return tl.gaps[j].end > ready })
			full = false
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
			case s == g.start:
				tl.gaps[i].start = s + dur
				tl.minLen = min(tl.minLen, g.end-s-dur)
			case s+dur == g.end:
				tl.gaps[i].end = s
				tl.minLen = min(tl.minLen, s-g.start)
			default:
				tl.gaps[i].end = s
				tl.minLen = min(tl.minLen, s-g.start)
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
	if len(tl.gaps) >= maxGaps {
		if glen <= tl.minLen {
			return // no listed gap is strictly smaller; drop g unscanned
		}
		// Drop the smallest gap (never this one if it is larger; the
		// lowest start on a tie). The scan already touches every gap, so
		// the exact longest and the two shortest lengths ride along and
		// refresh the maxLen and minLen estimates.
		smallest, runnerUp, si := Time(math.MaxInt64), Time(math.MaxInt64), -1
		var largest Time
		for j := range tl.gaps {
			d := tl.gaps[j].end - tl.gaps[j].start
			if d < smallest {
				smallest, runnerUp, si = d, smallest, j
			} else if d < runnerUp {
				runnerUp = d
			}
			if d > largest {
				largest = d
			}
		}
		if smallest >= glen {
			tl.maxLen, tl.minLen = largest, smallest
			return // g itself is the smallest; drop it
		}
		if si < i {
			i--
		}
		tl.gaps = append(tl.gaps[:si], tl.gaps[si+1:]...)
		tl.maxLen, tl.minLen = max(largest, glen), min(runnerUp, glen)
	} else {
		tl.maxLen = max(tl.maxLen, glen)
		tl.minLen = min(tl.minLen, glen)
	}
	tl.gaps = append(tl.gaps, gap{})
	copy(tl.gaps[i+1:], tl.gaps[i:])
	tl.gaps[i] = g
}

// freeAt returns the tail free time (ignoring interior gaps).
func (tl *timeline) freeAt() Time { return tl.tail }

// reset clears the schedule, keeping the gap list's backing array.
func (tl *timeline) reset() { tl.gaps = tl.gaps[:0]; tl.tail = 0; tl.maxLen = 0; tl.minLen = 0 }
