package sim

import (
	"testing"
	"testing/quick"
)

func TestTimelineBasicPacking(t *testing.T) {
	var tl timeline
	if s := tl.reserve(0, 10); s != 0 {
		t.Fatalf("first start = %v", s)
	}
	if s := tl.reserve(0, 10); s != 10 {
		t.Fatalf("second start = %v, want 10 (tail append)", s)
	}
}

func TestTimelineGapSplit(t *testing.T) {
	var tl timeline
	tl.reserve(100, 10) // creates gap [0,100)
	// Middle-of-gap placement splits into two gaps.
	if s := tl.reserve(40, 10); s != 40 {
		t.Fatalf("middle placement = %v, want 40", s)
	}
	if s := tl.reserve(0, 40); s != 0 {
		t.Fatalf("front slice = %v, want 0", s)
	}
	if s := tl.reserve(0, 50); s != 50 {
		t.Fatalf("back slice = %v, want 50", s)
	}
	// Gap is fully consumed; next goes to the tail.
	if s := tl.reserve(0, 1); s != 110 {
		t.Fatalf("tail = %v, want 110", s)
	}
}

func TestTimelineReadyInsideGap(t *testing.T) {
	var tl timeline
	tl.reserve(100, 10)
	// Ready at 95: gap [0,100) has only 5 units after ready; must not fit
	// a 10-unit reservation, so it goes to the tail.
	if s := tl.reserve(95, 10); s != 110 {
		t.Fatalf("start = %v, want 110", s)
	}
}

func TestTimelineGapOverflowDropsSmallest(t *testing.T) {
	var tl timeline
	// Create maxGaps+8 gaps of increasing size.
	at := Time(0)
	for i := 0; i < maxGaps+8; i++ {
		at += Time(i + 1) // gap of size i+1
		tl.reserve(at, 1)
		at++
	}
	if len(tl.gaps) > maxGaps {
		t.Fatalf("gap list grew to %d > %d", len(tl.gaps), maxGaps)
	}
	// The timeline must still function after overflow.
	s := tl.reserve(0, 1)
	if s < 0 {
		t.Fatal("reserve failed after overflow")
	}
}

func TestTimelineNegativeDurationPanics(t *testing.T) {
	var tl timeline
	defer func() {
		if recover() == nil {
			t.Error("negative duration did not panic")
		}
	}()
	tl.reserve(0, -1)
}

// Property: reservations never overlap and never start before ready, and
// gaps stay sorted and disjoint.
func TestTimelineInvariantProperty(t *testing.T) {
	f := func(ops []uint32) bool {
		var tl timeline
		type span struct{ s, e Time }
		var spans []span
		for _, op := range ops {
			ready := Time(op % 5000)
			dur := Time(op%37) + 1
			s := tl.reserve(ready, dur)
			if s < ready {
				return false
			}
			for _, sp := range spans {
				if s < sp.e && sp.s < s+dur {
					return false
				}
			}
			spans = append(spans, span{s, s + dur})
			// Gap list invariants.
			for i := range tl.gaps {
				if tl.gaps[i].end <= tl.gaps[i].start {
					return false
				}
				if i > 0 && tl.gaps[i].start < tl.gaps[i-1].end {
					return false
				}
				if tl.gaps[i].end > tl.tail {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// BenchmarkTimelineFullListReserve holds a full gap list steady the way a
// secure drain's bus and engines see it: 9 in 16 reservations open a new
// gap after the tail and evict, 6 are ready a little before the tail and
// land in the last gaps (splits and shrinks) or after them, and 1 fills
// one of the last 16 gaps exactly. New gaps are multiples of 1,300 units
// so that the 5,000-unit reservations rarely fill one exactly; the list
// is full after about 89% of the steps. It must report 0 allocs/op.
func BenchmarkTimelineFullListReserve(b *testing.B) {
	var tl timeline
	x := uint64(1)
	step := func() {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		r := Time(x >> 8)
		switch x % 16 {
		case 0, 1, 2, 3, 4, 5, 6, 7, 8:
			tl.reserve(tl.tail+(1+r%8)*1300, 5000)
		case 9, 10, 11, 12, 13, 14:
			tl.reserve(max(tl.tail-(r%64)*1000, 0), 5000)
		default:
			if n := len(tl.gaps); n > 0 {
				g := tl.gaps[n-1-int(r%16)%n]
				tl.reserve(g.start, g.end-g.start)
			}
		}
	}
	full := 0
	for i := 0; i < 10000; i++ {
		step()
		if len(tl.gaps) == maxGaps {
			full++
		}
	}
	if full < 8000 {
		b.Fatalf("the list was full after %d of 10000 warm-up steps, want at least 8000", full)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}
