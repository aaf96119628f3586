package sim

import (
	"math/rand"
	"testing"
)

// FuzzTimelineReserve drives the gap-filling scheduler with arbitrary
// (ready, duration) sequences and checks the structural invariants — no
// reservation starts before its ready time, reservations never overlap,
// and the gap list stays sorted, positive-length and below the tail — plus
// exact agreement with boundedModel, eviction choices included.
func FuzzTimelineReserve(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 200, 5, 0, 50})
	f.Add([]byte{255, 255, 0, 0, 128, 7})
	// Over maxGaps equal gaps, then early requests that split them: the
	// list fills, ties between equal lengths decide every eviction.
	var fill []byte
	for k := 0; k < 120; k++ {
		fill = append(fill, byte(2*k), 0)
	}
	for k := 0; k < 40; k++ {
		fill = append(fill, byte(7*k), byte(k))
	}
	f.Add(fill)
	// Every event that moves or invalidates the head cache (see
	// TestTimelineHeadCacheEvents).
	f.Add(headCacheOps(rand.New(rand.NewSource(headCacheFuzzSeed))))
	f.Fuzz(func(t *testing.T, data []byte) {
		var tl timeline
		var m boundedModel
		type span struct{ s, e Time }
		var spans []span
		for i := 0; i+1 < len(data) && i < 1000; i += 2 {
			ready := Time(data[i]) * 17
			dur := Time(data[i+1]%40) + 1
			s := checkAgainstModel(t, &tl, &m, i/2, ready, dur)
			if s < ready {
				t.Fatalf("started %v before ready %v", s, ready)
			}
			for _, sp := range spans {
				if s < sp.e && sp.s < s+dur {
					t.Fatalf("overlap: [%v,%v) with [%v,%v)", s, s+dur, sp.s, sp.e)
				}
			}
			spans = append(spans, span{s, s + dur})
			for j := range tl.gaps {
				g := tl.gaps[j]
				if g.end <= g.start {
					t.Fatal("degenerate gap")
				}
				if g.end > tl.tail {
					t.Fatal("gap beyond tail")
				}
				if j > 0 && g.start < tl.gaps[j-1].end {
					t.Fatal("gaps out of order or overlapping")
				}
			}
		}
	})
}
