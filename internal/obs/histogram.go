package obs

import (
	"fmt"
	"math"
	"sync"
)

// Histogram is a fixed-bucket histogram over float64 observations with an
// implicit +Inf overflow bucket, tracking sum, count, min and max for
// quantile estimation. Observations are typically simulated durations in
// picoseconds, utilisation fractions, or queue depths.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // upper bounds (inclusive), sorted ascending
	counts []int64   // len(bounds)+1; last is the +Inf bucket
	count  int64
	sum    float64
	min    float64
	max    float64
}

// NewHistogram returns a histogram with the given bucket upper bounds
// (sorted ascending; a copy is taken). Nil or empty bounds yield a
// single +Inf bucket, which still tracks count/sum/min/max.
func NewHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not strictly ascending at %d (%g <= %g)", i, b[i], b[i-1]))
		}
	}
	return &Histogram{bounds: b, counts: make([]int64, len(b)+1)}
}

// Observe records one value. No-op on nil.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.counts[h.bucketOf(v)]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
}

// bucketOf returns the index of the bucket v falls into (bounds are
// inclusive upper bounds; the last index is +Inf).
func (h *Histogram) bucketOf(v float64) int {
	// Binary search for the first bound >= v.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] >= v {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Count returns the number of observations (zero on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of observations (zero on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Min returns the smallest observation (zero with no observations).
func (h *Histogram) Min() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.min
}

// Max returns the largest observation (zero with no observations).
func (h *Histogram) Max() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

// Bounds returns a copy of the bucket upper bounds (nil on nil).
func (h *Histogram) Bounds() []float64 {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]float64(nil), h.bounds...)
}

// Counts returns a copy of the per-bucket counts, the last entry being the
// +Inf bucket (nil on nil).
func (h *Histogram) Counts() []int64 {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]int64(nil), h.counts...)
}

// Quantile estimates the q-quantile (0 <= q <= 1) by linear interpolation
// within the bucket holding the target rank, clamped to the observed
// [min, max] range so the +Inf bucket never yields infinity. Returns zero
// with no observations, or NaN for q outside [0, 1].
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		return math.NaN()
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	rank := q * float64(h.count)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next < rank {
			cum = next
			continue
		}
		// The target rank lands in bucket i: interpolate across it.
		lo := h.min
		if i > 0 {
			lo = math.Max(h.min, h.bounds[i-1])
		}
		hi := h.max
		if i < len(h.bounds) {
			hi = math.Min(h.max, h.bounds[i])
		}
		if hi < lo {
			hi = lo
		}
		frac := (rank - cum) / float64(c)
		return lo + (hi-lo)*frac
	}
	return h.max
}

// Merge adds other's observations into h. The bucket bounds must match
// exactly; otherwise an error is returned and h is unchanged. Merge is
// commutative and associative over histograms with equal bounds, which is
// what lets bank-parallel recovery chains each record into a private
// histogram and fold the results. Nil receiver or nil other are no-ops.
func (h *Histogram) Merge(other *Histogram) error {
	if h == nil || other == nil {
		return nil
	}
	if h == other {
		return fmt.Errorf("obs: histogram cannot merge with itself")
	}
	other.mu.Lock()
	ob := append([]float64(nil), other.bounds...)
	oc := append([]int64(nil), other.counts...)
	ocount, osum, omin, omax := other.count, other.sum, other.min, other.max
	other.mu.Unlock()

	h.mu.Lock()
	defer h.mu.Unlock()
	if len(ob) != len(h.bounds) {
		return fmt.Errorf("obs: histogram bound count mismatch (%d vs %d)", len(h.bounds), len(ob))
	}
	for i := range ob {
		if ob[i] != h.bounds[i] {
			return fmt.Errorf("obs: histogram bound %d mismatch (%g vs %g)", i, h.bounds[i], ob[i])
		}
	}
	if ocount == 0 {
		return nil
	}
	for i := range oc {
		h.counts[i] += oc[i]
	}
	if h.count == 0 || omin < h.min {
		h.min = omin
	}
	if h.count == 0 || omax > h.max {
		h.max = omax
	}
	h.count += ocount
	h.sum += osum
	return nil
}

// LinearBuckets returns n upper bounds start, start+width, ...
func LinearBuckets(start, width float64, n int) []float64 {
	if n <= 0 || width <= 0 {
		panic("obs: LinearBuckets needs n > 0 and width > 0")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(i)*width
	}
	return out
}

// ExpBuckets returns n upper bounds start, start*factor, start*factor^2...
func ExpBuckets(start, factor float64, n int) []float64 {
	if n <= 0 || start <= 0 || factor <= 1 {
		panic("obs: ExpBuckets needs n > 0, start > 0 and factor > 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Default bucket sets for the simulator's three histogram families.
var (
	// LatencyBuckets covers simulated durations in picoseconds from 1 ns
	// to ~1 s in powers of four (wait times, access latencies).
	LatencyBuckets = ExpBuckets(1e3, 4, 16)
	// UtilizationBuckets covers busy fractions 0..1 in 5% steps.
	UtilizationBuckets = LinearBuckets(0.05, 0.05, 19)
	// DepthBuckets covers queue depths in powers of two.
	DepthBuckets = []float64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256}
	// CountBuckets covers event counts (blocks scanned before a detection
	// fired, trials run) from 1 to 32768 in powers of two.
	CountBuckets = ExpBuckets(1, 2, 16)
)
