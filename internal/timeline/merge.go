package timeline

import "repro/internal/sim"

// MergeRecordings combines per-shard recordings of one episode into a single
// recording equivalent to a serial recorder having seen every reservation.
//
// Ownership rule: the sharded drain pipeline gives each shard recorder a
// disjoint set of tracks (a shard traces only the resources it owns), so
// every track's events arrive from exactly one input and keep their record
// order. The merge is a deterministic ordered concatenation — shard 0's
// events, then shard 1's, and so on — never dependent on goroutine timing.
//
// Determinism of everything downstream follows from the inputs: Analyze
// orders events under a key covering every Event field, so two events it
// cannot tell apart are identical and attribution is the same for any
// interleaving of the same event set (TestAnalyzeOrderIndependent; the
// exact-tiling invariant TestAttributionTotalsEqualDrainTime checks
// transfers to merged recordings), and the Chrome exporter walks tracks in
// sorted-name order with per-track record order preserved by the ownership
// rule.
//
// Episode metadata: the episode label comes from the first non-nil input,
// Total is the maximum input Total (every shard of one episode measures the
// same span, but a partial recorder that missed EndEpisode falls back to its
// latest event), and Dropped sums so a clipped shard still marks the merged
// attribution as a lower bound. Nil inputs are skipped; merging nothing
// returns nil.
func MergeRecordings(recs ...*Recording) *Recording {
	var out *Recording
	var events int
	for _, r := range recs {
		if r != nil {
			events += len(r.Events)
		}
	}
	for _, r := range recs {
		if r == nil {
			continue
		}
		if out == nil {
			out = &Recording{Episode: r.Episode, Events: make([]Event, 0, events)}
		}
		out.Total = sim.MaxTime(out.Total, r.Total)
		out.Dropped += r.Dropped
		out.Events = append(out.Events, r.Events...)
	}
	return out
}
