// Package probe bundles the simulator's four observe-only telemetry sinks:
// the metrics registry, the event timeline, the time-series sampler and the
// detection-forensics flight recorder. Every layer that instruments itself
// takes the whole bundle in one Attach call, and the sweep engine forks a
// fresh bundle per episode and merges it back in episode order, so the
// four sinks travel through one seam instead of four.
//
// Each sink is independently optional: a nil field is the detached fast
// path of that sink (one pointer check per event), and the zero Probe
// disables instrumentation entirely. The sinks only observe; the write
// hook that may change what commits (mem.WriteHook: fault injection, the
// litmus write recorder) is attached separately.
package probe

import (
	"repro/internal/obs"
	"repro/internal/obs/evlog"
	"repro/internal/obs/timeseries"
	"repro/internal/timeline"
)

// Probe is one episode's set of telemetry sinks.
type Probe struct {
	// Metrics, when non-nil, receives counters, utilization gauges,
	// latency histograms and lifecycle spans from every layer of the
	// simulated machine.
	Metrics *obs.Registry
	// Timeline, when non-nil, records every bank, bus and crypto-engine
	// reservation of the drain episode for Chrome-trace export and
	// critical-path attribution; the detached fast path costs one pointer
	// check per reservation.
	Timeline *timeline.Recorder
	// Timeseries, when non-nil, records windowed sim-time series during
	// the episode: per-scheme energy drawdown (and its fraction of the
	// battery budget), blocks drained per window, per-bank queue depth,
	// and run-phase op rates. Sweep grids fork a fresh per-episode sampler
	// labelled with the grid point and merge it back in episode order, so
	// output is byte-identical at any parallelism.
	Timeseries *timeseries.Sampler
	// Evlog, when non-nil, is the detection-forensics flight recorder the
	// recovery paths feed: one structured record per recovery decision
	// (check evaluated, region touched, expected-vs-got identity), the
	// trailing records of which every typed recovery error captures as its
	// provenance chain. Sweep grids fork a fresh per-episode log so
	// parallel episodes never share a ring.
	Evlog *evlog.Log
}

// Fork returns fresh sinks of the same shape for one episode: a new
// registry, a recorder with the same event limit, a sampler with the same
// window and capacity whose series all carry labels (alternating key,
// value), and a log with the same ring bound. A nil sink stays nil.
func (p Probe) Fork(labels ...string) Probe {
	var q Probe
	if p.Metrics != nil {
		q.Metrics = obs.NewRegistry()
	}
	if p.Timeline != nil {
		q.Timeline = timeline.NewRecorder(p.Timeline.Limit())
	}
	if p.Timeseries != nil {
		q.Timeseries = timeseries.New(p.Timeseries.WindowPs(), p.Timeseries.Capacity(), labels...)
	}
	if p.Evlog != nil {
		q.Evlog = evlog.New(p.Evlog.Limit())
	}
	return q
}

// Merge folds an episode's metrics and time series into p's sinks. Call it
// in episode order for deterministic output. Timelines and flight records
// stay with the episode: they describe one episode each and do not merge.
func (p Probe) Merge(q Probe) {
	p.Metrics.Merge(q.Metrics)
	p.Timeseries.Merge(q.Timeseries)
}
