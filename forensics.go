package horus

import (
	"errors"
	"fmt"

	"repro/internal/obs"
	"repro/internal/obs/evlog"
	"repro/internal/osiris"
	"repro/internal/recovery"
	"repro/internal/secmem"
	"repro/internal/timeline"
)

// Evlog is the detection-forensics flight recorder (re-exported from
// internal/obs/evlog): a bounded, episode-bracketed ring of structured
// records, one per recovery decision. Attach one via Config.Evlog; every
// typed recovery error then carries the trailing records as its provenance
// chain. All methods are nil-safe.
type Evlog = evlog.Log

// EvlogRecord is one recovery decision in the flight recorder.
type EvlogRecord = evlog.Record

// Forensic is the portable summary of one detection: the failing check,
// where it fired, how much data recovery had scanned, and the trailing
// provenance chain. Render one or more with report.ForensicTable.
type Forensic = evlog.Forensic

// NewEvlog returns a flight recorder retaining at most limit records
// (0 selects the default bound).
func NewEvlog(limit int) *Evlog { return evlog.New(limit) }

// WriteEvlogJSONL writes flight-recorder records as JSON lines.
func WriteEvlogJSONL(w interface{ Write([]byte) (int, error) }, recs ...EvlogRecord) error {
	return evlog.WriteJSONL(w, recs...)
}

// ForensicFromError distills a typed detection error into a Forensic,
// stamped with the recovery phase that raised it ("CHV recovery",
// "metadata vault", "baseline recovery", "post-recovery read"). Untyped
// errors still produce a Forensic carrying the message, so a forensic
// report never comes back empty-handed; nil errors return nil.
func ForensicFromError(err error, phase string) *Forensic {
	if err == nil {
		return nil
	}
	var re *recovery.Error
	if errors.As(err, &re) {
		f := &Forensic{Phase: phase, Check: re.Check, Region: re.Region,
			Addr: re.Addr, Slot: re.Slot, Expected: re.Expected, Got: re.Got,
			BlocksScanned: re.BlocksScanned, DetectLatencyPs: re.DetectLatencyPs,
			Detail: re.Detail, Chain: re.Chain}
		if f.Check == "" {
			// Errors built before the instrumentation (or by tests) still
			// name the generic verification category.
			f.Check = recovery.MACRecoveryVerify
		}
		return f
	}
	var oe *osiris.Error
	if errors.As(err, &oe) {
		f := &Forensic{Phase: phase, Check: oe.Check, Region: oe.Region,
			Addr: oe.Addr, Expected: oe.Expected,
			BlocksScanned: oe.BlocksScanned, DetectLatencyPs: oe.DetectLatencyPs,
			Detail: oe.Detail, Chain: oe.Chain}
		if f.Check == "" {
			f.Check = "osiris-counter-trial"
		}
		return f
	}
	var ie *secmem.IntegrityError
	if errors.As(err, &ie) {
		return &Forensic{Phase: phase, Check: "secmem-" + ie.Kind.String(),
			Region: "runtime", Addr: ie.Addr,
			Detail: fmt.Sprintf("level %d index %d: %s", ie.Level, ie.Index, ie.Detail)}
	}
	return &Forensic{Phase: phase, Detail: err.Error()}
}

// publishDetectLatency records one detection's latency under its scheme and
// corruption model: the blocks recovery had verified, and the phase-local
// simulated time, when the failing check fired. The torture matrix and the
// litmus checker both publish through it, so they share one help text.
func publishDetectLatency(reg *obs.Registry, scheme Scheme, model string, f *Forensic) {
	reg.SetHelp("horus_recovery_detect_latency_blocks",
		"Blocks recovery had verified before a corruption check fired, by scheme and corruption model.")
	reg.SetHelp("horus_recovery_detect_latency_ps",
		"Phase-local simulated time at which a corruption check fired, picoseconds, by scheme and corruption model.")
	reg.Histogram("horus_recovery_detect_latency_blocks", obs.CountBuckets,
		"scheme", scheme.String(), "model", model).Observe(float64(f.BlocksScanned))
	reg.Histogram("horus_recovery_detect_latency_ps", obs.LatencyBuckets,
		"scheme", scheme.String(), "model", model).Observe(float64(f.DetectLatencyPs))
}

// Timelines returns the captured recovery-path recordings in execution
// order (vault restore before CHV read-back); empty when no recorder was
// attached. Each recording is an independent phase-local episode, so
// AnalyzeTimeline on each tiles exactly its path's recovery time, and
// WriteChromeTrace accepts the whole slice.
func (r RecoveryReport) Timelines() []*TimelineRecording {
	var out []*TimelineRecording
	if r.Baseline != nil && r.Baseline.Timeline != nil {
		out = append(out, r.Baseline.Timeline)
	}
	if r.Horus != nil && r.Horus.Timeline != nil {
		out = append(out, r.Horus.Timeline)
	}
	return out
}

// Attributions analyzes every captured recovery-path recording; render
// them with report.AttributionTableTitled("Recovery critical path by
// binding resource", "(recovery time)", ...).
func (r RecoveryReport) Attributions() []TimelineAttribution {
	var out []TimelineAttribution
	for _, rec := range r.Timelines() {
		out = append(out, timeline.Analyze(rec))
	}
	return out
}
