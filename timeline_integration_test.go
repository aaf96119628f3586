package horus

import (
	"context"
	"encoding/json"
	"sort"
	"strings"
	"testing"

	"repro/internal/report"
	"repro/internal/sim"
)

// The headline contract of the timeline subsystem: for every scheme, the
// critical-path attribution tiles the measured drain time exactly — the
// per-resource shares (including idle) sum to Result.DrainTime, picosecond
// for picosecond.
func TestAttributionTotalsEqualDrainTime(t *testing.T) {
	for _, scheme := range AllSchemes() {
		t.Run(scheme.String(), func(t *testing.T) {
			cfg := TestConfig()
			cfg.Timeline = NewTimelineRecorder(0)
			res, err := RunDrain(cfg, scheme)
			if err != nil {
				t.Fatal(err)
			}
			rec := cfg.Timeline.Recording()
			if rec.Episode != scheme.String() {
				t.Errorf("episode %q, want %q", rec.Episode, scheme)
			}
			if rec.Total != res.DrainTime {
				t.Errorf("recording total %v != drain time %v", rec.Total, res.DrainTime)
			}
			if rec.Dropped != 0 {
				t.Fatalf("recorder dropped %d events at test scale", rec.Dropped)
			}
			if len(rec.Events) == 0 {
				t.Fatal("no events recorded")
			}

			att := AnalyzeTimeline(rec)
			if got := att.AttributedTotal(); got != res.DrainTime {
				t.Errorf("attributed total %v != drain time %v", got, res.DrainTime)
			}
			var cursor sim.Time
			for i, s := range att.Steps {
				if s.From != cursor {
					t.Fatalf("step %d starts at %v, want %v (steps must tile the episode)", i, s.From, cursor)
				}
				cursor = s.To
			}
			if cursor != res.DrainTime {
				t.Fatalf("steps end at %v, want %v", cursor, res.DrainTime)
			}

			// Per-track reservations never overlap.
			byTrack := map[string][]TimelineEvent{}
			for _, e := range rec.Events {
				byTrack[e.Track] = append(byTrack[e.Track], e)
			}
			for track, evs := range byTrack {
				sort.Slice(evs, func(i, j int) bool { return evs[i].Start < evs[j].Start })
				for i := 1; i < len(evs); i++ {
					if evs[i].Start < evs[i-1].End {
						t.Fatalf("track %s: [%v,%v) overlaps [%v,%v)", track,
							evs[i].Start, evs[i].End, evs[i-1].Start, evs[i-1].End)
					}
				}
			}
		})
	}
}

// The drainer brackets the episode: warm-up and fill traffic recorded
// before Drain must not leak into the drain recording.
func TestTimelineExcludesWarmupAndFill(t *testing.T) {
	cfg := TestConfig()
	cfg.Timeline = NewTimelineRecorder(0)
	sys := NewSystem(cfg, HorusSLM)
	if err := sys.Warmup(); err != nil {
		t.Fatal(err)
	}
	warmupEvents := cfg.Timeline.Len()
	if warmupEvents == 0 {
		t.Fatal("warm-up recorded no events; the tracer is not attached")
	}
	sys.Fill()
	res, err := sys.Drain()
	if err != nil {
		t.Fatal(err)
	}
	rec := cfg.Timeline.Recording()
	for _, e := range rec.Events {
		if e.Done > res.DrainTime {
			t.Fatalf("event completes at %v, after the drain window %v", e.Done, res.DrainTime)
		}
	}
}

// Attribution must be byte-identical regardless of the sweep's parallelism
// (the engine's determinism contract extends to timelines).
func TestTimelineAttributionParallelDeterminism(t *testing.T) {
	render := func(parallel int) string {
		cfg := TestConfig()
		cfg.Timeline = NewTimelineRecorder(0)
		set, err := RunDrainSet(context.Background(), cfg, AllSchemes(),
			SweepOptions{Parallel: parallel})
		if err != nil {
			t.Fatal(err)
		}
		var atts []TimelineAttribution
		for _, s := range set.Schemes {
			rec := set.Timelines[s]
			if rec == nil {
				t.Fatalf("no timeline for %v", s)
			}
			atts = append(atts, AnalyzeTimeline(rec))
		}
		return report.AttributionTable(atts...).String()
	}
	seq, par := render(1), render(8)
	if seq != par {
		t.Errorf("attribution differs between -parallel 1 and 8:\n--- parallel=1\n%s\n--- parallel=8\n%s", seq, par)
	}
}

// Untraced runs must not be affected: the same config with and without a
// recorder produces the identical drain result.
func TestTimelineDoesNotPerturbTiming(t *testing.T) {
	cfg := TestConfig()
	plain, err := RunDrain(cfg, HorusDLM)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Timeline = NewTimelineRecorder(0)
	traced, err := RunDrain(cfg, HorusDLM)
	if err != nil {
		t.Fatal(err)
	}
	if plain.DrainTime != traced.DrainTime || plain.MemWrites.Total() != traced.MemWrites.Total() {
		t.Errorf("tracing changed the result: %v/%d vs %v/%d",
			plain.DrainTime, plain.MemWrites.Total(), traced.DrainTime, traced.MemWrites.Total())
	}
}

func TestWriteChromeTraceEndToEnd(t *testing.T) {
	cfg := TestConfig()
	cfg.Timeline = NewTimelineRecorder(0)
	if _, err := RunDrain(cfg, HorusSLM); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := WriteChromeTrace(&b, cfg.Timeline.Recording()); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(b.String()), &parsed); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	if len(parsed.TraceEvents) == 0 {
		t.Fatal("empty trace")
	}
}

// The per-episode recorders in the sweep engine publish critical-path
// counters into the merged metrics registry.
func TestSweepPublishesCriticalPathCounters(t *testing.T) {
	cfg := TestConfig()
	cfg.Metrics = NewMetricsRegistry()
	cfg.Timeline = NewTimelineRecorder(0)
	if _, err := RunDrainSet(context.Background(), cfg, []Scheme{HorusSLM}, SweepOptions{}); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := cfg.Metrics.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `horus_critical_path_ps{phase="service",resource="bank",scheme="Horus-SLM"}`) {
		t.Errorf("merged metrics lack critical-path counters:\n%s", b.String())
	}
}
