package horus

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// renderFig6 runs Fig. 6 through the episode engine at the given worker
// count and returns the rendered table plus the merged metrics snapshot.
func renderFig6(t testing.TB, workers int) (string, string) {
	t.Helper()
	cfg := TestConfig()
	cfg.Metrics = NewMetricsRegistry()
	ds, err := RunDrainSet(context.Background(), cfg, Fig6Schemes(), SweepOptions{Parallel: workers})
	if err != nil {
		t.Fatal(err)
	}
	f6 := ds.Fig6()
	var b strings.Builder
	if err := cfg.Metrics.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return f6.Table().String(), b.String()
}

// renderLLCSweep runs the Fig. 14/15 LLC sweep through the engine at the
// given worker count and returns both rendered tables plus merged metrics.
func renderLLCSweep(t testing.TB, workers int) (string, string) {
	t.Helper()
	cfg := TestConfig()
	cfg.Metrics = NewMetricsRegistry()
	// Small LLC points keep the grid fast enough for the -race CI step while
	// still interleaving sizes and schemes across workers.
	sizes := []int{1 << 20, 2 << 20}
	sw, err := RunLLCSweep(context.Background(), cfg, sizes,
		[]Scheme{BaseLU, HorusSLM, HorusDLM}, SweepOptions{Parallel: workers})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := cfg.Metrics.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return sw.Fig14Table().String() + sw.Fig15Table().String(), b.String()
}

// TestSweepDeterminismFig6 is the engine's headline contract: figure output
// and merged metrics are byte-identical whether episodes run on one worker
// or eight.
func TestSweepDeterminismFig6(t *testing.T) {
	seqTab, seqProm := renderFig6(t, 1)
	parTab, parProm := renderFig6(t, 8)
	if seqTab != parTab {
		t.Errorf("Fig6 table differs between -parallel 1 and 8:\n--- seq ---\n%s\n--- par ---\n%s", seqTab, parTab)
	}
	if seqProm != parProm {
		t.Error("Fig6 merged metrics differ between -parallel 1 and 8")
	}
	if !strings.Contains(seqTab, "Base-LU") {
		t.Error("Fig6 table missing rows")
	}
}

// TestSweepDeterminismLLC extends the byte-identity contract to the
// multi-size LLC sweep, whose grid interleaves sizes and schemes.
func TestSweepDeterminismLLC(t *testing.T) {
	seqTab, seqProm := renderLLCSweep(t, 1)
	parTab, parProm := renderLLCSweep(t, 8)
	if seqTab != parTab {
		t.Errorf("LLC sweep tables differ between -parallel 1 and 8:\n--- seq ---\n%s\n--- par ---\n%s", seqTab, parTab)
	}
	if seqProm != parProm {
		t.Error("LLC sweep merged metrics differ between -parallel 1 and 8")
	}
}

// renderProbedGrid runs a drain-and-recover grid over every scheme with all
// four sinks attached at the given worker count, and returns the merged
// Prometheus text, the merged time-series JSON and the Chrome trace of
// every episode's drain and recovery recordings.
func renderProbedGrid(t *testing.T, workers int) (prom, series, trace string) {
	t.Helper()
	cfg := TestConfig()
	cfg.Metrics = NewMetricsRegistry()
	cfg.Timeline = NewTimelineRecorder(0)
	cfg.Timeseries = NewTimeseriesSampler(0, 0)
	cfg.Evlog = NewEvlog(0)
	var points []DrainPoint
	for _, s := range AllSchemes() {
		points = append(points, DrainPoint{Config: cfg, Scheme: s, Recover: true})
	}
	prs, err := RunDrainGrid(context.Background(), points, SweepOptions{Parallel: workers})
	if err != nil {
		t.Fatal(err)
	}
	var recs []*TimelineRecording
	for _, pr := range prs {
		if pr.Timeline == nil || pr.Recovery == nil {
			t.Fatalf("%v: missing drain recording or recovery report", pr.Point.Scheme)
		}
		recs = append(recs, pr.Timeline)
		recs = append(recs, pr.Recovery.Timelines()...)
	}
	var pb, sb, tb strings.Builder
	if err := cfg.Metrics.WritePrometheus(&pb); err != nil {
		t.Fatal(err)
	}
	if err := cfg.Timeseries.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	if err := WriteChromeTrace(&tb, recs...); err != nil {
		t.Fatal(err)
	}
	// Every layer the probe reaches recorded into it: mem, secmem and
	// recovery metrics; mem, core and recovery samples.
	for _, name := range []string{"horus_mem_reads_total", "horus_sec_mac_ops_total", "horus_recovery_time_ps"} {
		if !strings.Contains(pb.String(), name) {
			t.Errorf("merged metrics lack %s", name)
		}
	}
	snap := cfg.Timeseries.Snapshot()
	for _, name := range []string{"horus_ts_bank_queue_depth", "horus_ts_blocks_drained", "horus_ts_recovery_blocks"} {
		sampled := false
		for _, sr := range snap.Find(name) {
			sampled = sampled || len(sr.Points) > 0
		}
		if !sampled {
			t.Errorf("no %s series recorded a sample", name)
		}
	}
	// Every episode ran against its own fork: the base recorders saw nothing.
	if cfg.Timeline.Len() != 0 || cfg.Evlog.Len() != 0 {
		t.Errorf("base recorders hold %d events and %d records, want none", cfg.Timeline.Len(), cfg.Evlog.Len())
	}
	return pb.String(), sb.String(), tb.String()
}

// TestSweepProbeDeterminism extends the byte-identity contract to all four
// sinks: merged metrics, merged time series and the per-episode timeline
// recordings are the same at one worker and at four.
func TestSweepProbeDeterminism(t *testing.T) {
	seqProm, seqSeries, seqTrace := renderProbedGrid(t, 1)
	parProm, parSeries, parTrace := renderProbedGrid(t, 4)
	if seqProm != parProm {
		t.Error("merged metrics differ between -parallel 1 and 4")
	}
	if seqSeries != parSeries {
		t.Error("merged time series differ between -parallel 1 and 4")
	}
	if seqTrace != parTrace {
		t.Error("Chrome traces differ between -parallel 1 and 4")
	}
}

// TestSweepGridPartialResults exercises the no-first-error-abort policy at
// the grid level: an unknown scheme fails its own point only.
func TestSweepGridPartialResults(t *testing.T) {
	cfg := TestConfig()
	bogus := Scheme(97)
	prs, err := RunDrainGrid(context.Background(), []DrainPoint{
		{Config: cfg, Scheme: NonSecure},
		{Config: cfg, Scheme: bogus},
		{Config: cfg, Scheme: HorusSLM},
	}, SweepOptions{Parallel: 2})
	if err == nil {
		t.Fatal("grid with a bogus scheme must report an error")
	}
	var serr *SweepError
	if !errors.As(err, &serr) {
		t.Fatalf("error is %T, want *SweepError", err)
	}
	if len(serr.Failed) != 1 || serr.Total != 3 {
		t.Fatalf("aggregate = %d/%d failed, want 1/3", len(serr.Failed), serr.Total)
	}
	if prs[0].Err != nil || prs[2].Err != nil {
		t.Errorf("healthy points failed: %v / %v", prs[0].Err, prs[2].Err)
	}
	if prs[0].Result.BlocksDrained == 0 || prs[2].Result.BlocksDrained == 0 {
		t.Error("healthy points lost their results")
	}
	if prs[1].Err == nil {
		t.Error("bogus point must carry its own error")
	}
}

// BenchmarkSweepParallel measures engine throughput on the LLC sweep at one
// vs several workers; CI records the comparison in BENCH_sweep.json.
func BenchmarkSweepParallel(b *testing.B) {
	cfg := TestConfig()
	sizes := []int{4 << 20, 8 << 20}
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := RunLLCSweep(context.Background(), cfg, sizes, AllSchemes(),
					SweepOptions{Parallel: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
