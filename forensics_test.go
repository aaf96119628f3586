package horus

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/report"
	"repro/internal/sim"
)

// recoverTraced drains and recovers one scheme with a timeline recorder and
// flight recorder attached, returning the system, drain result and report.
func recoverTraced(t *testing.T, scheme Scheme, shards int) (*System, Result, RecoveryReport) {
	t.Helper()
	cfg := TestConfig()
	cfg.Shards = shards
	cfg.Timeline = NewTimelineRecorder(0)
	cfg.Evlog = NewEvlog(0)
	cfg.Metrics = NewMetricsRegistry()
	sys := NewSystem(cfg, scheme)
	if err := sys.Warmup(); err != nil {
		t.Fatal(err)
	}
	sys.Fill()
	res, err := sys.Drain()
	if err != nil {
		t.Fatal(err)
	}
	sys.Crash()
	rec, err := sys.Recover(res.Persist)
	if err != nil {
		t.Fatal(err)
	}
	return sys, res, rec
}

// The recovery-side mirror of TestAttributionTotalsEqualDrainTime: every
// recovery path is its own phase-local episode whose critical-path
// attribution tiles [0, path recovery time) exactly, and the path totals
// sum to RecoveryReport.Time().
func TestRecoveryAttributionTilesRecoveryTime(t *testing.T) {
	for _, scheme := range AllSchemes() {
		if !scheme.Secure() {
			continue
		}
		t.Run(scheme.String(), func(t *testing.T) {
			_, _, rec := recoverTraced(t, scheme, 0)
			recs := rec.Timelines()
			if len(recs) == 0 {
				// Eager baselines flush metadata in place: an empty vault
				// means no recovery work, so no episode is bracketed.
				if rec.Time() != 0 {
					t.Fatalf("no recovery timelines captured for a %v recovery", rec.Time())
				}
				return
			}
			var sum sim.Time
			for _, r := range recs {
				if !strings.HasPrefix(r.Episode, "recover-") {
					t.Errorf("episode %q does not name a recovery path", r.Episode)
				}
				if !strings.HasSuffix(r.Episode, ":"+scheme.String()) {
					t.Errorf("episode %q does not carry the scheme label", r.Episode)
				}
				att := AnalyzeTimeline(r)
				if att.Total <= 0 {
					t.Fatalf("%s: empty recording", r.Episode)
				}
				if got := att.AttributedTotal(); got != att.Total {
					t.Errorf("%s: attributed total %v != recording total %v", r.Episode, got, att.Total)
				}
				var cursor sim.Time
				for i, s := range att.Steps {
					if s.From != cursor {
						t.Fatalf("%s: step %d starts at %v, want %v (steps must tile the episode)",
							r.Episode, i, s.From, cursor)
					}
					cursor = s.To
				}
				if cursor != att.Total {
					t.Fatalf("%s: steps end at %v, want %v", r.Episode, cursor, att.Total)
				}
				sum += r.Total
			}
			if sum != rec.Time() {
				t.Errorf("path totals sum to %v, want recovery time %v", sum, rec.Time())
			}
			// The per-path recordings are also surfaced on the results.
			if rec.Horus != nil && rec.Horus.Timeline.Total != rec.Horus.RecoveryTime {
				t.Errorf("CHV recording total %v != RecoveryTime %v",
					rec.Horus.Timeline.Total, rec.Horus.RecoveryTime)
			}
			if rec.Baseline != nil && rec.Baseline.Timeline != nil &&
				rec.Baseline.Timeline.Total != rec.Baseline.RecoveryTime {
				t.Errorf("vault recording total %v != RecoveryTime %v",
					rec.Baseline.Timeline.Total, rec.Baseline.RecoveryTime)
			}
		})
	}
}

// Recovery publishes its per-path metrics with scheme and path labels and a
// merge-safe histogram, so grids at any parallelism keep every episode's
// value (the last-write-wins gauge bug).
func TestRecoveryMetricsPerSchemeUnderParallel(t *testing.T) {
	cfg := TestConfig()
	cfg.Metrics = NewMetricsRegistry()
	var points []DrainPoint
	schemes := []Scheme{BaseLU, HorusSLM, HorusDLM}
	for _, s := range schemes {
		points = append(points, DrainPoint{Config: cfg, Scheme: s, Recover: true})
	}
	results, err := RunDrainGrid(context.Background(), points, SweepOptions{Parallel: 8})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]map[string]float64{} // scheme -> path -> time
	for _, pr := range results {
		m := map[string]float64{}
		if pr.Recovery.Horus != nil {
			m["chv"] = float64(pr.Recovery.Horus.RecoveryTime)
		}
		if pr.Recovery.Baseline != nil && pr.Recovery.Baseline.LinesRestored > 0 {
			m["vault"] = float64(pr.Recovery.Baseline.RecoveryTime)
		}
		want[pr.Point.Scheme.String()] = m
	}
	snap := cfg.Metrics.Snapshot()
	got := map[string]map[string]float64{}
	for _, g := range snap.Gauges {
		if g.Name != "horus_recovery_time_ps" {
			continue
		}
		s, p := g.Labels["scheme"], g.Labels["path"]
		if got[s] == nil {
			got[s] = map[string]float64{}
		}
		got[s][p] = g.Value
	}
	for s, paths := range want {
		for p, v := range paths {
			if got[s][p] != v {
				t.Errorf("horus_recovery_time_ps{scheme=%q,path=%q} = %v, want %v (merged at parallel 8)",
					s, p, got[s][p], v)
			}
		}
	}
	// The histogram sibling survives merges losslessly: one observation per
	// recovered path across the whole grid.
	wantObs := 0
	for _, paths := range want {
		wantObs += len(paths)
	}
	var obs int64
	for _, h := range snap.Histograms {
		if h.Name == "horus_recovery_time_hist_ps" {
			obs += h.Count
		}
	}
	if int(obs) != wantObs {
		t.Errorf("horus_recovery_time_hist_ps holds %d observations, want %d", obs, wantObs)
	}
}

// Every registered horus_* metric must carry a non-empty help string — the
// registry lint behind the documented /metrics endpoint.
func TestMetricsHelpLint(t *testing.T) {
	cfg := TestConfig()
	cfg.Metrics = NewMetricsRegistry()
	cfg.Timeline = NewTimelineRecorder(0)
	cfg.Timeseries = NewTimeseriesSampler(0, 0)
	cfg.BatteryJoules = 1.0

	// Exercise the drain + recovery grid (all schemes)…
	var points []DrainPoint
	for _, s := range AllSchemes() {
		points = append(points, DrainPoint{Config: cfg, Scheme: s, Recover: s.Secure()})
	}
	if _, err := RunDrainGrid(context.Background(), points, SweepOptions{Parallel: 4}); err != nil {
		t.Fatal(err)
	}
	// …a run-time workload…
	ws := NewWorkloadSystem(cfg, HorusSLM, DomainEPD)
	if err := ws.Run(UniformWorkload(WorkloadConfig{Ops: 200, WorkingSet: 8 << 10, Seed: 3, PersistPercent: 10})); err != nil {
		t.Fatal(err)
	}
	ws.Machine.PublishMetrics()
	// …an Osiris counter reconstruction…
	ocfg := TestConfig()
	ocfg.Metrics = cfg.Metrics
	ocfg.Sec.OsirisStopLoss = 4
	ows := NewWorkloadSystem(ocfg, BaseLU, DomainADR)
	if err := ows.Run(UniformWorkload(WorkloadConfig{Ops: 100, WorkingSet: 4 << 10, Seed: 5, PersistPercent: 20})); err != nil {
		t.Fatal(err)
	}
	ows.Crash()
	if _, err := ows.RecoverWithOsiris(); err != nil {
		t.Fatal(err)
	}
	// …and the torture + litmus harnesses (small slices).
	if _, err := RunTortureMatrix(context.Background(), TortureConfig{
		Config: cfg, Schemes: []Scheme{HorusSLM}, Flavors: []CrashFlavor{CrashBitFlip},
		Stride: 7, MaxPoints: 2,
	}, SweepOptions{Parallel: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := RunLitmus(context.Background(), LitmusConfig{
		Config: cfg, Schemes: []Scheme{HorusSLM}, MaxEpochs: 2, MaxOrderings: 4,
		NewWorkload: func(seed int64) *Workload {
			return UniformWorkload(WorkloadConfig{Ops: 300, WorkingSet: 16 << 10, Seed: seed, PersistPercent: 10})
		},
		Corrupt: AllCorruptionModels(), CorruptTrials: 1,
	}, SweepOptions{Parallel: 2}); err != nil {
		t.Fatal(err)
	}

	names := cfg.Metrics.SortedSeriesNames()
	if len(names) == 0 {
		t.Fatal("no metrics registered")
	}
	for _, name := range names {
		if !strings.HasPrefix(name, "horus_") {
			t.Errorf("metric %q violates the horus_ naming convention", name)
			continue
		}
		if cfg.Metrics.Help(name) == "" {
			t.Errorf("metric %q has no help string", name)
		}
	}
}

// The torture matrix and the litmus checker publish detection latency
// through one helper, so both registries carry one help text per histogram.
func TestDetectLatencyHelpShared(t *testing.T) {
	tcfg := TestConfig()
	tcfg.Metrics = NewMetricsRegistry()
	if _, err := RunTortureMatrix(context.Background(), TortureConfig{
		Config: tcfg, Schemes: []Scheme{HorusSLM}, Flavors: []CrashFlavor{CrashBitFlip},
		Stride: 5, MaxPoints: 4,
	}, SweepOptions{Parallel: 1}); err != nil {
		t.Fatal(err)
	}
	lcfg := TestConfig()
	lcfg.Metrics = NewMetricsRegistry()
	if _, err := RunLitmus(context.Background(), LitmusConfig{
		Config: lcfg, Schemes: []Scheme{HorusSLM}, MaxEpochs: 2, MaxOrderings: 4,
		NewWorkload: func(seed int64) *Workload {
			return UniformWorkload(WorkloadConfig{Ops: 300, WorkingSet: 16 << 10, Seed: seed, PersistPercent: 10})
		},
		Corrupt: AllCorruptionModels(), CorruptTrials: 1,
	}, SweepOptions{Parallel: 1}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"horus_recovery_detect_latency_blocks", "horus_recovery_detect_latency_ps"} {
		th, lh := tcfg.Metrics.Help(name), lcfg.Metrics.Help(name)
		if th == "" || lh == "" {
			t.Fatalf("%s: a harness recorded no detection (torture help %q, litmus help %q)", name, th, lh)
		}
		if th != lh {
			t.Errorf("%s help differs:\n torture: %s\n litmus:  %s", name, th, lh)
		}
	}
}

// spliceCHV swaps the first two CHV payload blocks after the crash — the
// canonical undetectable-without-address-MACs attack.
func spliceCHV(sys *System) {
	lay := sys.Core.Layout
	store := sys.Core.NVM.Store()
	a0, a1 := lay.CHVDataAddr(0), lay.CHVDataAddr(1)
	b0, b1 := store.ReadBlock(a0), store.ReadBlock(a1)
	store.WriteBlock(a0, b1)
	store.WriteBlock(a1, b0)
}

// A refused recovery must carry its full forensic provenance: the failing
// check, the detection latency, and a non-empty flight-recorder chain whose
// last record is the failure itself.
func TestForensicChainOnDetection(t *testing.T) {
	cfg := TestConfig()
	cfg.Evlog = NewEvlog(0)
	sys := NewSystem(cfg, HorusSLM)
	if err := sys.Warmup(); err != nil {
		t.Fatal(err)
	}
	sys.Fill()
	res, err := sys.Drain()
	if err != nil {
		t.Fatal(err)
	}
	sys.Crash()
	spliceCHV(sys)
	_, err = sys.Recover(res.Persist)
	if err == nil {
		t.Fatal("spliced CHV must refuse recovery")
	}
	f := ForensicFromError(err, "recovery")
	if f == nil {
		t.Fatal("no forensic from a typed detection")
	}
	if f.Check == "" || f.Region == "" {
		t.Errorf("forensic misses check/region: %+v", f)
	}
	if f.DetectLatencyPs <= 0 {
		t.Errorf("detection latency %d ps, want > 0", f.DetectLatencyPs)
	}
	if len(f.Chain) == 0 {
		t.Fatal("empty provenance chain with a flight recorder attached")
	}
	last := f.Chain[len(f.Chain)-1]
	if last.Outcome != "fail" || last.Check != f.Check {
		t.Errorf("chain tail %+v does not record the failing check %q", last, f.Check)
	}
	tbl := report.ForensicTable(*f).String()
	for _, want := range []string{f.Check, f.Region, "fail"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("forensic table misses %q:\n%s", want, tbl)
		}
	}

	// The chain serializes to one JSON object per line.
	var b strings.Builder
	if err := WriteEvlogJSONL(&b, f.Chain...); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	if len(lines) != len(f.Chain) {
		t.Fatalf("%d JSONL lines for %d records", len(lines), len(f.Chain))
	}
	for _, line := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", line, err)
		}
	}
}

// The forensic story is part of the determinism contract: the torture
// matrix's forensic table and detection-latency metrics are byte-identical
// whether cells run on one worker or eight.
func TestForensicParallelDeterminism(t *testing.T) {
	render := func(parallel int) (string, string) {
		cfg := TestConfig()
		cfg.Metrics = NewMetricsRegistry()
		rep, err := RunTortureMatrix(context.Background(), TortureConfig{
			Config:  cfg,
			Schemes: []Scheme{HorusSLM, BaseLU},
			Flavors: []CrashFlavor{CrashBitFlip},
			Stride:  5, MaxPoints: 4,
		}, SweepOptions{Parallel: parallel})
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := cfg.Metrics.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return rep.ForensicTable().String(), b.String()
	}
	seqTab, seqMet := render(1)
	parTab, parMet := render(8)
	if seqTab != parTab {
		t.Errorf("forensic table differs between -parallel 1 and 8:\n--- parallel=1\n%s\n--- parallel=8\n%s", seqTab, parTab)
	}
	if seqMet != parMet {
		t.Error("metrics snapshot differs between -parallel 1 and 8")
	}
	if !strings.Contains(seqMet, "horus_recovery_detect_latency_blocks") ||
		!strings.Contains(seqMet, "horus_recovery_detect_latency_ps") {
		t.Error("bit-flip matrix recorded no detection-latency histograms")
	}
}

// Sharded drains must not leak into the forensic record: the refused
// recovery's chain JSONL and the clean recovery's attribution table are
// byte-identical at any -shards.
func TestForensicShardDeterminism(t *testing.T) {
	chain := func(shards int) string {
		cfg := TestConfig()
		cfg.Shards = shards
		cfg.Evlog = NewEvlog(0)
		sys := NewSystem(cfg, HorusDLM)
		if err := sys.Warmup(); err != nil {
			t.Fatal(err)
		}
		sys.Fill()
		res, err := sys.Drain()
		if err != nil {
			t.Fatal(err)
		}
		sys.Crash()
		spliceCHV(sys)
		_, err = sys.Recover(res.Persist)
		if err == nil {
			t.Fatal("spliced CHV must refuse recovery")
		}
		f := ForensicFromError(err, "recovery")
		var b strings.Builder
		if err := WriteEvlogJSONL(&b, f.Chain...); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if one, eight := chain(1), chain(8); one != eight {
		t.Errorf("forensic chain differs between -shards 1 and 8:\n--- shards=1\n%s\n--- shards=8\n%s", one, eight)
	}

	attrib := func(shards int) string {
		_, _, rec := recoverTraced(t, HorusDLM, shards)
		return report.AttributionTableTitled("Recovery critical path by binding resource",
			"(recovery time)", rec.Attributions()...).String()
	}
	if one, eight := attrib(1), attrib(8); one != eight {
		t.Errorf("recovery attribution differs between -shards 1 and 8:\n--- shards=1\n%s\n--- shards=8\n%s", one, eight)
	}
}

// The flight recorder observes; it must never participate. A run with the
// recorder attached produces the identical drain and recovery result.
func TestEvlogDoesNotPerturbResults(t *testing.T) {
	run := func(attach bool) (Result, RecoveryReport) {
		cfg := TestConfig()
		if attach {
			cfg.Evlog = NewEvlog(0)
		}
		sys := NewSystem(cfg, HorusSLM)
		if err := sys.Warmup(); err != nil {
			t.Fatal(err)
		}
		sys.Fill()
		res, err := sys.Drain()
		if err != nil {
			t.Fatal(err)
		}
		sys.Crash()
		rec, err := sys.Recover(res.Persist)
		if err != nil {
			t.Fatal(err)
		}
		return res, rec
	}
	plainRes, plainRec := run(false)
	obsRes, obsRec := run(true)
	if plainRes.DrainTime != obsRes.DrainTime {
		t.Errorf("drain time changed with the flight recorder on: %v vs %v", plainRes.DrainTime, obsRes.DrainTime)
	}
	if plainRec.Time() != obsRec.Time() {
		t.Errorf("recovery time changed with the flight recorder on: %v vs %v", plainRec.Time(), obsRec.Time())
	}
}

// The recovery paths feed the live telemetry: with a sampler attached, a
// traced recovery records the per-path block and MAC-op series.
func TestRecoveryTimeseries(t *testing.T) {
	cfg := TestConfig()
	cfg.Timeseries = NewTimeseriesSampler(0, 0)
	sys := NewSystem(cfg, HorusSLM)
	if err := sys.Warmup(); err != nil {
		t.Fatal(err)
	}
	sys.Fill()
	res, err := sys.Drain()
	if err != nil {
		t.Fatal(err)
	}
	sys.Crash()
	if _, err := sys.Recover(res.Persist); err != nil {
		t.Fatal(err)
	}
	snap := cfg.Timeseries.Snapshot()
	for _, name := range []string{"horus_ts_recovery_blocks", "horus_ts_recovery_mac_ops"} {
		series := snap.Find(name)
		if len(series) == 0 {
			t.Errorf("no %s series recorded", name)
			continue
		}
		for _, s := range series {
			if s.Labels["scheme"] == "" || s.Labels["path"] == "" {
				t.Errorf("%s series misses scheme/path labels: %v", name, s.Labels)
			}
		}
	}
}
