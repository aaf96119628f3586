package horus

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

// renderDrainSetTS runs the all-scheme drain set with a live sampler at the
// given worker count and returns the rendered Fig. 11 table plus the merged
// time-series JSON document.
func renderDrainSetTS(t testing.TB, workers int) (string, string, *DrainSet) {
	t.Helper()
	cfg := TestConfig()
	cfg.Timeseries = NewTimeseriesSampler(0, 0)
	ds, err := RunDrainSet(context.Background(), cfg, AllSchemes(), SweepOptions{Parallel: workers})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := cfg.Timeseries.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	return (Fig11{Set: ds}).Table().String(), b.String(), ds
}

// TestTimeseriesDeterminism extends the engine's byte-identity contract to
// live telemetry: the merged time-series document is identical whether
// episodes run on one worker or eight.
func TestTimeseriesDeterminism(t *testing.T) {
	seqTab, seqTS, _ := renderDrainSetTS(t, 1)
	parTab, parTS, _ := renderDrainSetTS(t, 8)
	if seqTab != parTab {
		t.Error("Fig11 table differs between -parallel 1 and 8 with telemetry on")
	}
	if seqTS != parTS {
		t.Error("merged time-series JSON differs between -parallel 1 and 8")
	}
	for _, name := range []string{
		"horus_ts_blocks_drained", "horus_ts_energy_j", "horus_ts_drain_time_ps",
		"horus_ts_bank_queue_depth",
	} {
		if !strings.Contains(seqTS, name) {
			t.Errorf("merged document missing series %s", name)
		}
	}
}

// TestTelemetryDoesNotPerturbResults: recording time series must not change
// any experiment output — the sampler observes the simulation, it never
// participates in it.
func TestTelemetryDoesNotPerturbResults(t *testing.T) {
	cfg := TestConfig()
	plain, err := RunDrainSet(context.Background(), cfg, AllSchemes(), SweepOptions{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	_, _, sampled := renderDrainSetTS(t, 4)
	for _, s := range AllSchemes() {
		off := fmt.Sprintf("%+v", plain.Results[s])
		on := fmt.Sprintf("%+v", sampled.Results[s])
		if off != on {
			t.Errorf("%v: result differs with telemetry on:\noff: %s\non:  %s", s, off, on)
		}
	}
	offTab := (Fig11{Set: plain}).Table().String()
	onTab := (Fig11{Set: sampled}).Table().String()
	if offTab != onTab {
		t.Errorf("Fig11 table differs with telemetry on:\n--- off ---\n%s\n--- on ---\n%s", offTab, onTab)
	}
}

// TestTimeseriesFinalEnergyPoint is the Table II cross-check: the last point
// of each episode's energy-drawdown series must equal the post-hoc energy
// model applied to the drain result — exactly, not approximately — because
// the drainer re-samples at the final drain instant with the final counters.
func TestTimeseriesFinalEnergyPoint(t *testing.T) {
	for _, scheme := range AllSchemes() {
		cfg := TestConfig()
		cfg.Timeseries = NewTimeseriesSampler(0, 0)
		res, err := RunDrain(cfg, scheme)
		if err != nil {
			t.Fatal(err)
		}
		snap := cfg.Timeseries.Snapshot()
		series := snap.Find("horus_ts_energy_j")
		if len(series) != 1 {
			t.Fatalf("%v: %d energy series, want 1", scheme, len(series))
		}
		final, ok := series[0].Final()
		if !ok {
			t.Fatalf("%v: energy series has no points", scheme)
		}
		want := cfg.EnergyOf(res).Total()
		if final.V != want {
			t.Errorf("%v: final energy point %v != EnergyOf total %v", scheme, final.V, want)
		}
		// Bucket timestamps are window-aligned; the final sample lands in
		// the bucket containing the drain's last instant.
		end := int64(res.DrainTime)
		if final.T > end || end-final.T >= series[0].WindowPs {
			t.Errorf("%v: final energy point at %d ps, want within one %d ps window of drain end %d",
				scheme, final.T, series[0].WindowPs, end)
		}

		drained := snap.Find("horus_ts_blocks_drained")
		if len(drained) != 1 {
			t.Fatalf("%v: %d blocks-drained series, want 1", scheme, len(drained))
		}
		sum := 0.0
		for _, v := range drained[0].Values() {
			sum += v
		}
		if int(sum) != res.BlocksDrained {
			t.Errorf("%v: blocks-drained series sums to %v, want %d", scheme, sum, res.BlocksDrained)
		}

		dt := snap.Find("horus_ts_drain_time_ps")
		if len(dt) != 1 {
			t.Fatalf("%v: %d drain-time series, want 1", scheme, len(dt))
		}
		if p, ok := dt[0].Final(); !ok || p.V != float64(res.DrainTime) {
			t.Errorf("%v: drain-time series final %v, want %v", scheme, p.V, float64(res.DrainTime))
		}
	}
}

// TestBatteryBudgetSeries: with a battery budget configured the drainer also
// records the budget-fraction series, and the drain SLOs judge it correctly
// in both the violating and the satisfied direction.
func TestBatteryBudgetSeries(t *testing.T) {
	cfg := TestConfig()
	cfg.Timeseries = NewTimeseriesSampler(0, 0)
	cfg.BatteryJoules = 1e-6 // far too small: every SLO must trip
	res, err := RunDrain(cfg, HorusSLM)
	if err != nil {
		t.Fatal(err)
	}
	snap := cfg.Timeseries.Snapshot()
	frac := snap.Find("horus_ts_energy_budget_frac")
	if len(frac) != 1 {
		t.Fatalf("%d budget-fraction series, want 1", len(frac))
	}
	if max, ok := frac[0].Max(); !ok || max.V <= 1 {
		t.Errorf("budget fraction max %v, want > 1 for a tiny budget", max.V)
	}
	rep := EvaluateSLO(DrainSLORules(cfg, cfg.BatteryJoules), snap)
	if rep.Ok() {
		t.Error("tiny budget must violate the drain SLOs")
	}
	if tbl := rep.Table().String(); !strings.Contains(tbl, "VIOLATED") {
		t.Error("SLO table does not name the violated cells")
	}

	// A generous budget (10x the measured drain energy) must pass.
	cfg2 := TestConfig()
	cfg2.Timeseries = NewTimeseriesSampler(0, 0)
	cfg2.BatteryJoules = 10 * cfg.EnergyOf(res).Total()
	if _, err := RunDrain(cfg2, HorusSLM); err != nil {
		t.Fatal(err)
	}
	rep2 := EvaluateSLO(DrainSLORules(cfg2, cfg2.BatteryJoules), cfg2.Timeseries.Snapshot())
	if !rep2.Ok() {
		t.Errorf("generous budget must satisfy the drain SLOs:\n%s", rep2.Table())
	}
}

// TestTortureSLOOverMatrix wires the no-silent-corruption SLO end to end: a
// small clean matrix records all-zero outcome series and passes; a sampler
// that recorded nothing fails RequireData.
func TestTortureSLOOverMatrix(t *testing.T) {
	cfg := TestConfig()
	cfg.Timeseries = NewTimeseriesSampler(0, 0)
	rep, err := RunTortureMatrix(context.Background(), TortureConfig{
		Config:    cfg,
		Schemes:   []Scheme{HorusSLM},
		Flavors:   []CrashFlavor{CrashCleanCut},
		Stride:    7,
		MaxPoints: 3,
	}, SweepOptions{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("clean matrix failed: %+v", rep.Failures())
	}
	slo := EvaluateSLO(TortureSLORules(), cfg.Timeseries.Snapshot())
	if !slo.Ok() {
		t.Errorf("clean matrix must satisfy the silent-corruption SLO:\n%s", slo.Table())
	}

	empty := EvaluateSLO(TortureSLORules(), NewTimeseriesSampler(0, 0).Snapshot())
	if empty.Ok() {
		t.Error("an empty sampler must fail the RequireData silent-corruption SLO")
	}
}

// TestSweepProgressThroughEngine: the engine surfaces per-episode progress
// in completion order with a correct total, at any parallelism.
func TestSweepProgressThroughEngine(t *testing.T) {
	cfg := TestConfig()
	var events []SweepProgress
	_, err := RunDrainSet(context.Background(), cfg, AllSchemes(), SweepOptions{
		Parallel: 3,
		Progress: func(ev SweepProgress) { events = append(events, ev) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != len(AllSchemes()) {
		t.Fatalf("%d progress events, want %d", len(events), len(AllSchemes()))
	}
	for i, ev := range events {
		if ev.Done != i+1 || ev.Total != len(AllSchemes()) {
			t.Errorf("event %d: done=%d total=%d", i, ev.Done, ev.Total)
		}
	}
}
