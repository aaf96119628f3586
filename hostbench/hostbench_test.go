package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// spec mirrors BENCHMARK.json, which names every metric the program emits.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// checkMetrics fails unless got holds exactly the wanted names, each with
// its unit.
func checkMetrics(t *testing.T, label string, got metricSet, want map[string]string, nonZero bool) {
	t.Helper()
	for name, unit := range want {
		m, ok := got[name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", label, name)
		case m.Unit != unit:
			t.Errorf("%s: metric %s has unit %q, want %q", label, name, m.Unit, unit)
		case nonZero && m.Value == 0:
			t.Errorf("%s: metric %s is 0", label, name)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: metric %s is not in BENCHMARK.json", label, name)
		}
	}
}

// TestSmokeEveryWorkload runs every workload at a tiny size, untraced and
// traced, and checks that every metric BENCHMARK.json names is emitted with
// its unit and that every output check passes.
func TestSmokeEveryWorkload(t *testing.T) {
	s := loadSpec(t)
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames()) {
		t.Fatalf("BENCHMARK.json workloads %v, program has %v", names, workloadNames())
	}
	e2e := map[string]string{}
	for _, m := range s.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	layers := map[string]string{}
	for _, m := range s.PerLayer {
		layers[m.Name] = m.Unit
	}
	for _, w := range workloads {
		rep, err := measure(w, tinySize(1), 0)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if rep.Failed != 0 || rep.Attempted == 0 {
			t.Errorf("%s: %d of %d checks failed: %v", w.name, rep.Failed, rep.Attempted, rep.Failures)
		}
		checkMetrics(t, w.name, rep.Metrics, e2e, true)
	}
	rep, spans, err := tracedRun(workloads[0], tinySize(1))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 {
		t.Errorf("traced run: %d checks failed: %v", rep.Failed, rep.Failures)
	}
	if len(spans) == 0 {
		t.Error("traced run recorded no spans")
	}
	checkMetrics(t, "traced run", rep.Metrics, layers, false)
}

// TestWrongReferenceFailsGate shows the correctness gate is not vacuous: the
// pinned references pass, and a reference that is off by one picosecond
// drives ok_frac below 1.
func TestWrongReferenceFailsGate(t *testing.T) {
	w, _ := lookupWorkload("paper-horus")
	rep, err := measure(w, tinySize(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 || rep.Metrics["ok_frac"].Value != 1 {
		t.Fatalf("pinned references fail: %v", rep.Failures)
	}

	saved := references["test"]["horus-slm"]
	t.Cleanup(func() { references["test"]["horus-slm"] = saved })
	wrong := saved
	wrong.drainPs++
	references["test"]["horus-slm"] = wrong
	rep, err = measure(w, tinySize(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed == 0 || rep.Metrics["ok_frac"].Value >= 1 {
		t.Fatalf("wrong reference passed the gate: failed %d, ok_frac %v", rep.Failed, rep.Metrics["ok_frac"].Value)
	}
}

func TestCompareRefusesMismatchedConfig(t *testing.T) {
	rec := func(seed int64, procs int, run float64) record {
		cfg := hostConfig{GOMAXPROCS: procs, Parallel: 1, NProc: 2, CPUModel: "cpu", GoVersion: "go", Seed: seed}
		return record{Workload: "paper-horus", Config: cfg, report: report{Metrics: metricSet{"run_s": {run, "s"}}}}
	}
	base := []record{rec(1, 2, 1.0), rec(2, 2, 1.0)}
	if err := checkComparable(base, []record{rec(2, 2, 1.1), rec(1, 2, 1.2)}); err != nil {
		t.Errorf("same configuration refused: %v", err)
	}
	if err := checkComparable(base, []record{rec(1, 1, 1.0), rec(2, 1, 1.0)}); err == nil {
		t.Error("GOMAXPROCS 2 against 1 was compared")
	}
	if err := checkComparable(base, []record{rec(1, 2, 1.0), rec(3, 2, 1.0)}); err == nil {
		t.Error("different seed sets were compared")
	}
}

func TestJudge(t *testing.T) {
	base := []float64{1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00}
	for _, tc := range []struct {
		next   []float64
		higher bool
		want   string
	}{
		{[]float64{1.01, 1.00, 1.02}, false, "ok"},
		{[]float64{1.20, 1.21, 1.19}, false, "REGRESSED"},
		{[]float64{0.80, 0.81, 0.79}, false, "better"},
		{[]float64{0.80, 0.81, 0.79}, true, "REGRESSED"},
	} {
		if got := judge(base, tc.next, tc.higher, 0.1).verdict; got != tc.want {
			t.Errorf("judge(%v, higher=%v) = %s, want %s", tc.next, tc.higher, got, tc.want)
		}
	}
	wide := []float64{0.5, 1.5, 0.7, 1.3, 1.0}
	if got := judge(wide, []float64{1.2}, false, 0.1).verdict; got != "unresolved" {
		t.Errorf("spread wider than the bound: %s, want unresolved", got)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	got := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if want := [3]float64{2.75, 5.5, 8.25}; got != want {
		t.Errorf("quartiles(1..10) = %v, want %v", got, want)
	}
}
