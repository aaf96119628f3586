package horus_test

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// buildCLIs compiles every command once into a temp dir and returns the
// binary paths keyed by name.
func buildCLIs(t *testing.T) map[string]string {
	t.Helper()
	dir := t.TempDir()
	bins := map[string]string{}
	for _, name := range []string{"horus-drain", "horus-experiments", "horus-recover", "horus-runtime", "horus-plan"} {
		out := filepath.Join(dir, name)
		cmd := exec.Command("go", "build", "-o", out, "./cmd/"+name)
		cmd.Env = os.Environ()
		if b, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", name, err, b)
		}
		bins[name] = out
	}
	return bins
}

func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return string(out)
}

// TestCLIs drives every command end-to-end at test scale and checks the
// load-bearing lines of their output.
func TestCLIs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs all binaries")
	}
	bins := buildCLIs(t)

	t.Run("drain", func(t *testing.T) {
		out := run(t, bins["horus-drain"], "-scale", "test", "-scheme", "horus-dlm", "-v", "-compare")
		for _, want := range []string{"Horus-DLM", "blocks drained:", "chv-data=", "vs non-secure:"} {
			if !strings.Contains(out, want) {
				t.Errorf("drain output missing %q:\n%s", want, out)
			}
		}
	})

	t.Run("drain-access-trace", func(t *testing.T) {
		trace := filepath.Join(t.TempDir(), "t.csv")
		run(t, bins["horus-drain"], "-scale", "test", "-scheme", "horus-slm", "-access-trace", trace)
		b, err := os.ReadFile(trace)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(string(b), "seq,time_ps,kind,addr,category") {
			t.Error("trace CSV header missing")
		}
		if !strings.Contains(string(b), "chv-data") {
			t.Error("trace missing CHV events")
		}
	})

	t.Run("drain-timeline-trace", func(t *testing.T) {
		trace := filepath.Join(t.TempDir(), "t.trace.json")
		out := run(t, bins["horus-drain"], "-scale", "test", "-scheme", "horus-dlm",
			"-trace", trace, "-trace-attrib")
		for _, want := range []string{"Drain critical path by binding resource", "(drain time)", "100.0%", "timeline:"} {
			if !strings.Contains(out, want) {
				t.Errorf("attribution output missing %q:\n%s", want, out)
			}
		}
		b, err := os.ReadFile(trace)
		if err != nil {
			t.Fatal(err)
		}
		var tr struct {
			TraceEvents []struct {
				Ph   string         `json:"ph"`
				Pid  int            `json:"pid"`
				Tid  int            `json:"tid"`
				Cat  string         `json:"cat"`
				Args map[string]any `json:"args"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(b, &tr); err != nil {
			t.Fatalf("trace file is not valid JSON: %v", err)
		}
		// Per-thread reservations must not overlap. Validate on the exact
		// picosecond args — the float ts/dur fields round-trip through binary
		// floating point and would report false overlaps on touching slices.
		type ival struct{ start, end int64 }
		type key struct{ pid, tid int }
		perThread := map[key][]ival{}
		for _, e := range tr.TraceEvents {
			if e.Ph != "X" || e.Cat == "critical-path" {
				continue
			}
			s, ok1 := e.Args["start_ps"].(float64)
			d, ok2 := e.Args["end_ps"].(float64)
			if !ok1 || !ok2 {
				t.Fatalf("slice missing start_ps/end_ps args: %+v", e.Args)
			}
			k := key{e.Pid, e.Tid}
			perThread[k] = append(perThread[k], ival{int64(s), int64(d)})
		}
		if len(perThread) == 0 {
			t.Fatal("trace contains no reservation slices")
		}
		for k, ivs := range perThread {
			sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
			for i := 1; i < len(ivs); i++ {
				if ivs[i].start < ivs[i-1].end {
					t.Errorf("pid %d tid %d: [%d,%d) overlaps [%d,%d)", k.pid, k.tid,
						ivs[i].start, ivs[i].end, ivs[i-1].start, ivs[i-1].end)
				}
			}
		}
	})

	t.Run("drain-metrics", func(t *testing.T) {
		prom := filepath.Join(t.TempDir(), "m.prom")
		out := run(t, bins["horus-drain"], "-scale", "test", "-scheme", "horus-slm", "-metrics", prom)
		if !strings.Contains(out, "Lifecycle spans") {
			t.Errorf("drain output missing span tree:\n%s", out)
		}
		b, err := os.ReadFile(prom)
		if err != nil {
			t.Fatal(err)
		}
		text := string(b)
		for _, want := range []string{
			"# TYPE horus_mem_bank_utilization gauge",
			`horus_mem_bank_utilization{bank="0",phase="drain",scheme="Horus-SLM"}`,
			"# TYPE horus_span_duration_ps_total counter",
			`horus_span_duration_ps_total{path="drain"}`,
			`horus_span_duration_ps_total{path="drain/flush-blocks"}`,
			`horus_drain_time_ps{scheme="Horus-SLM"}`,
			`horus_sec_engine_utilization{engine="aes"`,
		} {
			if !strings.Contains(text, want) {
				t.Errorf("prom snapshot missing %q", want)
			}
		}
	})

	t.Run("recover-metrics-json", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "m.json")
		run(t, bins["horus-recover"], "-scheme", "horus-dlm", "-metrics", path, "-metrics-format", "json")
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var snap struct {
			Counters []struct {
				Name string `json:"name"`
			} `json:"counters"`
			Gauges []struct {
				Name string `json:"name"`
			} `json:"gauges"`
			Spans []struct {
				Name string `json:"name"`
			} `json:"spans"`
		}
		if err := json.Unmarshal(b, &snap); err != nil {
			t.Fatalf("snapshot not valid JSON: %v", err)
		}
		if len(snap.Counters) == 0 || len(snap.Gauges) == 0 {
			t.Errorf("JSON snapshot sparse: %d counters, %d gauges", len(snap.Counters), len(snap.Gauges))
		}
		names := map[string]bool{}
		for _, s := range snap.Spans {
			names[s.Name] = true
		}
		for _, want := range []string{"run", "drain", "recover"} {
			if !names[want] {
				t.Errorf("JSON snapshot missing top-level span %q (have %v)", want, names)
			}
		}
	})

	t.Run("experiments", func(t *testing.T) {
		// -csv creates its directory.
		dir := filepath.Join(t.TempDir(), "csv")
		out := run(t, bins["horus-experiments"], "-exp", "fig6,headline", "-scale", "test", "-csv", dir)
		for _, want := range []string{"Fig. 6", "Headline", "Base-LU"} {
			if !strings.Contains(out, want) {
				t.Errorf("experiments output missing %q", want)
			}
		}
		files, _ := os.ReadDir(dir)
		if len(files) != 2 {
			t.Errorf("csv dir has %d files, want 2", len(files))
		}
	})

	t.Run("recover-clean-and-attacked", func(t *testing.T) {
		out := run(t, bins["horus-recover"], "-scheme", "slm")
		if !strings.Contains(out, "verified") {
			t.Errorf("clean recovery output wrong:\n%s", out)
		}
		out = run(t, bins["horus-recover"], "-scheme", "dlm", "-attack", "splice")
		if !strings.Contains(out, "attack detected") {
			t.Errorf("attack not detected:\n%s", out)
		}
	})

	t.Run("runtime", func(t *testing.T) {
		out := run(t, bins["horus-runtime"], "-workload", "txlog", "-domain", "wpq", "-ops", "4000", "-crash")
		for _, want := range []string{"ADR+WPQ", "recovered in", "verified"} {
			if !strings.Contains(out, want) {
				t.Errorf("runtime output missing %q:\n%s", want, out)
			}
		}
	})

	// The post-recovery verification reads are timed through the MAC
	// cache, so their order shows in the metrics: two runs must write
	// byte-identical telemetry.
	t.Run("runtime-crash-repeats", func(t *testing.T) {
		outputs := make([][]string, 2)
		for i := range outputs {
			dir := t.TempDir()
			cmd := exec.Command(bins["horus-runtime"], "-ops", "4000", "-crash", "-metrics", "a.prom", "-ts", "a.json")
			cmd.Dir = dir
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("horus-runtime: %v\n%s", err, out)
			}
			outputs[i] = append(outputs[i], string(out))
			for _, f := range []string{"a.prom", "a.json"} {
				b, err := os.ReadFile(filepath.Join(dir, f))
				if err != nil {
					t.Fatal(err)
				}
				outputs[i] = append(outputs[i], string(b))
			}
		}
		for j, what := range []string{"stdout", "-metrics file", "-ts file"} {
			if outputs[0][j] != outputs[1][j] {
				t.Errorf("horus-runtime -crash %s differs between two identical runs", what)
			}
		}
	})

	t.Run("plan", func(t *testing.T) {
		out := run(t, bins["horus-plan"], "-llc", "64")
		for _, want := range []string{"64 MB LLC", "Horus-SLM", "SuperCap"} {
			if !strings.Contains(out, want) {
				t.Errorf("plan output missing %q:\n%s", want, out)
			}
		}
	})

	// -metrics needs no -validate: the snapshot is written (empty, as the
	// closed-form plan records nothing) and its line printed either way.
	t.Run("plan-metrics", func(t *testing.T) {
		prom := filepath.Join(t.TempDir(), "m.prom")
		out := run(t, bins["horus-plan"], "-llc", "64", "-metrics", prom)
		if !strings.Contains(out, "metrics: prom snapshot to "+prom) {
			t.Errorf("plan output missing the metrics line:\n%s", out)
		}
		if _, err := os.Stat(prom); err != nil {
			t.Errorf("plan -metrics wrote no file: %v", err)
		}
	})
}
