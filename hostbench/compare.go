package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
)

// sweepParallel is SweepOptions.Parallel for every grid the benchmark runs:
// episodes run serially, so at most the drain's shard workers and the GC
// share the second core.
const sweepParallel = 1

// hostConfig is the configuration a result was measured under. Results are
// comparable only when everything but the seed matches.
type hostConfig struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	Shards     int    `json:"shards"` // Config.Shards (0 = GOMAXPROCS)
	Parallel   int    `json:"parallel"`
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Seed       int64  `json:"seed"`
}

func hostConfigFor(o options) hostConfig {
	return hostConfig{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Shards:     o.paper.Shards,
		Parallel:   sweepParallel,
		NProc:      runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Seed:       o.seed,
	}
}

// cpuModel returns the first processor's model name, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// record is one run's result as written to the results directory.
type record struct {
	Workload string     `json:"workload"`
	Trace    int        `json:"trace"`
	Config   hostConfig `json:"config"`
	report
}

// benchSpec is the part of BENCHMARK.json the comparison needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareMain compares two sets of end-to-end results, metric by metric,
// against the bounds in BENCHMARK.json. It returns the process exit code:
// 0 when nothing regressed, 1 on a regression, 2 when the sets cannot be
// compared (bad input, or results measured under different configurations).
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the metric bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: hostbench compare [-bench BENCHMARK.json] BASE NEW (result files or directories)")
		return 2
	}
	var spec benchSpec
	b, err := os.ReadFile(*specPath)
	if err == nil {
		err = json.Unmarshal(b, &spec)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "hostbench compare: %v\n", err)
		return 2
	}
	base, err := loadRecords(fs.Arg(0))
	if err == nil {
		var next []record
		next, err = loadRecords(fs.Arg(1))
		if err == nil {
			err = checkComparable(base, next)
		}
		if err == nil {
			return compareSets(os.Stdout, spec, base, next)
		}
	}
	fmt.Fprintf(os.Stderr, "hostbench compare: %v\n", err)
	return 2
}

// loadRecords reads the end-to-end records at path, a file or a directory.
func loadRecords(path string) ([]record, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
	}
	var out []record
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if r.Trace == 0 && r.Workload != "" {
			out = append(out, r)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no end-to-end results", path)
	}
	return out, nil
}

// checkComparable refuses two result sets whose recorded configurations differ
// (apart from the seed), or whose workloads were run with different seeds.
func checkComparable(base, next []record) error {
	ref := base[0].Config
	ref.Seed = 0
	for _, r := range append(append([]record(nil), base...), next...) {
		c := r.Config
		c.Seed = 0
		if c != ref {
			return fmt.Errorf("refusing to compare: configuration %s differs from %s", configDiff(c, ref), configDiff(ref, c))
		}
	}
	seeds := func(rs []record) map[string][]int64 {
		out := map[string][]int64{}
		for _, r := range rs {
			out[r.Workload] = append(out[r.Workload], r.Config.Seed)
		}
		for _, s := range out {
			slices.Sort(s)
		}
		return out
	}
	bs, ns := seeds(base), seeds(next)
	for w, s := range bs {
		if n, ok := ns[w]; ok && !slices.Equal(s, n) {
			return fmt.Errorf("refusing to compare %s: seeds %v against %v", w, s, n)
		}
	}
	return nil
}

// configDiff lists the fields of a that differ from b.
func configDiff(a, b hostConfig) string {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	var parts []string
	for i := 0; i < va.NumField(); i++ {
		if va.Field(i).Interface() != vb.Field(i).Interface() {
			parts = append(parts, fmt.Sprintf("%s=%v", va.Type().Field(i).Name, va.Field(i).Interface()))
		}
	}
	return "{" + strings.Join(parts, " ") + "}"
}

// compareSets prints one row per (workload, metric) and returns 1 if any
// metric regressed beyond its bound.
func compareSets(w io.Writer, spec benchSpec, base, next []record) int {
	byWorkload := func(rs []record) map[string][]record {
		out := map[string][]record{}
		for _, r := range rs {
			out[r.Workload] = append(out[r.Workload], r)
		}
		return out
	}
	bw, nw := byWorkload(base), byWorkload(next)
	names := make([]string, 0, len(bw))
	for n := range bw {
		if _, ok := nw[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	code := 0
	fmt.Fprintf(w, "%-16s %-14s %12s %12s %8s %8s %8s  %s\n", "workload", "metric", "base", "new", "worse", "spread", "bound", "verdict")
	for _, wl := range names {
		for _, m := range spec.EndToEnd {
			bv, nv := values(bw[wl], m.Name), values(nw[wl], m.Name)
			if len(bv) == 0 || len(nv) == 0 {
				continue
			}
			v := judge(bv, nv, m.Better == "higher", m.Bound)
			if v.verdict == "REGRESSED" {
				code = 1
			}
			fmt.Fprintf(w, "%-16s %-14s %12.6g %12.6g %7.1f%% %7.1f%% %7.1f%%  %s\n",
				wl, m.Name, v.base, v.next, 100*v.worse, 100*v.spread, 100*m.Bound, v.verdict)
		}
	}
	return code
}

func values(rs []record, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

type verdict struct {
	base, next, worse, spread float64
	verdict                   string
}

// judge compares medians. worse is the relative change in the bad
// direction; spread is the base side's interquartile range over its median.
// A base spread wider than the bound leaves the metric unresolved unless every
// new run beats every base run.
func judge(base, next []float64, higherBetter bool, bound float64) verdict {
	q := quartiles(base)
	v := verdict{base: q[1], next: median(append([]float64(nil), next...))}
	v.spread = (q[2] - q[0]) / q[1]
	v.worse = (v.next - v.base) / v.base
	if higherBetter {
		v.worse = (v.base - v.next) / v.base
	}
	better := func(x, y float64) bool { return (x < y) != higherBetter && x != y }
	allBetter := better(slices.Max(next), slices.Min(base))
	if higherBetter {
		allBetter = better(slices.Min(next), slices.Max(base))
	}
	switch {
	case allBetter:
		v.verdict = "better"
	case v.spread > bound:
		v.verdict = "unresolved"
	case v.worse > bound:
		v.verdict = "REGRESSED"
	default:
		v.verdict = "ok"
	}
	return v
}

// quartiles returns Q1, the median and Q3 the way Python's
// statistics.quantiles(data, n=4) computes them (the exclusive method).
func quartiles(data []float64) [3]float64 {
	d := append([]float64(nil), data...)
	sort.Float64s(d)
	n := len(d)
	if n == 1 {
		return [3]float64{d[0], d[0], d[0]}
	}
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		out[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return out
}
