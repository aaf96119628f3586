// Command hostbench measures what the Horus simulator costs on the host: wall
// time, CPU time, allocations and live heap of paper-scale drains and
// recoveries, of the crash oracle (torture matrix plus litmus run), and of an
// instrumented Fig. 11 grid. Every pass checks its simulated outputs against
// pinned references and invariants, so a faster but wrong simulator fails.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash hostbench/run.sh --workload paper-horus --seed 1 --seconds 20 --trace 0
//	bash hostbench/run.sh --workload traced-grid --seed 7 --trace 1
//	bash hostbench/run.sh compare BASE_RESULTS NEW_RESULTS
//
// With --trace 0 the last stdout line is a JSON object carrying the
// end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
// separate traced run. See RATIONALE.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	// One process, every core: the paper workloads run the sharded drain
	// path with Config.Shards at its default (0 = GOMAXPROCS).
	runtime.GOMAXPROCS(runtime.NumCPU())

	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Int64("seed", 1, "input seed; 1 reproduces the results pinned in EXPERIMENTS.md")
		seconds = flag.Float64("seconds", 20, "measurement time for the timed passes")
		trace   = flag.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
		out     = flag.String("out", ".bench_build", "directory for result records and span traces")
	)
	flag.Parse()
	if flag.Arg(0) == "compare" {
		os.Exit(compareMain(flag.Args()[1:]))
	}
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		fatalf("unknown workload %q (want %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *trace != 0 && *trace != 1 {
		fatalf("-trace %d: want 0 or 1", *trace)
	}

	o := fullSize(*seed)
	var rep report
	var err error
	if *trace == 1 {
		var spans []span
		rep, spans, err = tracedRun(w, o)
		if err == nil {
			err = writeJSONFile(filepath.Join(*out, "traces", recordName(w.name, *seed, 1)), spans)
		}
	} else {
		rep, err = measure(w, o, *seconds)
	}
	if err != nil {
		fatalf("%s: %v", w.name, err)
	}
	rec := record{Workload: w.name, Trace: *trace, Config: hostConfigFor(o), report: rep}
	if err := writeJSONFile(filepath.Join(*out, "results", recordName(w.name, *seed, *trace)), rec); err != nil {
		fatalf("%v", err)
	}
	printReport(rec)
}

// recordName names a run's result or trace file; the timestamp keeps
// repeated runs of the same seed apart.
func recordName(workload string, seed int64, trace int) string {
	return fmt.Sprintf("%s-seed%d-trace%d-%d.json", workload, seed, trace, time.Now().UnixNano())
}

// printReport prints a readable summary, the configuration line, and as the
// last line the JSON result object.
func printReport(rec record) {
	fmt.Printf("workload %s, trace %d, %d passes, checks %d/%d ok\n",
		rec.Workload, rec.Trace, rec.Passes, rec.Attempted-rec.Failed, rec.Attempted)
	for _, f := range rec.Failures {
		fmt.Printf("  FAILED: %s\n", f)
	}
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rec.Metrics[n]
		fmt.Printf("  %-36s %14.6g %s\n", n, m.Value, m.Unit)
	}
	cfg, _ := json.Marshal(rec.Config)
	fmt.Printf("config %s\n", cfg)
	last, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rec.Failed == 0, rec.Attempted, rec.Failed, rec.Metrics})
	fmt.Println(string(last))
}

func writeJSONFile(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "hostbench: "+format+"\n", args...)
	os.Exit(1)
}
