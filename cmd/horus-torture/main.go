// Command horus-torture runs the crash-matrix fault-injection harness: for
// each secure scheme it counts the persist-ordering steps of one drain
// episode, then replays the episode once per (step, fault flavor) pair,
// crashing at that step and running recovery. Every cell must end in exact
// restoration, authentic partial state, or a typed detection error — a
// SILENT-CORRUPTION or INTERNAL-ERROR cell fails the run (exit 1).
//
// Examples:
//
//	horus-torture                              # full matrix, all secure schemes
//	horus-torture -scheme slm -flavors cut     # one column
//	horus-torture -stride 5 -max-points 20     # sampled (CI short mode)
//	horus-torture -csv cells.csv -parallel 8   # machine-readable cell table
package main

import (
	"flag"
	"fmt"
	"os"

	horus "repro"
	"repro/internal/cliutil"
)

func main() {
	var (
		schemeFlag = flag.String("scheme", "secure", "comma-separated drain designs to torture, or \"secure\" for all four secure ones")
		flavorFlag = flag.String("flavors", "all", "comma-separated fault flavors: clean-cut, torn-write, bit-flip, dropped-write (or \"all\")")
		workload   = flag.String("workload", "uniform", "workload shape: kv|txlog|zipf|uniform|sequential|graph")
		ops        = flag.Int("ops", 120, "workload operations before the crash episode")
		scaleFlag  = flag.String("scale", "test", "paper (Table I scale) | test (scaled down)")
		seed       = flag.Int64("seed", 1, "base seed; cell seeds derive deterministically from it")
		stride     = flag.Int("stride", 0, "crash at every stride-th step instead of every step (0 = every step)")
		maxPoints  = flag.Int("max-points", 0, "cap crash points per scheme, evenly spaced (0 = no cap)")
		parallel   = flag.Int("parallel", 0, "cell workers (0 = GOMAXPROCS); verdicts are identical at any setting")
		timeout    = flag.Duration("timeout", 0, "abort the matrix after this long (0 = no limit)")
		csvPath    = flag.String("csv", "", "write the per-crash-point cell table as CSV to this file")
		cells      = flag.Bool("cells", false, "print the per-crash-point cell table, not just the summary")
		explain    = flag.Bool("explain", false, "print the detection-forensics table (failing check, region and provenance per detected cell)")
	)
	cliutil.Main("horus-torture", true, func(env *cliutil.Env) (int, error) {
		ctx := env.Context()
		cfg, schemes, err := env.OracleConfig(*scaleFlag, *seed, *schemeFlag)
		if err != nil {
			return cliutil.ExitFail, err
		}

		tc := horus.TortureConfig{
			Config:    cfg,
			Schemes:   schemes,
			Stride:    *stride,
			MaxPoints: *maxPoints,
		}
		tc.Flavors, err = horus.ParseCrashFlavors(*flavorFlag)
		if err != nil {
			return cliutil.ExitFail, err
		}
		tc.NewWorkload, err = cliutil.WorkloadFunc(*workload, horus.WorkloadConfig{
			Ops:            *ops,
			WorkingSet:     4 << 10,
			PersistPercent: 10,
		})
		if err != nil {
			return cliutil.ExitFail, err
		}

		rep, err := horus.RunTortureMatrix(ctx, tc, horus.SweepOptions{
			Parallel: *parallel, Timeout: *timeout, Progress: env.Telemetry.ProgressFunc(),
		})
		if err != nil {
			return cliutil.ExitFail, err
		}

		if *cells {
			rep.CellTable().Fprint(os.Stdout)
		}
		rep.Table().Fprint(os.Stdout)
		if *explain {
			fmt.Println()
			rep.ForensicTable().Fprint(os.Stdout)
		}

		if *csvPath != "" {
			if err := cliutil.WriteFile(*csvPath, rep.CellTable().WriteCSV); err != nil {
				return cliutil.ExitFail, err
			}
			fmt.Printf("cell table: %d rows to %s\n", len(rep.Cells), *csvPath)
		}

		return env.OracleExit(cfg, horus.TortureSLORules(), rep.Ok(), func() {
			fmt.Fprintf(os.Stderr, "horus-torture: %d of %d cells violated the recovery contract\n",
				len(rep.Failures()), len(rep.Cells))
		}, fmt.Sprintf("ok: %d cells, zero silent corruption", len(rep.Cells)))
	})
}
