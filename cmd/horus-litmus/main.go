// Command horus-litmus runs the persistency-litmus reordering checker and the
// corruption-detection coverage sweep. It records one fault-free drain per
// secure scheme, segments the recorded NVM writes into persist epochs (between
// ordering barriers), and explores admissible write reorderings within each
// epoch — exhaustively for small epochs, seeded sampling plus adversarial
// heuristics for large ones. Every ordering is materialised as a crash image
// and pushed through recovery: each must end in exact restoration, authentic
// partial state, or a typed detection error. The coverage sweep then corrupts
// the completed drain image (bit flips, bursts, whole lines, rollback replays)
// region by region and reports per-scheme detection probabilities.
//
// A silent-corruption witness fails the run (exit 1) and prints the minimized
// ordering trace that reproduces it.
//
// Examples:
//
//	horus-litmus                                   # all secure schemes, all models
//	horus-litmus -scheme slm -epochs 4             # one scheme, thinned epochs
//	horus-litmus -max-orderings 256 -parallel 8    # deeper sampling
//	horus-litmus -corrupt single-bit,rollback      # narrower coverage sweep
//	horus-litmus -csv cells.csv -coverage-csv cov.csv
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
		schemeFlag = flag.String("scheme", "secure", "comma-separated drain designs to check, or \"secure\" for all four secure ones")
		corrupt    = flag.String("corrupt", "all", "comma-separated corruption models: single-bit, multi-bit, burst, whole-line, rollback, rollback-group (\"all\", or \"none\" to skip the coverage sweep)")
		trials     = flag.Int("trials", 0, "corruption trials per (scheme, model, target) cell (0 = 6)")
		workload   = flag.String("workload", "uniform", "workload shape: kv|txlog|zipf|uniform|sequential|graph")
		ops        = flag.Int("ops", 4000, "workload operations before the crash episode")
		scaleFlag  = flag.String("scale", "test", "paper (Table I scale) | test (scaled down)")
		seed       = flag.Int64("seed", 1, "base seed; ordering and trial seeds derive deterministically from it")
		epochs     = flag.Int("epochs", 0, "cap explored epochs per scheme, evenly thinned keeping first and last (0 = all)")
		maxOrd     = flag.Int("max-orderings", 0, "distinct-ordering target per sampled epoch (0 = 128)")
		exhaustive = flag.Int("exhaustive", 0, "largest epoch enumerated exhaustively instead of sampled (0 = 5 writes)")
		parallel   = flag.Int("parallel", 0, "cell workers (0 = GOMAXPROCS); verdicts are identical at any setting")
		timeout    = flag.Duration("timeout", 0, "abort the sweep after this long (0 = no limit)")
		csvPath    = flag.String("csv", "", "write the per-ordering cell table as CSV to this file")
		covCSV     = flag.String("coverage-csv", "", "write the coverage table as CSV to this file")
		cells      = flag.Bool("cells", false, "print the per-ordering cell table, not just the summaries")
		explain    = flag.Bool("explain", false, "print the detection-forensics table (failing check, region and provenance per detected cell or trial)")
	)
	cliutil.Main("horus-litmus", true, func(env *cliutil.Env) (int, error) {
		ctx := env.Context()
		cfg, schemes, err := env.OracleConfig(*scaleFlag, *seed, *schemeFlag)
		if err != nil {
			return cliutil.ExitFail, err
		}

		lc := horus.LitmusConfig{
			Config:           cfg,
			Schemes:          schemes,
			MaxOrderings:     *maxOrd,
			ExhaustiveWrites: *exhaustive,
			MaxEpochs:        *epochs,
			CorruptTrials:    *trials,
		}
		lc.Corrupt, err = horus.ParseCorruptionModels(*corrupt)
		if err != nil {
			return cliutil.ExitFail, err
		}
		lc.NewWorkload, err = cliutil.WorkloadFunc(*workload, horus.WorkloadConfig{
			Ops:            *ops,
			WorkingSet:     1 << 20,
			PersistPercent: 10,
		})
		if err != nil {
			return cliutil.ExitFail, err
		}

		rep, err := horus.RunLitmus(ctx, lc, horus.SweepOptions{
			Parallel: *parallel, Timeout: *timeout, Progress: env.Telemetry.ProgressFunc(),
		})
		if err != nil {
			return cliutil.ExitFail, err
		}

		if *cells {
			rep.CellTable().Fprint(os.Stdout)
		}
		rep.OrderingTable().Fprint(os.Stdout)
		if len(rep.Coverage) > 0 {
			fmt.Println()
			rep.CoverageTable().Fprint(os.Stdout)
		}
		if *explain {
			fmt.Println()
			rep.ForensicTable().Fprint(os.Stdout)
		}

		if *csvPath != "" {
			if err := cliutil.WriteFile(*csvPath, rep.CellTable().WriteCSV); err != nil {
				return cliutil.ExitFail, err
			}
			fmt.Printf("ordering cells: %d rows to %s\n", len(rep.Cells), *csvPath)
		}
		if *covCSV != "" {
			if err := cliutil.WriteFile(*covCSV, rep.CoverageTable().WriteCSV); err != nil {
				return cliutil.ExitFail, err
			}
			fmt.Printf("coverage cells: %d rows to %s\n", len(rep.Coverage), *covCSV)
		}

		return env.OracleExit(cfg, horus.LitmusSLORules(), rep.Ok(), func() {
			fmt.Fprintf(os.Stderr, "horus-litmus: %d contract violations across %d ordering and %d coverage cells\n",
				len(rep.Failures()), len(rep.Cells), len(rep.Coverage))
			if w := rep.Witness; w != nil {
				fmt.Fprintf(os.Stderr, "minimized witness for %s (%d of %d writes suffice):\n",
					w.Cell.Label(), len(w.Applied), w.Cell.EpochWrites)
				for _, line := range w.Trace {
					fmt.Fprintf(os.Stderr, "  %s\n", line)
				}
			}
		}, fmt.Sprintf("ok: %d orderings and %d coverage cells, zero silent corruption", len(rep.Cells), len(rep.Coverage)))
	})
}
