// Command horus-drain runs one EPD draining episode and reports the
// metrics the paper's evaluation is built on: draining time, per-category
// memory accesses, per-category MAC calculations, energy, and battery size.
//
// Examples:
//
//	horus-drain -scheme horus-slm
//	horus-drain -scheme base-lu -llc 32 -compare
//	horus-drain -scale test -scheme horus-dlm -v
//	horus-drain -scale test -scheme horus-dlm -trace drain.json -trace-attrib
//	horus-drain -scale test -scheme horus-slm -trace-energy -battery-cm3 2e-5 -battery-tech supercap
//	horus-drain -scale test -scheme horus-slm -serve :8080 -serve-linger 30s
package main

import (
	"flag"
	"fmt"
	"os"

	horus "repro"
	"repro/internal/cliutil"
	"repro/internal/energy"
	"repro/internal/report"
	"repro/internal/trace"
)

func main() {
	var (
		schemeFlag  = flag.String("scheme", "horus-slm", "drain design: non-secure | base-lu | base-eu | horus-slm | horus-dlm")
		scaleFlag   = flag.String("scale", "paper", "configuration scale: paper (Table I, 32GB/16MB) | test (scaled down)")
		llcMB       = flag.Int("llc", 0, "override LLC size in MB (paper scale only)")
		seed        = flag.Int64("seed", 1, "fill/flush seed")
		shuffle     = flag.Bool("shuffle", false, "shuffle the flush order (harsher than the paper's in-order flush)")
		compareFlag = flag.Bool("compare", false, "also run the non-secure reference and print ratios")
		verbose     = flag.Bool("v", false, "print per-category breakdowns")
		traceFile   = flag.String("access-trace", "", "write a CSV trace of every memory access to this file")
		traceLimit  = flag.Int("access-trace-limit", 2_000_000, "maximum access-trace events retained (0 = unlimited)")
		traceEnergy = flag.Bool("trace-energy", false, "print a sparkline of the energy drawdown over the drain (records time series)")
	)
	bf := cliutil.AddBatteryFlags("", "drain")
	tf := cliutil.AddTraceFlags()
	cliutil.Main("horus-drain", false, func(env *cliutil.Env) (int, error) {
		base, err := cliutil.ParseScale(*scaleFlag)
		if err != nil {
			return cliutil.ExitFail, err
		}
		base.Seed = *seed
		base.FlushShuffle = *shuffle
		if *llcMB > 0 {
			base.LLCBytes = *llcMB << 20
		}
		scheme, err := cliutil.ParseScheme(*schemeFlag)
		if err != nil {
			return cliutil.ExitFail, err
		}
		budgetJ, err := bf.BudgetJoules()
		if err != nil {
			return cliutil.ExitFail, err
		}
		base.BatteryJoules = budgetJ
		cfg, err := env.Config(base)
		if err != nil {
			return cliutil.ExitFail, err
		}
		cfg.Timeline = tf.Recorder()
		if *traceEnergy || budgetJ > 0 {
			// Energy tracing and the drain SLOs both need the recorded series
			// even when neither -ts nor -serve asked for an export.
			env.RequireTimeseries(&cfg)
		}

		sys := horus.NewSystem(cfg, scheme)
		var rec *trace.Recorder
		if *traceFile != "" {
			rec = trace.NewRecorder(*traceLimit)
			sys.Core.NVM.SetObserver(rec)
		}
		if err := sys.Warmup(); err != nil {
			return cliutil.ExitFail, err
		}
		sys.Fill()
		if rec != nil {
			rec.Reset() // trace the drain only, not the warm-up
		}
		res, err := sys.Drain()
		if err != nil {
			return cliutil.ExitFail, err
		}
		printResult(cfg, res, *verbose)
		if tf.Enabled() {
			tlRec := cfg.Timeline.Recording()
			if tf.Attrib {
				att := horus.AnalyzeTimeline(tlRec)
				att.Publish(cfg.Metrics, "scheme", res.Scheme.String())
				fmt.Println()
				report.AttributionTable(att).Fprint(os.Stdout)
				fmt.Println()
				report.Gantt(tlRec).Fprint(os.Stdout)
			}
			if tf.Path != "" {
				if err := tf.WriteTrace(tlRec); err != nil {
					return cliutil.ExitFail, err
				}
				fmt.Printf("timeline:       %d events to %s (%d dropped)\n",
					len(tlRec.Events), tf.Path, tlRec.Dropped)
			}
		}
		env.PrintSpans()
		if err := env.WriteMetrics("metrics:       "); err != nil {
			return cliutil.ExitFail, err
		}
		if rec != nil {
			if err := cliutil.WriteFile(*traceFile, rec.WriteCSV); err != nil {
				return cliutil.ExitFail, err
			}
			fmt.Printf("trace:          %d events to %s (%d dropped)\n", rec.Len(), *traceFile, rec.Dropped())
		}

		if *compareFlag && scheme != horus.NonSecure {
			nsCfg := cfg
			nsCfg.Timeseries = nil // reference run: keep the episode's series clean
			ns, err := horus.RunDrain(nsCfg, horus.NonSecure)
			if err != nil {
				return cliutil.ExitFail, err
			}
			fmt.Printf("vs non-secure: %.2fx memory accesses, %.2fx draining time\n",
				float64(res.TotalMemAccesses())/float64(ns.TotalMemAccesses()),
				float64(res.DrainTime)/float64(ns.DrainTime))
		}

		sloOK := true
		if cfg.Timeseries != nil {
			snap := cfg.Timeseries.Snapshot()
			if *traceEnergy {
				fmt.Println()
				for _, s := range snap.Find("horus_ts_energy_j") {
					fmt.Println(report.SparklineChart("energy drawdown", s.Values(), 60, report.Joules))
				}
				if budgetJ > 0 {
					fmt.Printf("battery budget: %s (drain deadline %v)\n",
						report.Joules(budgetJ), energy.DrainDeadline(cfg.Energy, budgetJ))
				}
			}
			if budgetJ > 0 {
				rep := horus.EvaluateSLO(horus.DrainSLORules(cfg, budgetJ), snap)
				fmt.Println()
				rep.Table().Fprint(os.Stdout)
				sloOK = rep.Ok()
			}
		}
		if err := env.Finish(); err != nil {
			return cliutil.ExitFail, err
		}
		if !sloOK {
			fmt.Fprintln(os.Stderr, "horus-drain: drain SLO violated")
			return cliutil.ExitSLO, nil
		}
		return cliutil.ExitOK, nil
	})
}

func printResult(cfg horus.Config, res horus.Result, verbose bool) {
	fmt.Printf("scheme:         %v\n", res.Scheme)
	fmt.Printf("blocks drained: %s\n", report.Count(int64(res.BlocksDrained)))
	fmt.Printf("draining time:  %v\n", res.DrainTime)
	fmt.Printf("memory reads:   %s\n", report.Count(res.MemReads.Total()))
	fmt.Printf("memory writes:  %s\n", report.Count(res.MemWrites.Total()))
	fmt.Printf("MAC calcs:      %s\n", report.Count(res.TotalMACs()))
	fmt.Printf("AES ops:        %s\n", report.Count(res.AESOps))
	b := cfg.EnergyOf(res)
	fmt.Printf("energy:         %s (processor %s, NVM writes %s, NVM reads %s)\n",
		report.Joules(b.Total()), report.Joules(b.ProcessorJ), report.Joules(b.NVMWriteJ), report.Joules(b.NVMReadJ))
	fmt.Printf("battery:        %s SuperCap, %s Li-thin\n",
		report.Cm3(energy.Volume(b.Total(), energy.SuperCap)),
		report.Cm3(energy.Volume(b.Total(), energy.LiThin)))
	if verbose {
		fmt.Printf("\nwrite breakdown: %v\n", res.MemWrites)
		fmt.Printf("read breakdown:  %v\n", res.MemReads)
		fmt.Printf("MAC breakdown:   %v\n", res.MACCalcs)
	}
}
