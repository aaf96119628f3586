// Command horus-runtime runs application workloads on the simulated EPD
// machine: pick a workload class, a persistence domain (ADR vs EPD) and a
// drain design, run it, optionally crash mid-flight and recover, and print
// the run-time statistics that motivate the paper (§I, §II-A).
//
// Examples:
//
//	horus-runtime -workload kv -domain adr
//	horus-runtime -workload txlog -domain epd -crash -scheme horus-dlm
//	horus-runtime -workload zipf -compare-domains
package main

import (
	"flag"
	"fmt"
	"os"

	horus "repro"
	"repro/internal/cliutil"
	"repro/internal/report"
)

func main() {
	var (
		wlFlag     = flag.String("workload", "kv", "kv | txlog | zipf | uniform | sequential | graph")
		domainFlag = flag.String("domain", "epd", "adr | wpq | epd")
		schemeFlag = flag.String("scheme", "horus-slm", "drain design used on crash")
		ops        = flag.Int("ops", 20000, "operations to run")
		wsKB       = flag.Int("ws", 256, "working set in KB")
		persist    = flag.Int("persist", 25, "percent of writes followed by a persist")
		seed       = flag.Int64("seed", 1, "workload seed")
		crash      = flag.Bool("crash", false, "crash after the run, drain, and recover")
		compare    = flag.Bool("compare-domains", false, "run on both ADR and EPD and compare")
	)
	tf := cliutil.AddTraceFlags()
	cliutil.Main("horus-runtime", false, func(env *cliutil.Env) (int, error) {
		cfg, err := env.Config(horus.TestConfig())
		if err != nil {
			return cliutil.ExitFail, err
		}
		cfg.Timeline = tf.Recorder()
		wl, err := cliutil.MakeWorkload(*wlFlag, horus.WorkloadConfig{
			Ops: *ops, WorkingSet: uint64(*wsKB) << 10, Seed: *seed, PersistPercent: *persist,
		})
		if err != nil {
			return cliutil.ExitFail, err
		}
		scheme, err := cliutil.ParseScheme(*schemeFlag)
		if err != nil {
			return cliutil.ExitFail, err
		}

		if *compare {
			t := &report.Table{
				Title:  fmt.Sprintf("%s: run-time cost by persistence domain", wl.Name),
				Header: []string{"domain", "time", "persist flushes", "mem misses", "writebacks"},
			}
			var times [3]float64
			for i, d := range []horus.PersistDomain{horus.DomainADR, horus.DomainADRWPQ, horus.DomainEPD} {
				st, err := runOn(cfg, scheme, d, wl)
				if err != nil {
					return cliutil.ExitFail, err
				}
				times[i] = st.Time.Seconds()
				t.AddRow(d.String(), st.Time.String(), report.Count(st.PersistFlush),
					report.Count(st.MissesToMem), report.Count(st.Writebacks))
			}
			t.AddNote("EPD speedup over ADR: %.2fx; WPQ recovers %.0f%% of the gap", times[0]/times[2], 100*(times[0]-times[1])/(times[0]-times[2]))
			t.Fprint(os.Stdout)
			env.PrintSpans() // Main's epilogue prints the metrics line after it
			return cliutil.ExitOK, nil
		}

		domain, err := cliutil.ParseDomain(*domainFlag)
		if err != nil {
			return cliutil.ExitFail, err
		}
		ws := horus.NewWorkloadSystem(cfg, scheme, domain)
		if err := ws.Run(wl); err != nil {
			return cliutil.ExitFail, err
		}
		st := ws.Stats()
		fmt.Printf("workload:        %s\n", wl)
		fmt.Printf("domain:          %v, scheme: %v\n", domain, scheme)
		fmt.Printf("simulated time:  %v\n", st.Time)
		fmt.Printf("cache hits:      %v\n", st.HitsPerLevel)
		fmt.Printf("memory misses:   %s, writebacks: %s\n", report.Count(st.MissesToMem), report.Count(st.Writebacks))
		fmt.Printf("persists:        %s (%s flushed, %s free)\n",
			report.Count(st.Persists), report.Count(st.PersistFlush), report.Count(st.PersistElided))

		if !*crash {
			// Without a crash the timeline holds the run phase only (no drain
			// episode brackets it); export covers those events as recorded.
			if err := writeTimeline(tf, cfg.Timeline, cfg.Metrics); err != nil {
				return cliutil.ExitFail, err
			}
			env.PrintSpans()
			return cliutil.ExitOK, nil
		}
		res, golden, err := ws.CrashAndDrain()
		if err != nil {
			return cliutil.ExitFail, err
		}
		fmt.Printf("\ncrash: drained %s dirty lines in %v (%s writes, %s MACs)\n",
			report.Count(int64(res.BlocksDrained)), res.DrainTime,
			report.Count(res.MemWrites.Total()), report.Count(res.TotalMACs()))
		if err := writeTimeline(tf, cfg.Timeline, cfg.Metrics); err != nil {
			return cliutil.ExitFail, err
		}
		rec, err := ws.Recover(res.Persist)
		if err != nil {
			return cliutil.ExitFail, err
		}
		ok := 0
		for addr, want := range golden {
			if got, err := ws.Machine.Read(addr); err == nil && got == want {
				ok++
			}
		}
		fmt.Printf("recovered in %v; verified %d/%d pre-crash values\n", rec.Time(), ok, len(golden))
		env.PrintSpans()
		return cliutil.ExitOK, nil
	})
}

// writeTimeline prints the attribution and exports the Chrome trace when
// tracing is enabled. With -crash the recording covers the drain episode;
// without it, the run phase.
func writeTimeline(tf *cliutil.TraceFlags, tl *horus.TimelineRecorder, reg *horus.MetricsRegistry) error {
	if !tf.Enabled() {
		return nil
	}
	rec := tl.Recording()
	if tf.Attrib {
		att := horus.AnalyzeTimeline(rec)
		att.Publish(reg)
		fmt.Println()
		report.AttributionTable(att).Fprint(os.Stdout)
		fmt.Println()
		report.Gantt(rec).Fprint(os.Stdout)
	}
	if tf.Path != "" {
		if err := tf.WriteTrace(rec); err != nil {
			return err
		}
		fmt.Printf("timeline: %d events to %s (%d dropped)\n", len(rec.Events), tf.Path, rec.Dropped)
	}
	return nil
}

func runOn(cfg horus.Config, scheme horus.Scheme, d horus.PersistDomain, wl *horus.Workload) (horus.RunStats, error) {
	ws := horus.NewWorkloadSystem(cfg, scheme, d)
	if err := ws.Run(wl); err != nil {
		return horus.RunStats{}, err
	}
	return ws.Stats(), nil
}
