// Command horus-plan is the EPD battery planner: a closed-form sizing of
// the worst-case draining episode — hold-up time, energy and back-up
// storage volume — for each drain design, without running the simulator.
// This is the platform-provisioning exercise the paper motivates: the PSU
// hold-up (Intel requires >= 10 ms for eADR) and battery volume must cover
// the worst case, and the choice of secure-drain design moves them by ~5x.
//
// Examples:
//
//	horus-plan                 # Table I platform, all designs
//	horus-plan -llc 512        # a 512 MB V-Cache-class part
//	horus-plan -validate       # also simulate and show estimate error
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
		llcMB    = flag.Int("llc", 16, "last-level cache size in MB")
		memGB    = flag.Int("mem", 32, "protected NVM capacity in GB")
		banks    = flag.Int("banks", 16, "NVM banks")
		validate = flag.Bool("validate", false, "also run the simulator and report estimate error (slow)")
		parallel = flag.Int("parallel", 0, "validation episode workers (0 = GOMAXPROCS)")
		timeout  = flag.Duration("timeout", 0, "abort validation runs longer than this (0 = no limit)")
	)
	cliutil.Main("horus-plan", false, func(env *cliutil.Env) (int, error) {
		base := horus.DefaultConfig()
		base.LLCBytes = *llcMB << 20
		base.DataSize = uint64(*memGB) << 30
		base.Mem.Banks = *banks
		cfg, err := env.Config(base)
		if err != nil {
			return cliutil.ExitFail, err
		}

		t := &report.Table{
			Title: fmt.Sprintf("EPD battery plan: %d MB LLC over %d GB NVM (%d banks)",
				*llcMB, *memGB, *banks),
			Header: []string{"design", "hold-up", "writes", "reads", "energy", "SuperCap", "Li-thin"},
		}
		for _, s := range horus.AllSchemes() {
			p := horus.PlanBattery(cfg, s)
			t.AddRow(s.String(),
				p.DrainTime.String(),
				report.Count(p.Writes),
				report.Count(p.Reads),
				report.Joules(p.EnergyJ),
				report.Cm3(p.SuperCapCm3),
				report.Cm3(p.LiThinCm3))
		}
		t.AddNote("closed-form worst-case estimates; run with -validate to compare against simulation")
		t.Fprint(os.Stdout)

		if !*validate {
			return cliutil.ExitOK, nil
		}
		vals, err := horus.ValidatePlans(env.Context(), cfg, horus.AllSchemes(),
			horus.SweepOptions{Parallel: *parallel, Timeout: *timeout})
		if err != nil {
			return cliutil.ExitFail, err
		}
		v := &report.Table{
			Title:  "Validation against simulation",
			Header: []string{"design", "est. hold-up", "simulated", "error"},
		}
		for _, pv := range vals {
			v.AddRow(pv.Scheme.String(), pv.Plan.DrainTime.String(), pv.Simulated.DrainTime.String(),
				fmt.Sprintf("%+.0f%%", pv.ErrorPct))
		}
		v.Fprint(os.Stdout)
		if env.Metrics.Enabled() {
			report.SpanTree(cfg.Metrics).Fprint(os.Stdout)
		}
		return cliutil.ExitOK, nil
	})
}
