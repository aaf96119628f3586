// Command horus-fleet runs the fleet-scale cluster simulation: N
// heterogeneous machines (mixed schemes, LLC sizes, bank counts, battery
// volumes) serve a routed session load, scheduled power failures cut
// whole racks at once, simultaneous drains compete for the rack power
// budget, and the recovery storm is measured end to end. Every affected
// machine must end restored, partial or detected — a silent machine
// fails the run (exit 1); a blown storm or drain-p99 budget exits 2.
//
// Examples:
//
//	horus-fleet                                      # 16 machines, 4 racks, reference outages
//	horus-fleet -machines 32 -racks 8 -router least  # bigger fleet, least-loaded routing
//	horus-fleet -outages "1ms:2ms:0; 10ms:1ms:all"   # rack outage then site-wide outage
//	horus-fleet -storm-slo 5ms -drain-slo 2ms        # budget the storm and the p99 drain
//	horus-fleet -gantt -machines-table -csv fleet.csv
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	horus "repro"
	"repro/internal/cliutil"
	"repro/internal/cluster"
)

func main() {
	var (
		machines  = flag.Int("machines", 16, "fleet size")
		racks     = flag.Int("racks", 4, "power domains; a rack-level outage cuts every machine of the rack")
		seed      = flag.Int64("seed", 42, "fleet seed; machine seeds derive deterministically from it")
		scaleFlag = flag.String("scale", "test", "per-machine configuration scale: paper (Table I) | test (scaled down)")
		schemes   = flag.String("schemes", "", "comma-separated drain designs to cycle across machines (default: all four secure ones)")
		workloads = flag.String("workloads", "", "comma-separated workload shapes to cycle across machines: uniform|seq|zipf|kv|txlog|graph (default: uniform,kv,txlog,zipf)")

		sessions = flag.Int("sessions", 64, "client sessions the router spreads over the horizon")
		opsPer   = flag.Int("ops-per-session", 8, "workload operations each routed session adds to its machine")
		baseOps  = flag.Int("base-ops", 64, "workload operations every machine runs regardless of routing")
		horizon  = flag.Duration("horizon", 20*time.Millisecond, "session-arrival horizon on the fleet clock")
		router   = flag.String("router", "rr", "session-placement policy: rr | hash | least")
		failover = flag.Bool("failover", true, "reroute sessions whose first-choice machine sits in a dark rack")

		outages   = flag.String("outages", "1ms:2ms:0; 10ms:1ms:all", "outage schedule: \"at:duration:racks\" entries separated by ';' (racks = \"all\" or comma-separated IDs; duration 0s = power blip)")
		rackPower = flag.Float64("rack-power", 250, "rack drain power budget in watts; drains queue behind it (0 = uncapped)")
		slots     = flag.Int("recovery-slots", 4, "fleet-wide concurrent recovery slots gating the storm (0 = uncapped)")
		tech      = flag.String("battery-tech", "supercap", "per-machine battery technology resolving spec volumes: supercap | li-thin")

		stormSLO = flag.Duration("storm-slo", 0, "recovery-storm budget: power back to last machine serving (0 = no budget)")
		drainSLO = flag.Duration("drain-slo", 0, "fleet p99 drain-latency budget, rack queueing included (0 = no budget)")

		machTable = flag.Bool("machines-table", false, "print the per-machine episode table")
		gantt     = flag.Bool("gantt", false, "print the recovery-storm ASCII Gantt")
		csvPath   = flag.String("csv", "", "write the per-machine episode table as CSV to this file")
		parallel  = flag.Int("parallel", 0, "measurement workers (0 = GOMAXPROCS); fleet results are identical at any setting")
		timeout   = flag.Duration("timeout", 0, "abort the fleet run after this long (0 = no limit)")
	)
	bf := cliutil.AddBatteryFlags("rack-", "rack")
	cliutil.Main("horus-fleet", true, func(env *cliutil.Env) (int, error) {
		ctx := env.Context()
		base, err := cliutil.ParseScale(*scaleFlag)
		if err != nil {
			return cliutil.ExitFail, err
		}
		base.Seed = *seed
		cfg, err := env.Config(base)
		if err != nil {
			return cliutil.ExitFail, err
		}
		// The fleet-no-silent SLO always runs; it needs the recorded verdict
		// series even without -ts or -serve.
		env.RequireTimeseries(&cfg)

		gen := cluster.GenerateOptions{Machines: *machines, Racks: *racks, Seed: *seed}
		if gen.Schemes, err = cliutil.ParseSchemes(*schemes); err != nil {
			return cliutil.ExitFail, err
		}
		if *workloads != "" {
			known := strings.Join(horus.FleetWorkloadNames(), "|")
			for _, name := range strings.Split(*workloads, ",") {
				name = strings.TrimSpace(name)
				if !knownWorkload(name) {
					return cliutil.ExitFail, fmt.Errorf("unknown workload %q (want %s)", name, known)
				}
				gen.Workloads = append(gen.Workloads, name)
			}
		}
		fleet, err := cluster.Generate(gen)
		if err != nil {
			return cliutil.ExitFail, err
		}
		sched, err := cluster.ParseSchedule(*outages, fleet.Racks)
		if err != nil {
			return cliutil.ExitFail, err
		}
		pol, err := cluster.ParsePolicy(*router)
		if err != nil {
			return cliutil.ExitFail, err
		}
		rackJ, err := bf.BudgetJoules()
		if err != nil {
			return cliutil.ExitFail, err
		}

		fc := horus.FleetConfig{
			Fleet:         fleet,
			Base:          cfg,
			Sessions:      *sessions,
			OpsPerSession: *opsPer,
			BaseOps:       *baseOps,
			HorizonPs:     horizon.Nanoseconds() * 1000,
			Router:        pol,
			Failover:      *failover,
			Schedule:      sched,
			Loop: cluster.LoopConfig{
				RackPowerW:    *rackPower,
				RackBatteryJ:  rackJ,
				RecoverySlots: *slots,
			},
			BatteryTech: *tech,
		}
		rep, err := horus.RunFleet(ctx, fc, horus.SweepOptions{
			Parallel: *parallel, Timeout: *timeout, Progress: env.Telemetry.ProgressFunc(),
		})
		if err != nil {
			return cliutil.ExitFail, err
		}

		cluster.SummaryTable(fleet, fc.Loop, rep.Metrics, rep.Routes).Fprint(os.Stdout)
		fmt.Println()
		cluster.StormTable(rep.Result).Fprint(os.Stdout)
		if *machTable {
			fmt.Println()
			cluster.MachineTable(fleet, rep.Runs(), rep.Result).Fprint(os.Stdout)
		}
		if *gantt {
			fmt.Println()
			cluster.StormGantt(fleet, rep.Result).Fprint(os.Stdout)
		}
		if *csvPath != "" {
			if err := cliutil.WriteFile(*csvPath, cluster.MachineTable(fleet, rep.Runs(), rep.Result).WriteCSV); err != nil {
				return cliutil.ExitFail, err
			}
			fmt.Printf("machine table: %d rows to %s\n", len(rep.Machines), *csvPath)
		}
		if err := env.WriteMetrics("metrics:"); err != nil {
			return cliutil.ExitFail, err
		}

		// The fleet oracle SLO always runs over the recorded series; the storm
		// and drain-p99 budgets join it when set.
		slo := horus.EvaluateSLO(
			horus.FleetSLORules(stormSLO.Nanoseconds()*1000, drainSLO.Nanoseconds()*1000),
			cfg.Timeseries.Snapshot())
		if !slo.Ok() || *stormSLO > 0 || *drainSLO > 0 {
			fmt.Println()
			slo.Table().Fprint(os.Stdout)
		}
		if err := env.Finish(); err != nil {
			return cliutil.ExitFail, err
		}

		// Oracle violations outrank SLO ones: a silently-corrupt machine is a
		// correctness failure (exit 1), a blown budget an objective miss (exit 2).
		if fails := rep.Failures(); len(fails) > 0 {
			for _, m := range fails {
				fmt.Fprintf(os.Stderr, "horus-fleet: machine %s (%s): %s — %s\n",
					m.Spec.Name, m.Spec.Scheme, m.Outcome, m.Detail)
			}
			fmt.Fprintf(os.Stderr, "horus-fleet: %d of %d machines violated the recovery contract\n",
				len(fails), len(rep.Machines))
			return cliutil.ExitFail, nil
		}
		if !slo.Ok() || len(rep.Result.BatteryExceeded) > 0 {
			for _, rack := range rep.Result.BatteryExceeded {
				fmt.Fprintf(os.Stderr, "horus-fleet: rack %d drains overdrew the rack battery budget\n", rack)
			}
			fmt.Fprintln(os.Stderr, "horus-fleet: fleet SLO violated")
			return cliutil.ExitSLO, nil
		}
		fmt.Printf("ok: %d machines, %d outage cycles, zero silent machines\n",
			len(rep.Machines), rep.Metrics.Cycles)
		return cliutil.ExitOK, nil
	})
}

// knownWorkload reports whether name is a fleet workload spec.
func knownWorkload(name string) bool {
	for _, w := range horus.FleetWorkloadNames() {
		if name == w {
			return true
		}
	}
	return false
}
