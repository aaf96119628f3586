package horus

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"repro/internal/cluster"
	"repro/internal/energy"
	"repro/internal/hierarchy"
	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// FleetConfig parameterises a fleet-scale simulation: N heterogeneous
// machines (mixed schemes, LLC sizes, bank counts, battery volumes) served
// behind a request router, hit by scheduled power failures, with rack-level
// drain contention and a fleet-wide recovery storm (ROADMAP item 1,
// DESIGN.md §16).
type FleetConfig struct {
	// Fleet is the validated machine roster (cluster.Generate builds
	// heterogeneous ones deterministically from a seed).
	Fleet *cluster.Fleet
	// Base is the per-machine machine configuration; each machine derives
	// its own copy with its spec's LLC size, bank count, battery budget and
	// seed applied. Base.Metrics / Base.Timeseries, when set, receive the
	// fleet-level aggregates after the run (individual machines measure
	// uninstrumented, exactly like torture cells).
	Base Config
	// Sessions is how many client sessions the router spreads over the
	// horizon; OpsPerSession converts routed sessions into per-machine
	// workload length on top of BaseOps.
	Sessions      int
	OpsPerSession int
	BaseOps       int
	// WorkingSet is each machine's workload working-set size in bytes
	// (default 4 KB).
	WorkingSet uint64
	// HorizonPs is the routed time horizon on the fleet clock.
	HorizonPs int64
	// Router picks the session-placement policy; Failover reroutes
	// sessions whose first-choice machine sits in a dark rack.
	Router   cluster.RoutePolicy
	Failover bool
	// Schedule lists the power failures to play out.
	Schedule cluster.Schedule
	// Loop bounds the contention: rack power budget, rack battery budget,
	// fleet recovery slots.
	Loop cluster.LoopConfig
	// BatteryTech resolves each machine's BatteryCm3 into its private
	// drain budget ("supercap" by default, "li-thin" for Table III's other
	// column).
	BatteryTech string
}

// FleetMachine is one machine's measured episode: its spec, the drain and
// recovery measurements the event loop schedules from, the recovery
// oracle's verdict, and a digest of the post-drain NVM image (the
// cross-worker determinism witness).
type FleetMachine struct {
	Spec cluster.MachineSpec
	Run  cluster.MachineRun
	// Outcome is the oracle verdict; Detail explains non-clean ones.
	Outcome CrashOutcome
	Detail  string
	// ImageHash is an FNV-1a digest over the machine's sorted post-drain
	// NVM image. Byte-identical across worker counts.
	ImageHash uint64
	// Sessions is how many routed sessions landed on the machine;
	// Blocks how many dirty lines its drain flushed.
	Sessions int
	Blocks   int
}

// FleetReport is the full fleet-run verdict.
type FleetReport struct {
	Fleet    *cluster.Fleet
	Machines []FleetMachine
	Routes   cluster.RouteStats
	Result   *cluster.FleetResult
	Metrics  cluster.FleetMetrics
}

// Failures returns the machines violating the recoverability contract
// (silent corruption or harness error) — the fleet oracle: after any
// outage every machine must end restored, partial or detected, never
// silent.
func (r *FleetReport) Failures() []FleetMachine {
	var out []FleetMachine
	for _, m := range r.Machines {
		if !m.Outcome.OK() {
			out = append(out, m)
		}
	}
	return out
}

// Ok reports whether every machine satisfied the contract.
func (r *FleetReport) Ok() bool { return len(r.Failures()) == 0 }

// Runs extracts the measured episodes in machine ID order (the event
// loop's input).
func (r *FleetReport) Runs() []cluster.MachineRun {
	runs := make([]cluster.MachineRun, len(r.Machines))
	for i, m := range r.Machines {
		runs[i] = m.Run
	}
	return runs
}

// fleetWorkload builds a machine's workload stream by spec name. The names
// match cluster.Generate's defaults plus the remaining generators.
func fleetWorkload(name string, cfg WorkloadConfig) (*Workload, error) {
	switch name {
	case "uniform":
		return UniformWorkload(cfg), nil
	case "seq", "sequential":
		return SequentialWorkload(cfg), nil
	case "zipf":
		return ZipfWorkload(cfg, 1.1), nil
	case "kv":
		return KVStoreWorkload(cfg, 4), nil
	case "txlog":
		return TxLogWorkload(cfg, 4, 3), nil
	case "graph":
		return GraphWorkload(cfg, 4), nil
	}
	return nil, fmt.Errorf("horus: unknown fleet workload %q (want uniform, seq, zipf, kv, txlog or graph)", name)
}

// FleetWorkloadNames lists the spec names fleetWorkload accepts, for CLI
// validation.
func FleetWorkloadNames() []string {
	return []string{"uniform", "seq", "zipf", "kv", "txlog", "graph"}
}

// machineConfig derives one machine's private Config from the base: its
// LLC size, bank count, seed and battery budget applied, all shared sinks
// detached (machines measure in parallel and must share no mutable state).
func machineConfig(base Config, spec cluster.MachineSpec, tech string) Config {
	cfg := base
	cfg.Probe = probe.Probe{}
	cfg.Seed = spec.Seed
	if cfg.Hierarchy != nil {
		// Deep-copy the explicit hierarchy and resize its last level to the
		// machine's LLC; machines must not alias the base's level slice.
		h := *cfg.Hierarchy
		h.Levels = append([]hierarchy.LevelConfig(nil), h.Levels...)
		h.Levels[len(h.Levels)-1].SizeBytes = spec.LLCBytes
		cfg.Hierarchy = &h
	} else {
		cfg.LLCBytes = spec.LLCBytes
	}
	cfg.Mem.Banks = spec.Banks
	if spec.BatteryCm3 > 0 {
		if j, ok := BatteryBudgetJoules(spec.BatteryCm3, tech); ok {
			cfg.BatteryJoules = j
		}
	}
	return cfg
}

// measureMachine runs one machine's full local lifecycle: workload, power
// cut, drain, crash, oracle-verified recovery — and reduces it to the
// (drain time, drain energy, recovery time, verdict, image digest) tuple
// the fleet event loop schedules from.
func measureMachine(fc FleetConfig, spec cluster.MachineSpec, sessions int) (m FleetMachine) {
	m = FleetMachine{Spec: spec, Sessions: sessions}
	defer func() {
		if p := recover(); p != nil {
			m.Outcome = OutcomeInternalError
			m.Detail = fmt.Sprintf("panic: %v", p)
		}
		m.Run.Outcome = m.Outcome.String()
	}()

	cfg := machineConfig(fc.Base, spec, fc.BatteryTech)
	ws := NewWorkloadSystem(cfg, spec.Scheme, DomainEPD)

	ops := fc.BaseOps + sessions*fc.OpsPerSession
	workingSet := fc.WorkingSet
	if workingSet == 0 {
		workingSet = 4 << 10
	}
	w, err := fleetWorkload(spec.Workload, WorkloadConfig{
		Ops: ops, WorkingSet: workingSet, Seed: spec.Seed, PersistPercent: 10,
	})
	if err != nil {
		m.Outcome = OutcomeInternalError
		m.Detail = err.Error()
		return m
	}
	if err := ws.Run(w); err != nil {
		m.Outcome = OutcomeInternalError
		m.Detail = fmt.Sprintf("workload: %v", err)
		return m
	}

	res, blocks, err := ws.drain(nil)
	m.Blocks = len(blocks)
	if err != nil {
		m.Outcome = OutcomeInternalError
		m.Detail = fmt.Sprintf("drain: %v", err)
		return m
	}
	m.Run.DrainPs = int64(res.DrainTime)
	m.Run.DrainEnergyJ = cfg.EnergyOf(res).Total()

	// Power loss: volatile state gone, then the recovery oracle replays
	// the scheme's recovery path against the drained blocks and attributes
	// its simulated duration.
	ws.Crash()
	var recoverTime sim.Time
	m.Outcome, m.Detail, _, recoverTime = classifyOutcome(ws.Core, res.Persist, blocks, false)
	m.Run.RecoverPs = int64(recoverTime)
	m.ImageHash = nvmImageHash(ws)
	return m
}

// nvmImageHash digests the machine's post-drain NVM image: FNV-1a over
// (address, block bytes) in ascending address order. Store iteration runs
// in first-write order, so the addresses are sorted first: the digest is a
// pure function of the image's content, byte-identical at any worker count.
func nvmImageHash(ws *WorkloadSystem) uint64 {
	store := ws.Core.NVM.Store()
	addrs := store.AddressesInRange(0, math.MaxUint64)
	h := fnv.New64a()
	var buf [8]byte
	for _, a := range addrs {
		binary.LittleEndian.PutUint64(buf[:], a)
		h.Write(buf[:])
		b := store.ReadBlock(a)
		h.Write(b[:])
	}
	return h.Sum64()
}

// RunFleet executes the fleet simulation end to end:
//
//  1. Route the session load over the fleet (dark racks fail over or
//     reject).
//  2. Measure every machine's episode independently on the sweep worker
//     pool — per-machine derived seeds, no shared state, so the measured
//     tuples are byte-identical at any opts.Parallel.
//  3. Play the outage schedule through the deterministic shared-clock
//     event loop: rack power budgets serialise competing drains, recovery
//     slots bound the storm.
//  4. Aggregate fleet metrics (p99 drain/recovery, storm spans, rack
//     energy drawdown) into Base.Metrics and Base.Timeseries.
//
// The returned error covers harness failures only; oracle violations are
// reported via FleetReport.Failures, SLO violations via FleetSLORules over
// the recorded series.
func RunFleet(ctx context.Context, fc FleetConfig, opts SweepOptions) (*FleetReport, error) {
	f := fc.Fleet
	if err := f.Validate(); err != nil {
		return nil, err
	}
	if err := fc.Schedule.Validate(f.Racks); err != nil {
		return nil, err
	}
	if fc.BatteryTech == "" {
		fc.BatteryTech = "supercap"
	}
	if _, ok := energy.TechByName(fc.BatteryTech); !ok {
		return nil, fmt.Errorf("horus: unknown battery technology %q", fc.BatteryTech)
	}

	horizon := fc.HorizonPs
	if horizon <= 0 {
		horizon = 1
	}
	routes := cluster.RouteSessions(f, fc.Schedule, fc.Sessions, horizon, fc.Router, fc.Failover, fc.Base.Seed)

	episodes := make([]sweep.Episode, len(f.Machines))
	for i := range f.Machines {
		spec := f.Machines[i]
		sessions := routes.Sessions[i]
		episodes[i] = sweep.Episode{
			Label: fmt.Sprintf("%s/%s", spec.Name, spec.Scheme),
			Run: func(ctx context.Context, env sweep.Env) (any, error) {
				return measureMachine(fc, spec, sessions), nil
			},
		}
	}
	results, err := runEpisodes(ctx, fc.Base.Seed, probe.Probe{}, opts, episodes)
	if err != nil {
		return nil, err
	}

	rep := &FleetReport{Fleet: f, Routes: routes, Machines: make([]FleetMachine, len(results))}
	for i, res := range results {
		rep.Machines[i] = res.Value.(FleetMachine)
	}

	lres, err := cluster.Run(f, fc.Loop, rep.Runs(), fc.Schedule, fc.Base.Timeseries)
	if err != nil {
		return nil, err
	}
	rep.Result = lres
	rep.Metrics = cluster.Summarize(f, lres)
	cluster.Publish(fc.Base.Metrics, fc.Base.Timeseries, f, rep.Runs(), lres, rep.Metrics)

	if ts := fc.Base.Timeseries; ts != nil {
		// One sample per machine, indexed by ID (FleetSLORules); a harness
		// error counts as silent here.
		for id, m := range rep.Machines {
			recordSilent(ts, "horus_fleet_ts_silent_total", id, !m.Outcome.OK(), "scheme", m.Spec.Scheme.String())
		}
	}
	return rep, nil
}

// FleetSLORules builds the fleet objectives over the recorded series:
//
//   - fleet-no-silent: no machine's oracle verdict may be silent
//     corruption (or a harness error) — the recoverability contract at
//     fleet scope.
//   - fleet-storm-budget: the longest recovery storm must fit
//     stormBudgetPs (0 disables the rule).
//   - fleet-drain-p99: the fleet's p99 drain latency (queueing included)
//     must fit drainP99BudgetPs (0 disables the rule).
//
// Evaluate with EvaluateSLO over Base.Timeseries.Snapshot(); the
// horus-fleet CLI exits 2 on violation.
func FleetSLORules(stormBudgetPs, drainP99BudgetPs int64) []SLORule {
	rules := []SLORule{noSilentRule("fleet-no-silent", "horus_fleet_ts_silent_total",
		"no machine may recover to silently wrong data after an outage (fleet oracle)")}
	if stormBudgetPs > 0 {
		rules = append(rules, SLORule{
			Name: "fleet-storm-budget", Series: "horus_fleet_ts_storm_max_ps",
			Op: SLOFinalAtMost, Threshold: float64(stormBudgetPs), RequireData: true,
			Description: "the recovery storm (power back to last machine serving) must fit its budget",
		})
	}
	if drainP99BudgetPs > 0 {
		rules = append(rules, SLORule{
			Name: "fleet-drain-p99", Series: "horus_fleet_ts_drain_p99_ps",
			Op: SLOFinalAtMost, Threshold: float64(drainP99BudgetPs), RequireData: true,
			Description: "fleet p99 drain latency (rack power-budget queueing included) must fit its budget",
		})
	}
	return rules
}
