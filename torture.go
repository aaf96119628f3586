package horus

import (
	"context"
	"fmt"

	"repro/internal/faultinject"
	"repro/internal/hierarchy"
	"repro/internal/probe"
	"repro/internal/recovery"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// DirtyBlock is one dirty cache line queued for draining (re-exported).
type DirtyBlock = hierarchy.DirtyBlock

// CrashFlavor is a fault flavor of the torture matrix (re-exported).
type CrashFlavor = faultinject.Flavor

// Crash flavors: how a drain episode is interrupted or corrupted.
const (
	CrashCleanCut     CrashFlavor = faultinject.CleanCut
	CrashTornWrite    CrashFlavor = faultinject.TornWrite
	CrashBitFlip      CrashFlavor = faultinject.BitFlip
	CrashDroppedWrite CrashFlavor = faultinject.DroppedWrite
)

// AllCrashFlavors lists every flavor in matrix order (re-exported).
func AllCrashFlavors() []CrashFlavor { return faultinject.AllFlavors() }

// ParseCrashFlavors parses a comma-separated flavor list ("all" = every
// flavor), re-exported for the CLIs.
func ParseCrashFlavors(s string) ([]CrashFlavor, error) { return faultinject.ParseFlavors(s) }

// CrashOutcome classifies one torture cell (re-exported).
type CrashOutcome = faultinject.Outcome

// Cell outcomes. Restored, Partial and Detected satisfy the recoverability
// contract; SilentCorruption and InternalError are matrix failures.
const (
	OutcomeRestored         CrashOutcome = faultinject.OutcomeRestored
	OutcomePartial          CrashOutcome = faultinject.OutcomePartial
	OutcomeDetected         CrashOutcome = faultinject.OutcomeDetected
	OutcomeSilentCorruption CrashOutcome = faultinject.OutcomeSilentCorruption
	OutcomeInternalError    CrashOutcome = faultinject.OutcomeInternalError
)

// TortureConfig parameterises a crash-matrix run.
type TortureConfig struct {
	// Config is the machine configuration every cell replays (typically
	// TestConfig()). Its Metrics registry, when set, receives per-cell
	// outcome counters after the matrix completes; cells themselves run
	// uninstrumented so parallel replays share no mutable state.
	Config Config
	// Schemes are the drain designs to torture; empty means the four
	// secure schemes. NonSecure is excluded by default: with no MACs it
	// cannot detect corruption, so the matrix contract does not apply.
	Schemes []Scheme
	// Flavors are the fault flavors per crash point; empty means all.
	Flavors []CrashFlavor
	// NewWorkload builds the pre-crash workload stream from a seed. Every
	// cell replays the same stream (seeded with Config.Seed), so crash
	// points are comparable across cells. Nil selects a small mixed
	// read/write stream sized for exhaustive matrices.
	NewWorkload func(seed int64) *Workload
	// Stride samples every Stride-th crash point (1 or 0 = every point);
	// the first and last point are always kept.
	Stride int
	// MaxPoints caps the crash points per scheme after striding (0 = no
	// cap); points are thinned evenly, keeping both boundary points.
	MaxPoints int
}

// TortureCell is one (scheme, flavor, crash step) verdict.
type TortureCell struct {
	Scheme  Scheme
	Flavor  CrashFlavor
	Step    int // faulted write index within the drain
	Steps   int // total drain writes of the episode
	Fired   faultinject.FiredInfo
	Outcome CrashOutcome
	Detail  string // error text or mismatch description, "" for clean cells
	// Forensic explains a detection — failing check, region, blocks scanned
	// before it fired, provenance chain — and is nil for clean cells.
	Forensic *Forensic
	// RecoverTime is the simulated time the recovery path consumed while
	// classifying this cell (vault restore plus CHV/baseline recovery).
	RecoverTime sim.Time
}

// Label names the cell in reports and errors.
func (c TortureCell) Label() string {
	return fmt.Sprintf("%s/%s@%d", c.Scheme, c.Flavor, c.Step)
}

// TortureReport is the full crash-matrix verdict.
type TortureReport struct {
	// Cells holds every executed cell, ordered by scheme, flavor, step
	// (episode order), deterministic for a given config regardless of
	// worker count.
	Cells []TortureCell
	// Steps records each scheme's total drain-write count.
	Steps map[Scheme]int
}

// Failures returns the cells violating the recoverability contract.
func (r *TortureReport) Failures() []TortureCell {
	var out []TortureCell
	for _, c := range r.Cells {
		if !c.Outcome.OK() {
			out = append(out, c)
		}
	}
	return out
}

// Ok reports whether every cell satisfied the contract.
func (r *TortureReport) Ok() bool { return len(r.Failures()) == 0 }

// Table summarises the matrix per (scheme, flavor): cells by outcome.
func (r *TortureReport) Table() *report.Table {
	t := &report.Table{
		Title:  "Crash matrix: outcome per (scheme, flavor)",
		Header: []string{"scheme", "flavor", "points", "restored", "partial", "detected", "silent", "internal"},
	}
	addOutcomeRows(t, len(r.Cells), func(i int) ([]string, CrashOutcome) {
		c := r.Cells[i]
		return []string{c.Scheme.String(), c.Flavor.String()}, c.Outcome
	})
	if fails := r.Failures(); len(fails) > 0 {
		for _, c := range fails {
			t.AddNote("FAIL %s: %s (%s)", c.Label(), c.Outcome, c.Detail)
		}
	} else {
		t.AddNote("every cell ended in exact restoration, authentic partial state, or a typed detection error")
	}
	return t
}

// ForensicTable renders the provenance of every detected cell: which check
// fired, where, after how many scanned blocks, and the trailing
// flight-recorder chain (cells attach a bounded per-cell recorder, so the
// chain is always present). Surfaced by horus-torture -explain.
func (r *TortureReport) ForensicTable() *report.Table {
	var fs []Forensic
	for _, c := range r.Cells {
		if c.Forensic != nil {
			fs = append(fs, stampForensic(c.Forensic, c.Label(), c.Scheme, c.Flavor.String()))
		}
	}
	return report.ForensicTable(fs...)
}

// CellTable lists every crash point with its verdict — the per-crash-point
// outcome table CI uploads as an artifact.
func (r *TortureReport) CellTable() *report.Table {
	t := &report.Table{
		Title:  "Crash matrix: per-crash-point outcomes",
		Header: []string{"scheme", "flavor", "step", "steps", "stage", "category", "outcome", "detail"},
	}
	for _, c := range r.Cells {
		t.AddRow(c.Scheme.String(), c.Flavor.String(), fmt.Sprint(c.Step), fmt.Sprint(c.Steps),
			c.Fired.Stage, c.Fired.Cat, c.Outcome.String(), c.Detail)
	}
	return t
}

// defaultTortureWorkload is a small mixed stream: big enough to dirty data
// across several CHV groups and leave metadata-cache residue, small enough
// that an exhaustive matrix (every drain write × every flavor × four
// schemes) stays test-suite sized.
func defaultTortureWorkload(seed int64) *Workload {
	return UniformWorkload(WorkloadConfig{
		Ops:            120,
		WorkingSet:     4 << 10,
		Seed:           seed,
		PersistPercent: 10,
	})
}

// RunTortureMatrix executes the crash matrix: for every selected scheme it
// counts the drain's write steps, then replays the episode once per sampled
// crash point per flavor, recovering each time and classifying the result
// against the blocks the drain wrote. Cells run on the sweep engine's
// worker pool (opts.Parallel) with per-cell derived seeds, so results are
// deterministic for any worker count. The returned error covers harness
// failures only; contract violations are reported via TortureReport.Failures.
func RunTortureMatrix(ctx context.Context, tc TortureConfig, opts SweepOptions) (*TortureReport, error) {
	schemes, cfg, w, err := oracleSetup("torture matrix", tc.Config, tc.Schemes, tc.NewWorkload, defaultTortureWorkload)
	if err != nil {
		return nil, err
	}
	flavors := tc.Flavors
	if len(flavors) == 0 {
		flavors = AllCrashFlavors()
	}

	type spec struct {
		scheme Scheme
		flavor CrashFlavor
		step   int
		steps  int
	}
	var specs []spec
	steps := make(map[Scheme]int, len(schemes))
	for _, s := range schemes {
		n, err := countDrainSteps(cfg, s, w)
		if err != nil {
			return nil, fmt.Errorf("horus: counting drain steps of %v: %w", s, err)
		}
		if n == 0 {
			return nil, fmt.Errorf("horus: %v episode performed no drain writes; enlarge the workload", s)
		}
		steps[s] = n
		points := faultinject.SampleSteps(n, tc.Stride, tc.MaxPoints)
		for _, f := range flavors {
			for _, p := range points {
				specs = append(specs, spec{scheme: s, flavor: f, step: p, steps: n})
			}
		}
	}

	episodes := make([]sweep.Episode, len(specs))
	for i, sp := range specs {
		episodes[i] = sweep.Episode{
			Label: fmt.Sprintf("%s/%s@%d", sp.scheme, sp.flavor, sp.step),
			Run: func(ctx context.Context, env sweep.Env) (any, error) {
				plan := faultinject.CrashPlan{Step: sp.step, Flavor: sp.flavor, Seed: uint64(env.Seed)}
				cell := runTortureCell(cfg, sp.scheme, w, plan)
				cell.Steps = sp.steps
				return cell, nil
			},
		}
	}

	results, err := runEpisodes(ctx, cfg.Seed, probe.Probe{}, opts, episodes)
	if err != nil {
		return nil, err
	}
	rep := &TortureReport{Steps: steps, Cells: make([]TortureCell, len(results))}
	for i, res := range results {
		rep.Cells[i] = res.Value.(TortureCell)
	}
	if sink := tc.Config.Metrics; sink != nil {
		sink.SetHelp("horus_torture_cells_total", "Crash-matrix cells by scheme, fault flavor and recovery outcome.")
		for _, c := range rep.Cells {
			publishOutcome(sink, "horus_torture_cells_total", c.Scheme, c.Flavor.String(), c.Outcome, c.Forensic,
				"flavor", c.Flavor.String())
		}
	}
	if tsSink := tc.Config.Timeseries; tsSink != nil {
		// One sample per cell, indexed by crash step (TortureSLORules).
		for _, c := range rep.Cells {
			recordSilent(tsSink, "horus_ts_torture_silent_total", c.Step, c.Outcome == OutcomeSilentCorruption,
				"scheme", c.Scheme.String(), "flavor", c.Flavor.String())
		}
	}
	return rep, nil
}

// countDrainSteps replays the episode with a counting injector (a plan that
// never fires) and returns how many NVM writes the drain performs — the
// number of crash points to enumerate.
func countDrainSteps(cfg Config, scheme Scheme, w *Workload) (int, error) {
	ws := NewWorkloadSystem(cfg, scheme, DomainEPD)
	if err := ws.Run(w); err != nil {
		return 0, err
	}
	inj := faultinject.NewInjector(faultinject.CrashPlan{Step: -1})
	if _, _, err := ws.drain(inj); err != nil {
		return 0, err
	}
	return inj.Steps(), nil
}

// runTortureCell replays one episode, faults it per the plan, crashes,
// recovers, and classifies the result against the drained blocks. Harness
// misbehaviour (panics, untyped errors) is folded into the cell as
// OutcomeInternalError rather than aborting the matrix.
func runTortureCell(cfg Config, scheme Scheme, w *Workload, plan faultinject.CrashPlan) (cell TortureCell) {
	cell = TortureCell{Scheme: scheme, Flavor: plan.Flavor, Step: plan.Step}
	defer func() {
		if p := recover(); p != nil {
			cell.Outcome = OutcomeInternalError
			cell.Detail = fmt.Sprintf("panic: %v", p)
		}
	}()

	ws := NewWorkloadSystem(cfg, scheme, DomainEPD)
	if err := ws.Run(w); err != nil {
		cell.Outcome = OutcomeInternalError
		cell.Detail = fmt.Sprintf("workload: %v", err)
		return cell
	}
	inj := faultinject.NewInjector(plan)
	var atCut *PersistentState
	inj.OnCut = func() {
		// The crash instant: capture the persistent register file as the
		// power cut would leave it. Everything the drain "does" after
		// this point is fictional — its writes are suppressed and its
		// result is discarded.
		snap := ws.drainer.PersistSnapshot()
		atCut = &snap
	}
	res, blocks, drainErr := ws.drain(inj)
	cell.Fired, _ = inj.Fired()
	if atCut == nil && drainErr != nil {
		// A completing-flavor fault (drop / bit flip) corrupted metadata
		// the drain itself re-fetched: caught before power even returned.
		if recovery.IsDetection(drainErr) {
			cell.Outcome = OutcomeDetected
			cell.Detail = fmt.Sprintf("detected during drain: %v", drainErr)
			cell.Forensic = ForensicFromError(drainErr, "drain")
		} else {
			cell.Outcome = OutcomeInternalError
			cell.Detail = fmt.Sprintf("drain failed with untyped error: %v", drainErr)
		}
		return cell
	}

	// Power loss: volatile state gone. For an interrupting fault the
	// persistent state is the at-cut snapshot, and the root register must
	// be rewound to it — the post-cut fictional execution may have kept
	// updating it.
	ws.Crash()
	ps := res.Persist
	if atCut != nil {
		ps = *atCut
		ws.Core.Sec.RestoreRoot(ps.Root)
	}

	cell.Outcome, cell.Detail, cell.Forensic, cell.RecoverTime = classifyOutcome(ws.Core, ps, blocks, atCut != nil)
	return cell
}
