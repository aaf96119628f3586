package horus

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/addrmap"
	"repro/internal/bmt"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/litmus"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/obs/evlog"
	"repro/internal/probe"
	"repro/internal/recovery"
	"repro/internal/report"
	"repro/internal/sweep"
)

// CorruptionModel is a corruption shape of the coverage sweep (re-exported).
type CorruptionModel = litmus.Model

// AllCorruptionModels lists every coverage corruption model (re-exported).
func AllCorruptionModels() []CorruptionModel { return litmus.AllModels() }

// ParseCorruptionModels parses a comma-separated model list ("all" = every
// model, "none" = disable the coverage sweep), re-exported for the CLIs.
func ParseCorruptionModels(s string) ([]CorruptionModel, error) { return litmus.ParseModels(s) }

// LitmusConfig parameterises the persistency-litmus run: which schemes to
// record, how many admissible write orderings to explore per epoch, and
// which corruption models to sweep over the completed drain image.
type LitmusConfig struct {
	// Config is the machine configuration (typically TestConfig()). Its
	// Metrics/Timeseries sinks, when set, receive aggregate outcome
	// counters after the run; cells themselves run uninstrumented.
	Config Config
	// Schemes are the drain designs to check; empty means the four secure
	// schemes. NonSecure is rejected: with no MACs nothing can be detected,
	// so the never-silent contract does not apply.
	Schemes []Scheme
	// NewWorkload builds the pre-crash workload stream from a seed; nil
	// selects the torture matrix's small mixed stream.
	NewWorkload func(seed int64) *Workload
	// MaxOrderings is the distinct-ordering target per sampled epoch
	// (0 = 128). Epochs of at most ExhaustiveWrites writes are enumerated
	// exhaustively instead.
	MaxOrderings int
	// ExhaustiveWrites is the largest epoch enumerated exhaustively (0 = 5).
	ExhaustiveWrites int
	// MaxEpochs caps the epochs explored per scheme (0 = all). Epochs are
	// thinned evenly, always keeping the first and last.
	MaxEpochs int
	// Corrupt selects the coverage sweep's corruption models; nil skips
	// the coverage sweep entirely.
	Corrupt []CorruptionModel
	// CorruptTrials is the number of trials per (scheme, model, target)
	// coverage cell (0 = 6). Each trial corrupts one deterministically
	// chosen victim block of the completed drain image.
	CorruptTrials int
}

func (lc *LitmusConfig) corruptTrials() int {
	if lc.CorruptTrials <= 0 {
		return 6
	}
	return lc.CorruptTrials
}

// LitmusCell is one (scheme, epoch, ordering) verdict: the recovery outcome
// of crashing at the epoch's barrier with exactly that admissible subset of
// the epoch's writes durable.
type LitmusCell struct {
	Scheme      Scheme
	Epoch       int    // epoch index within the drain episode
	Stage       string // persist-stage label that opened the epoch
	Kind        string // how the ordering was generated (litmus.Ordering.Kind)
	Applied     int    // writes of the epoch that landed
	EpochWrites int    // total writes of the epoch
	Outcome     CrashOutcome
	Detail      string
	// Forensic explains a detection (failing check, region, blocks scanned,
	// provenance chain); nil for clean cells.
	Forensic *Forensic
}

// Label names the cell in reports and errors.
func (c LitmusCell) Label() string {
	return fmt.Sprintf("%s/epoch%d(%s)/%s[%d/%d]", c.Scheme, c.Epoch, c.Stage, c.Kind, c.Applied, c.EpochWrites)
}

// CoverageCell aggregates one (scheme, model, target-region) coverage cell:
// how many corruption trials were detected, silently accepted, or masked
// (no observable effect on recovery or post-recovery reads).
type CoverageCell struct {
	Scheme   Scheme
	Model    CorruptionModel
	Target   string // layout region of the victim block
	Trials   int
	Detected int
	Silent   int
	Masked   int
	Internal int
	// Forensics explains each detected trial, in trial order (trials run
	// sequentially inside one episode, so the order is deterministic).
	Forensics []*Forensic
}

// DetectionRate returns detected/(detected+silent), the probability that an
// observable corruption was caught; ok is false when every trial was masked.
func (c CoverageCell) DetectionRate() (float64, bool) {
	obs := c.Detected + c.Silent
	if obs == 0 {
		return 0, false
	}
	return float64(c.Detected) / float64(obs), true
}

// LitmusWitness is a minimized silent-corruption (or internal-error)
// reproduction: the smallest admissible applied set that still fails.
type LitmusWitness struct {
	Cell    LitmusCell
	Applied []int    // minimized epoch-relative applied write indices
	Trace   []string // one human-readable line per applied write
}

// LitmusReport is the full persistency-litmus verdict.
type LitmusReport struct {
	// Cells holds every ordering cell in (scheme, epoch, ordering) order,
	// deterministic for a given config regardless of worker count.
	Cells []LitmusCell
	// Coverage holds the corruption-detection coverage cells, in
	// (scheme, model, target) order; empty when the sweep was skipped.
	Coverage []CoverageCell
	// Steps records each scheme's recorded drain-write count.
	Steps map[Scheme]int
	// Epochs records each scheme's (non-empty) epoch count.
	Epochs map[Scheme]int
	// Witness is the minimized reproduction of the first failing ordering
	// cell, nil when every cell satisfied the contract.
	Witness *LitmusWitness
}

// Failures returns the contract violations: ordering cells that ended in
// silent corruption or an internal error, plus coverage cells with silent
// trials under a non-freshness model (unkeyed corruption must always be
// detected; freshness gaps of lazy schemes are reported, not failed) or any
// internal error.
func (r *LitmusReport) Failures() []string {
	var out []string
	for _, c := range r.Cells {
		if !c.Outcome.OK() {
			out = append(out, fmt.Sprintf("%s: %s (%s)", c.Label(), c.Outcome, c.Detail))
		}
	}
	for _, c := range r.Coverage {
		if c.Internal > 0 {
			out = append(out, fmt.Sprintf("%s/%s/%s: %d internal errors", c.Scheme, c.Model, c.Target, c.Internal))
		}
		if c.Silent > 0 && !freshnessModel(c.Model) {
			out = append(out, fmt.Sprintf("%s/%s/%s: %d/%d unkeyed corruptions silently accepted", c.Scheme, c.Model, c.Target, c.Silent, c.Trials))
		}
	}
	return out
}

// Ok reports whether the run satisfied the never-silent contract.
func (r *LitmusReport) Ok() bool { return len(r.Failures()) == 0 }

// freshnessModel reports whether the model is a replay of authentic stale
// bytes — detectable only with freshness (counters bound to a root), not
// with MACs alone.
func freshnessModel(m CorruptionModel) bool {
	return m == litmus.Rollback || m == litmus.RollbackGroup
}

// OrderingTable summarises the ordering sweep per (scheme, epoch).
func (r *LitmusReport) OrderingTable() *report.Table {
	t := &report.Table{
		Title:  "Persistency litmus: outcomes per (scheme, epoch)",
		Header: []string{"scheme", "epoch", "stage", "writes", "orderings", "restored", "partial", "detected", "silent", "internal"},
	}
	type key struct {
		s Scheme
		e int
	}
	type agg struct {
		stage  string
		writes int
		m      map[CrashOutcome]int
	}
	rows := map[key]*agg{}
	var order []key
	for _, c := range r.Cells {
		k := key{c.Scheme, c.Epoch}
		a := rows[k]
		if a == nil {
			a = &agg{stage: c.Stage, writes: c.EpochWrites, m: map[CrashOutcome]int{}}
			rows[k] = a
			order = append(order, k)
		}
		a.m[c.Outcome]++
	}
	for _, k := range order {
		a := rows[k]
		total := 0
		for _, n := range a.m {
			total += n
		}
		t.AddRow(k.s.String(), fmt.Sprint(k.e), a.stage, fmt.Sprint(a.writes), fmt.Sprint(total),
			fmt.Sprint(a.m[OutcomeRestored]), fmt.Sprint(a.m[OutcomePartial]), fmt.Sprint(a.m[OutcomeDetected]),
			fmt.Sprint(a.m[OutcomeSilentCorruption]), fmt.Sprint(a.m[OutcomeInternalError]))
	}
	if fails := r.Failures(); len(fails) > 0 {
		for _, f := range fails {
			t.AddNote("FAIL %s", f)
		}
	} else {
		t.AddNote("every admissible reordering ended in exact restoration, authentic partial state, or a typed detection error")
	}
	return t
}

// CellTable lists every ordering cell with its verdict — the per-ordering
// artifact CI uploads.
func (r *LitmusReport) CellTable() *report.Table {
	t := &report.Table{
		Title:  "Persistency litmus: per-ordering outcomes",
		Header: []string{"scheme", "epoch", "stage", "kind", "applied", "writes", "outcome", "detail"},
	}
	for _, c := range r.Cells {
		t.AddRow(c.Scheme.String(), fmt.Sprint(c.Epoch), c.Stage, c.Kind,
			fmt.Sprint(c.Applied), fmt.Sprint(c.EpochWrites), c.Outcome.String(), c.Detail)
	}
	return t
}

// CoverageTable summarises the corruption-detection coverage sweep: the
// detection probability per (scheme, model, target region).
func (r *LitmusReport) CoverageTable() *report.Table {
	t := &report.Table{
		Title:  "Corruption-detection coverage per (scheme, model, target)",
		Header: []string{"scheme", "model", "target", "trials", "detected", "silent", "masked", "detect%"},
	}
	for _, c := range r.Coverage {
		rate := "n/a"
		if p, ok := c.DetectionRate(); ok {
			rate = fmt.Sprintf("%.0f%%", 100*p)
		}
		t.AddRow(c.Scheme.String(), c.Model.String(), c.Target, fmt.Sprint(c.Trials),
			fmt.Sprint(c.Detected), fmt.Sprint(c.Silent), fmt.Sprint(c.Masked), rate)
	}
	t.AddNote("rollback models replay authentic stale bytes: silent acceptance there is a freshness gap (lazy run-time metadata), not a MAC failure")
	t.AddNote("masked trials changed no byte recovery or post-recovery probes observe (e.g. rollback of a never-redrained block)")
	return t
}

// ForensicTable explains every detection of the run — ordering cells that
// ended in OutcomeDetected (corruption model "reorder") and detected
// coverage trials — with the failing check, region, scan latency and
// flight-recorder provenance chain per detection.
func (r *LitmusReport) ForensicTable() *report.Table {
	var fs []Forensic
	for _, c := range r.Cells {
		if c.Forensic == nil {
			continue
		}
		f := *c.Forensic
		f.Label = c.Label()
		f.Scheme = c.Scheme.String()
		f.Model = "reorder"
		fs = append(fs, f)
	}
	for _, c := range r.Coverage {
		for _, fp := range c.Forensics {
			if fp == nil {
				continue
			}
			f := *fp
			f.Label = fmt.Sprintf("%s/%s/%s", c.Scheme, c.Model, c.Target)
			f.Scheme = c.Scheme.String()
			f.Model = c.Model.String()
			fs = append(fs, f)
		}
	}
	return report.ForensicTable(fs...)
}

// defaultLitmusWorkload is larger than the torture matrix's stream on
// purpose: its working set exceeds the test-scale metadata caches' reach, so
// runtime evictions populate the in-place counter/MAC/tree regions and leave
// metadata-cache residue for the vault — the regions the coverage sweep
// targets. Orderings are sampled per epoch (not per write), so the bigger
// episode does not blow up the cell count the way it would for the torture
// matrix.
func defaultLitmusWorkload(seed int64) *Workload {
	return UniformWorkload(WorkloadConfig{
		Ops:            4000,
		WorkingSet:     1 << 20,
		Seed:           seed,
		PersistPercent: 10,
	})
}

// litmusEpisode is one scheme's recorded fault-free drain: everything needed
// to materialise any admissible crash state without replaying the workload.
type litmusEpisode struct {
	scheme Scheme
	lay    *bmt.Layout
	blocks []DirtyBlock
	index  addrmap.Map[int32] // drained address -> position in blocks
	pre    *mem.Store         // NVM image at the crash instant, before the drain
	writes []litmus.Write
	epochs []litmus.Epoch
	// snaps[i] is the persistent register file at epoch i's closing
	// barrier; the final epoch's entry is the drain's full persist record
	// (vault + root included).
	snaps []PersistentState
	// base and complete are the crash images every cell starts from, built
	// once and only ever read: base is pre copied into a table sized for the
	// drained image (the layout a cell's replayed writes extend), complete is
	// base with every recorded write replayed, i.e. the drained image.
	base     *mem.Store
	complete *mem.Store
	// spare holds stores handed back by finished cells. A cell copies an
	// image into one instead of reserving a fresh table; the list dies with
	// the episode, so nothing outlives the run.
	mu    sync.Mutex
	spare []*mem.Store
}

// recordLitmusEpisode runs the workload and records one fault-free drain
// with its epoch structure and per-barrier register snapshots.
func recordLitmusEpisode(cfg Config, scheme Scheme, w *Workload) (*litmusEpisode, error) {
	ws := NewWorkloadSystem(cfg, scheme, DomainEPD)
	if err := ws.Run(w); err != nil {
		return nil, fmt.Errorf("horus: litmus workload on %v: %w", scheme, err)
	}
	ep := &litmusEpisode{
		scheme: scheme,
		lay:    ws.Core.Layout,
		blocks: ws.Machine.DirtyBlocks(),
		pre:    ws.Core.NVM.Store().Snapshot(),
	}
	ep.index = drainIndex(ep.blocks)
	rec := litmus.NewRecorder()
	rec.OnEpochClose = func(litmus.Epoch) {
		ep.snaps = append(ep.snaps, ws.drainer.PersistSnapshot())
	}
	ws.Core.NVM.SetFaultInjector(rec)
	res, err := ws.drainer.Drain(ep.blocks)
	ws.Core.NVM.SetFaultInjector(nil)
	if err != nil {
		return nil, fmt.Errorf("horus: litmus drain on %v: %w", scheme, err)
	}
	rec.Finish()
	ep.writes = rec.Writes()
	ep.epochs = rec.Epochs()
	if len(ep.epochs) == 0 {
		return nil, fmt.Errorf("horus: %v drain performed no NVM writes; enlarge the workload", scheme)
	}
	// A crash anywhere in the final epoch sees the drain's completed
	// register file (registers are on-chip and persist independently of
	// which NVM writes became durable); mid-drain epochs use the snapshot
	// taken at their barrier.
	ep.snaps[len(ep.snaps)-1] = res.Persist
	// The drained image holds every block a materialised image can, and a
	// recovery adds at most the home blocks of the metadata lines it
	// re-installs from the vault, so no cell's replay or recovery grows a
	// store copied from base.
	vault := 0
	for _, ps := range ep.snaps {
		vault = max(vault, ps.Vault.Count)
	}
	ep.base = mem.NewStore()
	ep.base.Reserve(ws.Core.NVM.Store().Populated() + vault)
	ep.pre.Each(func(a uint64, b mem.Block) { ep.base.WriteBlock(a, b) })
	ep.complete = ep.base.Snapshot()
	for _, w := range ep.writes {
		ep.complete.WriteBlock(w.Addr, w.Data)
	}
	return ep, nil
}

// crashed builds a fresh crashed system over a recycled copy of img, ready
// for recovery under epoch ei's register file. The caller hands the system's
// store back with release once the oracle is done with it.
func (ep *litmusEpisode) crashed(cfg Config, img *mem.Store, ei int) *core.System {
	var st *mem.Store
	ep.mu.Lock()
	if n := len(ep.spare); n > 0 {
		st, ep.spare = ep.spare[n-1], ep.spare[:n-1]
	}
	ep.mu.Unlock()
	if st == nil {
		st = mem.NewStore()
	}
	st.CopyFrom(img)
	sys, _ := newCoreSystem(cfg, ep.scheme, true)
	sys.NVM.UseStore(st)
	sys.Sec.Crash()
	sys.Sec.RestoreRoot(ep.snaps[ei].Root)
	return sys
}

// release returns a crashed system's store to the episode for reuse. The
// system must not be used afterwards.
func (ep *litmusEpisode) release(sys *core.System) {
	ep.mu.Lock()
	ep.spare = append(ep.spare, sys.NVM.Store())
	ep.mu.Unlock()
}

// materialize builds a crashed system holding the recorded image with every
// write before epoch ei durable plus the applied subset (epoch-relative
// indices) of epoch ei, ready for recovery under the epoch's register file.
// Release it when done.
func (ep *litmusEpisode) materialize(cfg Config, ei int, applied []int) *core.System {
	sys := ep.crashed(cfg, ep.base, ei)
	st := sys.NVM.Store()
	e := ep.epochs[ei]
	for _, w := range ep.writes[:e.Lo] {
		st.WriteBlock(w.Addr, w.Data)
	}
	for _, i := range applied {
		w := ep.writes[e.Lo+i]
		st.WriteBlock(w.Addr, w.Data)
	}
	return sys
}

// classifyOrdering materialises one ordering and runs the recovery oracle.
// The oracle's recovery-time attribution is irrelevant to ordering verdicts
// and dropped here.
func (ep *litmusEpisode) classifyOrdering(cfg Config, ei int, o litmus.Ordering) (CrashOutcome, string, *Forensic) {
	sys := ep.materialize(cfg, ei, o.Applied)
	defer ep.release(sys)
	ps := ep.snaps[ei]
	complete := o.Complete(ep.epochs[ei].Size())
	interrupted := !(ei == len(ep.epochs)-1 && complete)
	out, detail, forensic, _ := classifyOutcome(sys, ps, ep.blocks, interrupted)
	return out, detail, forensic
}

// probeAddrs returns the sorted populated data-region addresses of the
// complete image — the set of runtime in-place blocks a post-recovery reader
// would consult.
func (ep *litmusEpisode) probeAddrs() []uint64 {
	var out []uint64
	ep.complete.Each(func(a uint64, _ mem.Block) {
		if ep.lay.RegionOf(a) == bmt.RegionData {
			out = append(out, a)
		}
	})
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// victimPool returns the sorted populated complete-image addresses in the
// given region; for freshness (rollback) models only blocks the drain or
// runtime actually changed qualify — rolling back an unchanged block is a
// no-op, not a corruption.
func (ep *litmusEpisode) victimPool(region bmt.Region, fresh bool) []uint64 {
	var out []uint64
	ep.complete.Each(func(a uint64, b mem.Block) {
		if ep.lay.RegionOf(a) != region {
			return
		}
		if fresh && ep.pre.ReadBlock(a) == b {
			return
		}
		out = append(out, a)
	})
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// coverageRegions are the corruption targets, in report order.
var coverageRegions = []bmt.Region{
	bmt.RegionData, bmt.RegionCounter, bmt.RegionMAC, bmt.RegionTree,
	bmt.RegionVault, bmt.RegionCHVData, bmt.RegionCHVAddr, bmt.RegionCHVMAC,
}

// referenceProbe recovers the uncorrupted complete image on a fresh system
// and records each probe address's plaintext, parallel to addrs — the
// baseline a corrupted trial's reads are compared against.
func (ep *litmusEpisode) referenceProbe(cfg Config, addrs []uint64) ([]mem.Block, error) {
	ei := len(ep.epochs) - 1
	sys := ep.crashed(cfg, ep.complete, ei)
	defer ep.release(sys)
	ps := ep.snaps[ei]
	if err := ep.recoverFor(sys, ps); err != nil {
		return nil, fmt.Errorf("horus: reference recovery on %v: %w", ep.scheme, err)
	}
	ref := make([]mem.Block, len(addrs))
	for i, a := range addrs {
		b, err := sys.Sec.ProbeBlock(a)
		if err != nil {
			return nil, fmt.Errorf("horus: reference probe of %#x on %v: %w", a, ep.scheme, err)
		}
		ref[i] = b
	}
	return ref, nil
}

// recoverFor runs the scheme's recovery path on a materialised system.
func (ep *litmusEpisode) recoverFor(sys *core.System, ps PersistentState) error {
	sys.NVM.ResetStats()
	sys.Sec.ResetStats()
	if ps.Scheme.UsesCHV() {
		if ps.Vault.Count > 0 {
			if _, err := recovery.RestoreMetadataVaultFor(sys, ps.Vault, ps.Scheme.String()); err != nil {
				return err
			}
		}
		res, err := recovery.RecoverHorus(sys, ps)
		if err != nil {
			return err
		}
		if detail, _ := checkRecovered(res.Blocks, ep.blocks, &ep.index); detail != "" {
			return errors.New(detail)
		}
		return nil
	}
	_, err := recovery.RecoverBaseline(sys, ps)
	return err
}

// coverageTrial corrupts one victim of the complete image and reports the
// verdict ("detected", "silent", "masked" or "internal") plus, for a
// detection, its forensic provenance.
func (ep *litmusEpisode) coverageTrial(cfg Config, model CorruptionModel, victim uint64, seed uint64, ref []mem.Block, addrs []uint64) (string, string, *Forensic) {
	ei := len(ep.epochs) - 1
	sys := ep.crashed(cfg, ep.complete, ei)
	defer ep.release(sys)
	sys.Evlog = evlog.New(evlog.DefaultChainLimit)
	ps := ep.snaps[ei]
	st := sys.NVM.Store()

	cur := st.ReadBlock(victim)
	nb := litmus.Corrupt(model, cur, ep.pre.ReadBlock(victim), seed)
	if nb == cur {
		return "masked", "corruption was a no-op", nil
	}
	st.WriteBlock(victim, nb)
	if model == litmus.RollbackGroup && ep.lay.RegionOf(victim) == bmt.RegionData {
		// Consistent stale snapshot of the line: its counter and MAC roll
		// back with it, so per-block integrity alone cannot object.
		for _, meta := range []uint64{ep.lay.CounterBlockAddr(victim), ep.lay.MACBlockAddr(victim)} {
			st.WriteBlock(meta, ep.pre.ReadBlock(meta))
		}
	}

	if err := ep.recoverFor(sys, ps); err != nil {
		if recovery.IsDetection(err) {
			return "detected", fmt.Sprintf("recovery: %v", err), ForensicFromError(err, "recovery")
		}
		if ps.Scheme.UsesCHV() {
			// recoverFor folds an undrained recovered block into an untyped error.
			return "silent", err.Error(), nil
		}
		return "internal", err.Error(), nil
	}

	detected := ""
	var forensic *Forensic
	for i, a := range addrs {
		b, err := sys.Sec.ProbeBlock(a)
		if err != nil {
			if !recovery.IsDetection(err) {
				return "internal", fmt.Sprintf("probe of %#x: %v", a, err), nil
			}
			if detected == "" {
				detected = fmt.Sprintf("probe of %#x: %v", a, err)
				forensic = ForensicFromError(err, "post-recovery read")
				forensic.BlocksScanned = int64(i)
			}
			continue
		}
		if b != ref[i] {
			return "silent", fmt.Sprintf("probe of %#x verified with wrong plaintext", a), nil
		}
	}
	if detected != "" {
		return "detected", detected, forensic
	}
	return "masked", "", nil
}

// RunLitmus records one fault-free drain per scheme, explores admissible
// write reorderings within every persist epoch against the recovery oracle,
// and (when configured) sweeps corruption models over the completed image.
// Cells run on the sweep engine's worker pool with per-cell derived seeds:
// results are byte-identical for any Parallel. The returned error covers
// harness failures only; contract violations are in LitmusReport.Failures.
func RunLitmus(ctx context.Context, lc LitmusConfig, opts SweepOptions) (*LitmusReport, error) {
	schemes := lc.Schemes
	if len(schemes) == 0 {
		schemes = []Scheme{BaseLU, BaseEU, HorusSLM, HorusDLM}
	}
	sink, tsSink := lc.Config.Metrics, lc.Config.Timeseries
	cfg := lc.Config
	cfg.Probe = probe.Probe{} // cells run in parallel and share no sink
	newWorkload := lc.NewWorkload
	if newWorkload == nil {
		newWorkload = defaultLitmusWorkload
	}
	w := newWorkload(cfg.Seed)

	rep := &LitmusReport{Steps: map[Scheme]int{}, Epochs: map[Scheme]int{}}

	// Phase 1: record one fault-free episode per scheme (sequential — the
	// recording is the shared input every cell of that scheme replays).
	episodes := make([]*litmusEpisode, len(schemes))
	for i, s := range schemes {
		if !s.Secure() {
			return nil, fmt.Errorf("horus: litmus requires a secure scheme, got %v (no MACs, nothing can be detected)", s)
		}
		ep, err := recordLitmusEpisode(cfg, s, w)
		if err != nil {
			return nil, err
		}
		episodes[i] = ep
		rep.Steps[s] = len(ep.writes)
		rep.Epochs[s] = len(ep.epochs)
	}

	// Phase 2: generate every ordering up front — generation is pure, so
	// the cell list (and with it every seed) is fixed before any worker runs.
	type ordSpec struct {
		ep  *litmusEpisode
		ei  int
		ord litmus.Ordering
	}
	var ordSpecs []ordSpec
	for si, ep := range episodes {
		ep := ep
		sel := make([]int, len(ep.epochs))
		for i := range sel {
			sel[i] = i
		}
		if lc.MaxEpochs > 0 {
			sel = faultinject.SampleSteps(len(ep.epochs), 1, lc.MaxEpochs)
		}
		classify := func(wr litmus.Write) string { return ep.lay.RegionOf(wr.Addr).String() }
		for _, ei := range sel {
			e := ep.epochs[ei]
			ords := litmus.Orderings(ep.writes[e.Lo:e.Hi], litmus.Options{
				Seed:             uint64(sweep.DeriveSeed(cfg.Seed, si*4096+ei)),
				MaxOrderings:     lc.MaxOrderings,
				ExhaustiveWrites: lc.ExhaustiveWrites,
				Classify:         classify,
			})
			for _, o := range ords {
				ordSpecs = append(ordSpecs, ordSpec{ep: ep, ei: ei, ord: o})
			}
		}
	}

	eps := make([]sweep.Episode, 0, len(ordSpecs))
	for i := range ordSpecs {
		sp := ordSpecs[i]
		e := sp.ep.epochs[sp.ei]
		eps = append(eps, sweep.Episode{
			Label: fmt.Sprintf("%s/e%d/%s", sp.ep.scheme, sp.ei, sp.ord.Kind),
			Run: func(ctx context.Context, env sweep.Env) (any, error) {
				cell := LitmusCell{
					Scheme: sp.ep.scheme, Epoch: sp.ei, Stage: e.Stage,
					Kind: sp.ord.Kind, Applied: len(sp.ord.Applied), EpochWrites: e.Size(),
				}
				cell.Outcome, cell.Detail, cell.Forensic = sp.ep.classifyOrdering(cfg, sp.ei, sp.ord)
				return cell, nil
			},
		})
	}

	// Phase 3: coverage cells — one episode per (scheme, model, target),
	// running its trials inside. Reference probes are recorded sequentially
	// first so trials only compare.
	type covSpec struct {
		ep     *litmusEpisode
		model  CorruptionModel
		region bmt.Region
		pool   []uint64
		ref    []mem.Block
		addrs  []uint64
	}
	var covSpecs []covSpec
	if len(lc.Corrupt) > 0 {
		for _, ep := range episodes {
			addrs := ep.probeAddrs()
			ref, err := ep.referenceProbe(cfg, addrs)
			if err != nil {
				return nil, err
			}
			for _, m := range lc.Corrupt {
				for _, region := range coverageRegions {
					pool := ep.victimPool(region, freshnessModel(m))
					if len(pool) == 0 {
						continue
					}
					covSpecs = append(covSpecs, covSpec{ep: ep, model: m, region: region, pool: pool, ref: ref, addrs: addrs})
				}
			}
		}
	}
	trials := lc.corruptTrials()
	for i := range covSpecs {
		sp := covSpecs[i]
		eps = append(eps, sweep.Episode{
			Label: fmt.Sprintf("%s/%s/%s", sp.ep.scheme, sp.model, sp.region),
			Run: func(ctx context.Context, env sweep.Env) (any, error) {
				cell := CoverageCell{Scheme: sp.ep.scheme, Model: sp.model, Target: sp.region.String(), Trials: trials}
				for t := 0; t < trials; t++ {
					seed := uint64(sweep.DeriveSeed(env.Seed, t))
					victim := sp.pool[seed%uint64(len(sp.pool))]
					verdict, _, forensic := sp.ep.coverageTrial(cfg, sp.model, victim, seed, sp.ref, sp.addrs)
					switch verdict {
					case "detected":
						cell.Detected++
						cell.Forensics = append(cell.Forensics, forensic)
					case "silent":
						cell.Silent++
					case "masked":
						cell.Masked++
					default:
						cell.Internal++
					}
				}
				return cell, nil
			},
		})
	}

	runner := sweep.New(sweep.Options{Parallel: opts.Parallel, Timeout: opts.Timeout, BaseSeed: cfg.Seed, Progress: opts.Progress})
	results, err := runner.Run(ctx, eps)
	if err != nil {
		return nil, err
	}
	for _, res := range results {
		switch v := res.Value.(type) {
		case LitmusCell:
			rep.Cells = append(rep.Cells, v)
		case CoverageCell:
			rep.Coverage = append(rep.Coverage, v)
		}
	}

	// Phase 4: minimize the first ordering failure into a witness trace
	// (sequential and deterministic: cells are in fixed generation order).
	for i, c := range rep.Cells {
		if c.Outcome.OK() {
			continue
		}
		sp := ordSpecs[i]
		wantOutcome := c.Outcome
		min := litmus.Minimize(sp.ep.writes[sp.ep.epochs[sp.ei].Lo:sp.ep.epochs[sp.ei].Hi], sp.ord.Applied, func(cand []int) bool {
			out, _, _ := sp.ep.classifyOrdering(cfg, sp.ei, litmus.Ordering{Kind: "minimize", Applied: cand})
			return out == wantOutcome
		})
		wit := &LitmusWitness{Cell: c, Applied: min}
		e := sp.ep.epochs[sp.ei]
		for _, idx := range min {
			wr := sp.ep.writes[e.Lo+idx]
			wit.Trace = append(wit.Trace, fmt.Sprintf("write %d: %s block at %#x (%s)",
				idx, sp.ep.lay.RegionOf(wr.Addr), wr.Addr, wr.Cat))
		}
		rep.Witness = wit
		break
	}

	if sink != nil {
		sink.SetHelp("horus_litmus_cells_total", "Litmus ordering cells by scheme and recovery outcome.")
		for _, c := range rep.Cells {
			sink.Counter("horus_litmus_cells_total",
				"scheme", c.Scheme.String(), "outcome", c.Outcome.String()).Add(1)
		}
		sink.SetHelp("horus_recovery_detect_latency_blocks", "Blocks verified before the failing check fired, per detection (scheme x corruption model).")
		sink.SetHelp("horus_recovery_detect_latency_ps", "Phase-local simulated time to the failing check, per detection (scheme x corruption model).")
		for _, c := range rep.Cells {
			if c.Forensic == nil {
				continue
			}
			sink.Histogram("horus_recovery_detect_latency_blocks", obs.CountBuckets,
				"scheme", c.Scheme.String(), "model", "reorder").Observe(float64(c.Forensic.BlocksScanned))
			sink.Histogram("horus_recovery_detect_latency_ps", obs.LatencyBuckets,
				"scheme", c.Scheme.String(), "model", "reorder").Observe(float64(c.Forensic.DetectLatencyPs))
		}
		sink.SetHelp("horus_litmus_coverage_trials_total", "Corruption-coverage trials by scheme, model, target and verdict.")
		for _, c := range rep.Coverage {
			verdicts := []struct {
				name string
				n    int
			}{{"detected", c.Detected}, {"silent", c.Silent}, {"masked", c.Masked}, {"internal", c.Internal}}
			for _, v := range verdicts {
				if v.n > 0 {
					sink.Counter("horus_litmus_coverage_trials_total",
						"scheme", c.Scheme.String(), "model", c.Model.String(), "target", c.Target, "verdict", v.name).Add(int64(v.n))
				}
			}
			for _, f := range c.Forensics {
				if f == nil {
					continue
				}
				sink.Histogram("horus_recovery_detect_latency_blocks", obs.CountBuckets,
					"scheme", c.Scheme.String(), "model", c.Model.String()).Observe(float64(f.BlocksScanned))
				sink.Histogram("horus_recovery_detect_latency_ps", obs.LatencyBuckets,
					"scheme", c.Scheme.String(), "model", c.Model.String()).Observe(float64(f.DetectLatencyPs))
			}
		}
	}
	if tsSink != nil {
		// One sample per ordering cell: zero when the contract held, one on
		// silent corruption — same shape as the torture matrix's SLO series.
		wps := tsSink.WindowPs()
		for i, c := range rep.Cells {
			s := tsSink.Counter("horus_ts_litmus_silent_total", "scheme", c.Scheme.String())
			v := 0.0
			if c.Outcome == OutcomeSilentCorruption {
				v = 1
			}
			s.Record(int64(i)*wps, v)
		}
	}
	return rep, nil
}
