package horus

import (
	"fmt"
	"strings"

	"repro/internal/addrmap"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/obs/evlog"
	"repro/internal/obs/timeseries"
	"repro/internal/probe"
	"repro/internal/recovery"
	"repro/internal/report"
	"repro/internal/sim"
)

// classifyOutcome is the shared recovery oracle behind the torture matrix,
// the litmus reordering checker and the fleet: given a crashed system of a
// secure scheme (volatile state already discarded, root register restored
// from ps), it runs the scheme's recovery sequence (recoverCore) and
// classifies the result against the drained blocks.
// interrupted states whether the crash state legitimately misses drain
// writes (a cut mid-drain, or a reordered epoch prefix); only then is
// authentic-but-stale or missing data an acceptable OutcomePartial.
//
// The returned Forensic explains a detection (failing check, region,
// blocks scanned, provenance chain) and is nil for clean outcomes; cells
// are private systems, so a chain-bounded flight recorder is attached
// when the caller hasn't, making every detected cell explainable.
//
// The final return value is the simulated time the recovery path itself
// consumed (vault restore plus CHV or baseline recovery) — the fleet
// simulation schedules recovery storms from it, and it accumulates even
// when the verdict is a detection partway through.
func classifyOutcome(cs *core.System, ps PersistentState,
	blocks []DirtyBlock, interrupted bool) (CrashOutcome, string, *Forensic, sim.Time) {
	if cs.Evlog == nil {
		cs.Evlog = evlog.New(evlog.DefaultChainLimit)
	}
	if ps.Scheme.UsesCHV() {
		return classifyHorusOutcome(cs, ps, blocks, interrupted)
	}
	return classifyBaselineOutcome(cs, ps, blocks, interrupted)
}

// drainIndex maps each drained block's address to its position in blocks.
func drainIndex(blocks []DirtyBlock) addrmap.Map[int32] {
	var index addrmap.Map[int32]
	index.Reserve(len(blocks))
	for i, b := range blocks {
		*index.Ref(b.Addr) = int32(i)
	}
	return index
}

// checkRecovered holds CHV-recovered blocks to the drain: each must sit at a
// drained address (index maps it into blocks) with the drained bytes. It
// returns the first violation, or "" and how many drained blocks are missing.
func checkRecovered(recovered, blocks []DirtyBlock, index *addrmap.Map[int32]) (string, int) {
	back := make([]bool, len(blocks))
	missing := len(blocks)
	for _, b := range recovered {
		i, ok := index.Get(b.Addr)
		if !ok {
			return fmt.Sprintf("recovered block at %#x was never drained", b.Addr), 0
		}
		if b.Data != blocks[i].Data {
			return fmt.Sprintf("recovered wrong bytes at %#x with verified MACs", b.Addr), 0
		}
		if !back[i] {
			back[i] = true
			missing--
		}
	}
	return "", missing
}

// classifyHorusOutcome recovers the CHV directly (recoverCore, without
// refilling a machine) and compares the recovered blocks against blocks.
// Direct comparison keeps the verdict about the CHV: refilling a machine
// would route reads through the secure controller and conflate CHV
// verification with metadata-residue verification.
func classifyHorusOutcome(cs *core.System, ps PersistentState,
	blocks []DirtyBlock, interrupted bool) (CrashOutcome, string, *Forensic, sim.Time) {
	rep, err := recoverCore(cs, ps)
	elapsed := rep.Time()
	if err != nil {
		// A due vault that left no result is the path that failed.
		phase := "CHV recovery"
		if ps.Vault.Count > 0 && rep.Baseline == nil {
			phase = "metadata vault"
		}
		o, d, f := classifyRecoveryError(err, phase)
		return o, d, f, elapsed
	}
	index := drainIndex(blocks)
	detail, missing := checkRecovered(rep.Horus.Blocks, blocks, &index)
	switch {
	case detail != "":
		return OutcomeSilentCorruption, detail, nil, elapsed
	case missing == 0:
		return OutcomeRestored, "", nil, elapsed
	case interrupted:
		// Blocks past the crash point never reached the persistence
		// domain: legitimately lost, and everything recovered verified.
		return OutcomePartial, fmt.Sprintf("%d/%d blocks not persisted before the cut", missing, len(blocks)), nil, elapsed
	default:
		return OutcomeSilentCorruption, fmt.Sprintf("drain completed but %d/%d blocks missing without error", missing, len(blocks)), nil, elapsed
	}
}

// classifyBaselineOutcome restores the metadata vault and then re-reads every
// drained block (probeSweep). Each block must come back as its drained
// bytes, fail verification with a typed error, or — only when the drain was
// interrupted — come back as an older authentic value (the MACs are real
// keyed functions in this simulator, so a verified value that differs is a
// stale authentic one, not forged bytes).
func classifyBaselineOutcome(cs *core.System, ps PersistentState,
	blocks []DirtyBlock, interrupted bool) (CrashOutcome, string, *Forensic, sim.Time) {
	rep, err := recoverCore(cs, ps)
	elapsed := rep.Time()
	if err != nil {
		o, d, f := classifyRecoveryError(err, "baseline recovery")
		return o, d, f, elapsed
	}
	stale := 0
	r := probeSweep(cs, len(blocks), func(i int) uint64 { return blocks[i].Addr }, func(i int, got mem.Block) bool {
		if got != blocks[i].Data {
			stale++
		}
		return true
	})
	switch {
	case r.err != nil:
		return OutcomeInternalError, fmt.Sprintf("post-recovery read of %#x failed with untyped error: %v", blocks[r.stop].Addr, r.err), nil, elapsed
	case r.detected == 0 && stale == 0:
		return OutcomeRestored, "", nil, elapsed
	case r.detected > 0:
		return OutcomeDetected, fmt.Sprintf("%d/%d blocks failed verification (typed)", r.detected, len(blocks)), r.forensic, elapsed
	case interrupted:
		return OutcomePartial, fmt.Sprintf("%d/%d blocks at authentic pre-drain values", stale, len(blocks)), nil, elapsed
	default:
		return OutcomeSilentCorruption, fmt.Sprintf("drain completed but %d/%d blocks verified with stale values", stale, len(blocks)), nil, elapsed
	}
}

// probeResult is what a post-recovery probe sweep saw.
type probeResult struct {
	detected int       // blocks that failed verification with a typed error
	first    int       // index of the first of them
	firstErr error     // its error, nil when none failed
	forensic *Forensic // its provenance, nil when none failed
	stop     int       // index the sweep stopped at, n when it ran through
	err      error     // the untyped error that stopped it, if one did
}

// probeSweep is the crash oracles' post-recovery probe sweep: it re-reads
// blocks 0..n-1 (block i at addr(i)) through the secure read path,
// functionally (ProbeBlock), so a cell's time stays recovery's alone, and
// hands each verified value to check. Typed detections are counted; an
// untyped error, or check returning false, stops the sweep at that block.
func probeSweep(cs *core.System, n int, addr func(int) uint64, check func(i int, got mem.Block) bool) probeResult {
	r := probeResult{stop: n}
	for i := 0; i < n; i++ {
		got, err := cs.Sec.ProbeBlock(addr(i))
		switch {
		case err == nil:
			if !check(i, got) {
				r.stop = i
				return r
			}
		case recovery.IsDetection(err):
			if r.detected == 0 {
				// The sweep is its path's detection scan: the blocks
				// probed before the first typed failure are its latency.
				r.first, r.firstErr = i, err
				r.forensic = ForensicFromError(err, "post-recovery read")
				r.forensic.BlocksScanned = int64(i)
			}
			r.detected++
		default:
			r.stop, r.err = i, err
			return r
		}
	}
	return r
}

// classifyRecoveryError folds a recovery error into an outcome: typed
// detection errors satisfy the contract (with their forensic provenance),
// anything else is an internal failure.
func classifyRecoveryError(err error, phase string) (CrashOutcome, string, *Forensic) {
	if recovery.IsDetection(err) {
		return OutcomeDetected, fmt.Sprintf("%s: %v", phase, err), ForensicFromError(err, phase)
	}
	return OutcomeInternalError, fmt.Sprintf("%s failed with untyped error: %v", phase, err), nil
}

// oracleSetup is the crash oracles' shared setup. It returns the schemes
// to check (the four secure ones when none are named; NonSecure is refused:
// with no MACs nothing can be detected), cfg with its probe and so every
// sink detached (cells run in parallel and share none), and the workload
// every cell replays, built from cfg.Seed by newWorkload (def when nil).
func oracleSetup(harness string, cfg Config, schemes []Scheme, newWorkload, def func(int64) *Workload) ([]Scheme, Config, *Workload, error) {
	if len(schemes) == 0 {
		schemes = []Scheme{BaseLU, BaseEU, HorusSLM, HorusDLM}
	}
	for _, s := range schemes {
		if !s.Secure() {
			return nil, cfg, nil, fmt.Errorf("horus: %s requires a secure scheme, got %v (no MACs, nothing can be detected)", harness, s)
		}
	}
	if newWorkload == nil {
		newWorkload = def
	}
	cfg.Probe = probe.Probe{}
	return schemes, cfg, newWorkload(cfg.Seed), nil
}

// publishOutcome counts one crash-oracle cell on counter, labelled by its
// scheme, outcome and kv, and publishes a detection's latency under model.
func publishOutcome(reg *obs.Registry, counter string, s Scheme, model string, o CrashOutcome, f *Forensic, kv ...string) {
	reg.Counter(counter, append(kv, "scheme", s.String(), "outcome", o.String())...).Add(1)
	if f != nil {
		publishDetectLatency(reg, s, model, f)
	}
}

// recordSilent records one crash-oracle cell as sample i of a no-silent
// SLO series: one when the cell broke the recovery contract, else zero.
func recordSilent(ts *timeseries.Sampler, series string, i int, silent bool, kv ...string) {
	v := 0.0
	if silent {
		v = 1
	}
	ts.Counter(series, kv...).Record(int64(i)*ts.WindowPs(), v)
}

// addOutcomeRows adds one summary row per distinct lead of cells 0..n-1
// to t, in first-seen order: the lead columns, their cell count, and their
// cells per outcome from restored to internal.
func addOutcomeRows(t *report.Table, n int, cell func(i int) (lead []string, o CrashOutcome)) {
	type row struct {
		lead   []string
		total  int
		counts [OutcomeInternalError + 1]int
	}
	var rows []*row
	byLead := map[string]*row{}
	for i := 0; i < n; i++ {
		lead, o := cell(i)
		k := strings.Join(lead, "\x00")
		r := byLead[k]
		if r == nil {
			r = &row{lead: lead}
			byLead[k], rows = r, append(rows, r)
		}
		r.total++
		r.counts[o]++
	}
	for _, r := range rows {
		cols := append(r.lead, fmt.Sprint(r.total))
		for _, c := range r.counts {
			cols = append(cols, fmt.Sprint(c))
		}
		t.AddRow(cols...)
	}
}

// stampForensic copies a cell's forensic, labelled for a ForensicTable row.
func stampForensic(f *Forensic, label string, s Scheme, model string) Forensic {
	out := *f
	out.Label, out.Scheme, out.Model = label, s.String(), model
	return out
}
