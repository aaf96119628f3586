package horus

import (
	"fmt"

	"repro/internal/addrmap"
	"repro/internal/core"
	"repro/internal/obs/evlog"
	"repro/internal/recovery"
	"repro/internal/sim"
)

// classifyOutcome is the shared recovery oracle behind the torture matrix
// and the litmus reordering checker: given a crashed system (volatile state
// already discarded, root register restored from ps), it runs the scheme's
// recovery path and classifies the result against the drained blocks.
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

// classifyHorusOutcome recovers the CHV directly (RestoreMetadataVault +
// RecoverHorus, without refilling a machine) and compares the recovered
// blocks against blocks. Direct comparison keeps the verdict about the CHV:
// refilling a machine would route reads through the secure controller and
// conflate CHV verification with metadata-residue verification.
func classifyHorusOutcome(cs *core.System, ps PersistentState,
	blocks []DirtyBlock, interrupted bool) (CrashOutcome, string, *Forensic, sim.Time) {
	cs.NVM.ResetStats()
	cs.Sec.ResetStats()
	var elapsed sim.Time
	if ps.Vault.Count > 0 {
		vr, err := recovery.RestoreMetadataVaultFor(cs, ps.Vault, ps.Scheme.String())
		elapsed += vr.RecoveryTime
		if err != nil {
			o, d, f := classifyRecoveryError(err, "metadata vault")
			return o, d, f, elapsed
		}
	}
	res, err := recovery.RecoverHorus(cs, ps)
	elapsed += res.RecoveryTime
	if err != nil {
		o, d, f := classifyRecoveryError(err, "CHV recovery")
		return o, d, f, elapsed
	}
	index := drainIndex(blocks)
	detail, missing := checkRecovered(res.Blocks, blocks, &index)
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
// drained block through the secure read path, functionally (ProbeBlock): the
// cell's time is recovery's alone, so the probe sweep books no simulated
// time. Each block must come back as its drained bytes, fail verification
// with a typed error, or — only when the drain was interrupted — come back
// as an older authentic value (the MACs are real keyed functions in this
// simulator, so a verified value that differs is a stale authentic one,
// not forged bytes).
func classifyBaselineOutcome(cs *core.System, ps PersistentState,
	blocks []DirtyBlock, interrupted bool) (CrashOutcome, string, *Forensic, sim.Time) {
	cs.NVM.ResetStats()
	cs.Sec.ResetStats()
	br, err := recovery.RecoverBaseline(cs, ps)
	elapsed := br.RecoveryTime
	if err != nil {
		o, d, f := classifyRecoveryError(err, "baseline recovery")
		return o, d, f, elapsed
	}
	detected, stale := 0, 0
	var first *Forensic
	for i, b := range blocks {
		got, err := cs.Sec.ProbeBlock(b.Addr)
		if err != nil {
			if !recovery.IsDetection(err) {
				return OutcomeInternalError, fmt.Sprintf("post-recovery read of %#x failed with untyped error: %v", b.Addr, err), nil, elapsed
			}
			if first == nil {
				// The probe sweep is this path's detection scan: blocks
				// scanned before the first typed failure is its latency.
				first = ForensicFromError(err, "post-recovery read")
				first.BlocksScanned = int64(i)
			}
			detected++
			continue
		}
		if got != b.Data {
			stale++
		}
	}
	switch {
	case detected == 0 && stale == 0:
		return OutcomeRestored, "", nil, elapsed
	case detected > 0:
		return OutcomeDetected, fmt.Sprintf("%d/%d blocks failed verification (typed)", detected, len(blocks)), first, elapsed
	case interrupted:
		return OutcomePartial, fmt.Sprintf("%d/%d blocks at authentic pre-drain values", stale, len(blocks)), nil, elapsed
	default:
		return OutcomeSilentCorruption, fmt.Sprintf("drain completed but %d/%d blocks verified with stale values", stale, len(blocks)), nil, elapsed
	}
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
