// Package osiris implements Osiris-style counter recovery (Ye, Hughes,
// Awad — MICRO 2018), the vault-free alternative the paper cites for
// restoring secure-memory metadata after a crash (§II-C: "we can first
// recover the secure metadata cache by using mechanisms such as Osiris and
// Anubis").
//
// Mechanism: at run time, counter blocks are written through to NVM every
// stop-loss-th increment (and MACs are co-located with data, so every data
// write persists its MAC). After a crash, the persisted counter of a block
// lags its true value by fewer than stop-loss increments; recovery tries
// each candidate counter against the block's data MAC until one verifies,
// then rebuilds the integrity tree bottom-up from the recovered counters
// and re-anchors the on-chip root.
//
// Freshness caveat (the reason Anubis and Horus exist): because the root
// is rebuilt rather than matched, an attacker who replays a *mutually
// consistent* old triple (counter block, ciphertext, MAC) within the
// stop-loss window is not detected by this path alone. The package
// faithfully reproduces the mechanism and its costs — full-memory scan,
// candidate MAC trials, whole-tree rebuild — which is exactly the
// recovery-time trade-off the paper's related work discusses.
//
// Observability mirrors the main recovery package: the scan and rebuild
// run as one "recover-osiris" timeline/flight-recorder episode (path label
// "osiris"), so the baseline counter-reconstruction cost shows up in the
// same attribution tables and forensic chains as the CHV and vault paths.
package osiris

import (
	"fmt"
	"sort"

	"repro/internal/bmt"
	"repro/internal/cme"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/obs/evlog"
	"repro/internal/recovery"
	"repro/internal/sim"
	"repro/internal/timeline"
)

// nodeKey identifies a tree node during the rebuild.
type nodeKey struct {
	level int
	index uint64
}

// Result reports an Osiris recovery.
type Result struct {
	// DataBlocksScanned is the number of populated data blocks visited.
	DataBlocksScanned int
	// CountersAdvanced is how many counters had to be rolled forward past
	// their persisted value.
	CountersAdvanced int
	// CandidateTrials is the number of MAC checks performed.
	CandidateTrials int64
	// TreeNodesRebuilt counts integrity-tree nodes recomputed and written.
	TreeNodesRebuilt int64
	// RecoveryTime is the simulated duration of the scan and rebuild.
	RecoveryTime sim.Time
	// Timeline is the episode captured when a recorder was attached.
	Timeline *timeline.Recording
}

// Error reports an unrecoverable block.
type Error struct {
	Addr   uint64
	Detail string

	// Forensic provenance, stamped like recovery.Error's.
	Check           string         // "osiris-counter-trial"
	Region          string         // layout region of the failing address
	Expected        string         // stored MAC no candidate reproduced, hex
	BlocksScanned   int64          // data blocks recovered before the failure
	DetectLatencyPs int64          // phase-local simulated time of the failure
	Chain           []evlog.Record // trailing flight-recorder records
}

// Error implements the error interface.
func (e *Error) Error() string {
	return fmt.Sprintf("osiris: recovery failed at %#x: %s", e.Addr, e.Detail)
}

// Recover reconstructs the counters and integrity tree of the system's
// data region after a crash, assuming the run-time controller was
// configured with the given stop-loss. It must be called on a crashed
// controller (empty metadata caches); on success, in-place data verifies
// through the normal secure read path again.
func Recover(sys *core.System, stopLoss int) (Result, error) {
	return RecoverLabeled(sys, stopLoss, "")
}

// RecoverLabeled is Recover with the scheme label stamped on the path's
// metrics, timeline episode and forensic records.
func RecoverLabeled(sys *core.System, stopLoss int, scheme string) (Result, error) {
	if stopLoss <= 0 {
		return Result{}, fmt.Errorf("osiris: stop-loss must be positive")
	}
	if scheme == "" {
		scheme = "unknown"
	}
	lay := sys.Layout
	nvm := sys.NVM
	nvm.ResetStats()
	sys.Sec.ResetStats()
	p := recovery.BeginPath(sys, "osiris", scheme)
	p.Stage("recover:osiris-scan")

	var res Result
	var now sim.Time
	var macs int64

	// Pass 1: recover counters, grouped by counter block.
	dataAddrs := nvm.Store().AddressesInRange(0, lay.DataSize)
	var curCtrAddr uint64
	var curCtr cme.CounterBlock
	var curDirty bool
	var haveCur bool
	flush := func() {
		if haveCur && curDirty {
			now = nvm.Write(now, curCtrAddr, curCtr.Encode(), mem.CatCounter)
		}
		haveCur = false
		curDirty = false
	}
	for _, addr := range dataAddrs {
		ctrAddr := lay.CounterBlockAddr(addr)
		if !haveCur || ctrAddr != curCtrAddr {
			flush()
			raw, t := nvm.Read(now, ctrAddr, mem.CatCounter)
			now = t
			curCtr = cme.DecodeCounterBlock(raw)
			curCtrAddr = ctrAddr
			haveCur = true
		}
		res.DataBlocksScanned++

		ct, t := nvm.Read(now, addr, mem.CatData)
		now = t
		macBlk, t := nvm.Read(now, lay.MACBlockAddr(addr), mem.CatMAC)
		now = t
		stored := cme.UnpackMACs(macBlk)[cme.MACSlot(addr)]

		slot := cme.CounterIndex(addr)
		base := curCtr.Counter(slot)
		found := false
		for d := uint64(0); d <= uint64(stopLoss); d++ {
			cand := base + d
			res.CandidateTrials++
			macs++
			now = sys.Sec.IssueMAC(now, "osiris-trial")
			p.MACOp(now)
			if sys.Enc.DataMAC(addr, cand, ct) == stored {
				if d > 0 {
					res.CountersAdvanced++
					setCounter(&curCtr, slot, cand)
					curDirty = true
				}
				found = true
				break
			}
		}
		if !found {
			if stored == (cme.MAC{}) && ct.IsZero() && base == 0 {
				continue // never-written block that happens to be populated
			}
			e := &Error{Addr: addr,
				Check: "osiris-counter-trial", Region: "data",
				Expected:        fmt.Sprintf("%x", stored),
				BlocksScanned:   int64(res.DataBlocksScanned),
				DetectLatencyPs: int64(now),
				Detail:          fmt.Sprintf("no counter candidate within stop-loss %d verifies", stopLoss)}
			e.Chain = p.Failure(now, evlog.Record{Check: e.Check, Region: e.Region,
				Addr: addr, Expected: e.Expected, Detail: e.Detail})
			return Result{}, e
		}
		p.Ok(now, "osiris-counter-trial", "data", addr, 0)
		p.Block(now)
	}
	flush()

	// Pass 2: rebuild the integrity tree bottom-up over every counter
	// block present in NVM, and re-anchor the root register.
	p.Stage("recover:osiris-rebuild")
	root, nodes, rMACs, t := rebuildTree(sys, now, p)
	now = t
	macs += rMACs
	res.TreeNodesRebuilt = nodes
	sys.Sec.RestoreRoot(root)

	res.RecoveryTime = now
	res.Timeline = p.Done(now)
	recovery.PublishPathMetrics(sys.Metrics, scheme, "osiris", now,
		int64(res.DataBlocksScanned), macs, res.Timeline)
	sys.NVM.PublishMetrics("recover-osiris", now)
	sys.Sec.PublishMetrics("recover-osiris", now)
	return res, nil
}

// setCounter writes an absolute counter value into a slot (major is shared;
// recovery only ever advances minors within the current major, since
// overflows persist the block).
func setCounter(cb *cme.CounterBlock, slot int, value uint64) {
	major := value / cme.MinorLimit
	minor := value % cme.MinorLimit
	if major != cb.Major {
		// A recovered counter crossing a major boundary means the overflow
		// persist was lost — impossible under the write-through rule.
		panic("osiris: recovered counter crosses a major-counter boundary")
	}
	cb.Minors[slot] = byte(minor)
}

// RebuildTree recomputes every populated integrity-tree path bottom-up and
// returns the new root-register content and the number of nodes written.
func RebuildTree(sys *core.System, start sim.Time) (mem.Block, int64, sim.Time) {
	root, written, _, now := rebuildTree(sys, start, nil)
	return root, written, now
}

// rebuildTree is RebuildTree with MAC-op accounting on an optional
// recovery-path observer.
func rebuildTree(sys *core.System, start sim.Time, p *recovery.PathObs) (mem.Block, int64, int64, sim.Time) {
	lay := sys.Layout
	nvm := sys.NVM
	now := start
	var macs int64

	// Level 0: every populated counter block.
	ctrBase := lay.CounterBase
	ctrEnd := ctrBase + lay.NumCounterBlocks*bmt.BlockSize
	addrs := nvm.Store().AddressesInRange(ctrBase, ctrEnd)

	// Entries to install per parent node.
	pending := make(map[nodeKey]map[int]cme.MAC)
	for _, a := range addrs {
		_, index, ok := lay.Coord(a)
		if !ok {
			continue
		}
		raw, t := nvm.Read(now, a, mem.CatCounter)
		now = t
		macs++
		now = sys.Sec.IssueMAC(now, "osiris-rebuild")
		p.MACOp(now)
		macVal := sys.Enc.NodeMAC(0, index, raw)
		pLevel, pIndex, slot := lay.Parent(0, index)
		k := nodeKey{pLevel, pIndex}
		if pending[k] == nil {
			pending[k] = make(map[int]cme.MAC)
		}
		pending[k][slot] = macVal
	}

	var written int64
	var root mem.Block
	for level := 1; level <= lay.RootLevel(); level++ {
		var keys []nodeKey
		for k := range pending {
			if k.level == level {
				keys = append(keys, k)
			}
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i].index < keys[j].index })
		for _, k := range keys {
			entries := pending[k]
			delete(pending, k)
			var content mem.Block
			if level < lay.RootLevel() {
				addr := lay.NodeAddr(level, k.index)
				old, t := nvm.Read(now, addr, mem.CatTree)
				now = t
				content = old
			}
			for slot, macVal := range entries {
				copy(content[slot*cme.MACSize:(slot+1)*cme.MACSize], macVal[:])
			}
			if level == lay.RootLevel() {
				root = content
				continue
			}
			addr := lay.NodeAddr(level, k.index)
			now = nvm.Write(now, addr, content, mem.CatTree)
			written++
			macs++
			now = sys.Sec.IssueMAC(now, "osiris-rebuild")
			p.MACOp(now)
			macVal := sys.Enc.NodeMAC(level, k.index, content)
			pLevel, pIndex, slot := lay.Parent(level, k.index)
			nk := nodeKey{pLevel, pIndex}
			if pending[nk] == nil {
				pending[nk] = make(map[int]cme.MAC)
			}
			pending[nk][slot] = macVal
		}
	}
	return root, written, macs, now
}
