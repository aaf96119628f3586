// Package recovery implements power-restore recovery (§IV-C3).
//
// For Horus, the CHV contents are read back in reverse flush order; each
// drained block's drain-counter value is derived from its CHV position and
// the persistent drain-counter register, its MAC is verified against the
// stored (coalesced) MAC blocks, and the plaintext is re-installed in the
// cache hierarchy in dirty state. Tampering, splicing or replaying CHV
// content is detected as a MAC mismatch and reported with a typed error.
//
// For the baselines, the metadata-cache vault is read back, verified
// against the persistent vault-root register, and re-installed into the
// secure memory controller, after which in-place memory verifies normally.
//
// Timing: recovery is modelled as a single dependent read-verify-decrypt
// stream (each step threads the completion time of the previous one), the
// conservative model behind the paper's Fig. 16 estimate.
//
// Observability: each recovery path brackets its own episode on the
// system's timeline recorder (so internal/timeline.Analyze attributes the
// recovery critical path exactly as it does for drains) and on the
// detection-forensics flight recorder (internal/obs/evlog), whose trailing
// records are captured into any typed *Error as its provenance chain.
package recovery

import (
	"errors"
	"fmt"

	"repro/internal/bmt"
	"repro/internal/cme"
	"repro/internal/core"
	"repro/internal/hierarchy"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/obs/evlog"
	"repro/internal/obs/timeseries"
	"repro/internal/secmem"
	"repro/internal/sim"
	"repro/internal/timeline"
)

// MAC-calculation category charged for recovery-time verification.
const MACRecoveryVerify = "recovery-verify"

// Error reports a failed CHV or vault verification during recovery.
type Error struct {
	Slot   uint64 // CHV slot (drain index) where verification failed
	Addr   uint64 // original address recorded for the slot, if known
	Detail string

	// Forensic provenance, stamped by the instrumented recovery paths.
	Check           string         // verification that fired ("chv-data-mac")
	Region          string         // layout region it touched ("chv-data")
	Expected        string         // stored identity the check required, hex
	Got             string         // identity recomputed from the read-back, hex
	BlocksScanned   int64          // blocks the path had verified before firing
	DetectLatencyPs int64          // phase-local simulated time of the detection
	Chain           []evlog.Record // trailing flight-recorder records, oldest first
}

// Error implements the error interface.
func (e *Error) Error() string {
	return fmt.Sprintf("recovery: verification failed at CHV slot %d (addr %#x): %s",
		e.Slot, e.Addr, e.Detail)
}

// IsDetection reports whether err is (or wraps) a typed corruption-detection
// error — one this package or the secure memory controller raises when
// persistent state fails verification — as opposed to an internal or usage
// error. The torture matrix uses it to separate "the corruption was caught"
// (the contract's acceptable outcome) from "the harness or implementation
// broke" (a matrix failure).
func IsDetection(err error) bool {
	// Fast path: the oracles' probe sweeps test every failed read, and
	// almost all of them return the typed error unwrapped.
	switch err.(type) {
	case *Error, *secmem.IntegrityError:
		return true
	}
	var re *Error
	if errors.As(err, &re) {
		return true
	}
	var ie *secmem.IntegrityError
	return errors.As(err, &ie)
}

// PathObs brackets one recovery path's observability: an episode on the
// system's timeline recorder, an episode on the flight recorder, and the
// horus_ts_recovery_* sim-time series. Every method is nil-safe against
// detached recorders, so an uninstrumented recovery pays pointer checks
// only. The osiris baseline reconstruction shares it.
type PathObs struct {
	sys      *core.System
	scheme   string
	path     string
	blocks   int64
	tsBlocks *timeseries.Series
	tsMACs   *timeseries.Series
}

// BeginPath opens the observability episode for one recovery path
// ("chv", "vault", "osiris") under the given scheme label.
func BeginPath(sys *core.System, path, scheme string) *PathObs {
	p := &PathObs{sys: sys, scheme: scheme, path: path}
	label := "recover-" + path + ":" + scheme
	sys.Timeline.BeginEpisode(label)
	sys.Timeline.SetStage("recover:" + path)
	sys.Evlog.BeginEpisode(label)
	sys.Evlog.SetStage("recover:" + path)
	if ts := sys.Timeseries; ts != nil {
		p.tsBlocks = ts.Counter("horus_ts_recovery_blocks", "scheme", scheme, "path", path)
		p.tsMACs = ts.Counter("horus_ts_recovery_mac_ops", "scheme", scheme, "path", path)
	}
	return p
}

// Stage stamps a sub-stage onto subsequent timeline events and records.
func (p *PathObs) Stage(s string) {
	if p == nil {
		return
	}
	p.sys.Timeline.SetStage(s)
	p.sys.Evlog.SetStage(s)
}

// Block counts one block verified at time now; the running count is the
// detection-latency numerator a failing check reports.
func (p *PathObs) Block(now sim.Time) {
	if p == nil {
		return
	}
	p.blocks++
	p.tsBlocks.Record(int64(now), 1)
}

// Blocks returns how many blocks the path has verified so far.
func (p *PathObs) Blocks() int64 {
	if p == nil {
		return 0
	}
	return p.blocks
}

// MACOp counts one verification MAC computation at time now.
func (p *PathObs) MACOp(now sim.Time) {
	if p == nil {
		return
	}
	p.tsMACs.Record(int64(now), 1)
}

// Ok records a passed check. Success records carry no identity hex so the
// hot verification loop allocates nothing per block.
func (p *PathObs) Ok(now sim.Time, check, region string, addr, slot uint64) {
	if p == nil {
		return
	}
	if l := p.sys.Evlog; l != nil {
		l.Append(evlog.Record{TPs: int64(now), Check: check, Region: region,
			Addr: addr, Slot: slot, Blocks: p.blocks, Outcome: "ok"})
	}
}

// Info records a non-verdict decision (e.g. "attempting parity repair").
func (p *PathObs) Info(now sim.Time, check, region, detail string) {
	if p == nil {
		return
	}
	if l := p.sys.Evlog; l != nil {
		l.Append(evlog.Record{TPs: int64(now), Check: check, Region: region,
			Blocks: p.blocks, Outcome: "info", Detail: detail})
	}
}

// Failure closes the path at a detection: it appends the failing record,
// ends both episodes at now, and returns the captured provenance chain
// (nil when no flight recorder is attached).
func (p *PathObs) Failure(now sim.Time, r evlog.Record) []evlog.Record {
	if p == nil {
		return nil
	}
	r.TPs = int64(now)
	r.Blocks = p.blocks
	r.Outcome = "fail"
	var chain []evlog.Record
	if l := p.sys.Evlog; l != nil {
		l.Append(r)
		l.EndEpisode(int64(now))
		chain = l.Records()
	}
	p.sys.Timeline.EndEpisode(now)
	return chain
}

// fail stamps the path's forensic state onto e, captures the provenance
// chain, closes both episodes at the detection time and returns e.
func (p *PathObs) fail(now sim.Time, e *Error) *Error {
	e.BlocksScanned = p.blocks
	e.DetectLatencyPs = int64(now)
	e.Chain = p.Failure(now, evlog.Record{Check: e.Check, Region: e.Region,
		Addr: e.Addr, Slot: e.Slot, Expected: e.Expected, Got: e.Got, Detail: e.Detail})
	return e
}

// Done closes both episodes at the path's final time and returns the
// captured timeline recording (nil when no recorder is attached).
func (p *PathObs) Done(rt sim.Time) *timeline.Recording {
	if p == nil {
		return nil
	}
	p.sys.Evlog.EndEpisode(int64(rt))
	tl := p.sys.Timeline
	tl.EndEpisode(rt)
	return tl.Recording()
}

// PublishPathMetrics emits one recovery path's metrics: the most-recent
// gauge, a histogram that merges losslessly across parallel sweep episodes
// (gauges are last-write-wins under Registry.Merge), cumulative counters,
// and the critical-path attribution of the captured recording.
func PublishPathMetrics(reg *obs.Registry, scheme, path string, rt sim.Time, blocks, macs int64, rec *timeline.Recording) {
	if reg == nil {
		return
	}
	reg.SetHelp("horus_recovery_time_ps",
		"Most recent simulated recovery time by scheme and path (chv = CHV read-back, vault = metadata-vault restore, osiris = counter reconstruction), picoseconds (Fig. 16); last-write-wins under merges — horus_recovery_time_hist_ps keeps every episode.")
	reg.Gauge("horus_recovery_time_ps", "scheme", scheme, "path", path).Set(float64(rt))
	reg.SetHelp("horus_recovery_time_hist_ps",
		"Distribution of per-episode simulated recovery times by scheme and path, picoseconds; histograms merge bucket-wise, so parallel sweeps lose nothing.")
	reg.Histogram("horus_recovery_time_hist_ps", obs.LatencyBuckets, "scheme", scheme, "path", path).Observe(float64(rt))
	reg.SetHelp("horus_recovery_blocks_total",
		"Blocks read back and verified during recovery, by scheme and path.")
	reg.Counter("horus_recovery_blocks_total", "scheme", scheme, "path", path).Add(blocks)
	reg.SetHelp("horus_recovery_mac_ops_total",
		"MAC computations issued by recovery-time verification, by scheme and path.")
	reg.Counter("horus_recovery_mac_ops_total", "scheme", scheme, "path", path).Add(macs)
	if rec != nil {
		timeline.Analyze(rec).Publish(reg, "scheme", scheme, "path", path)
	}
}

// HorusResult reports a Horus recovery episode.
type HorusResult struct {
	// RecoveryTime is the simulated time to read back, verify and decrypt
	// the whole CHV (Fig. 16).
	RecoveryTime sim.Time
	// Blocks are the recovered dirty blocks in original flush order.
	Blocks []hierarchy.DirtyBlock
	// MemReads counts read-back accesses by category.
	MemReads *sim.CounterSet
	// MACCalcs counts verification MAC computations.
	MACCalcs int64
	// Persist is the post-recovery register state (EDC cleared, §IV-C1).
	Persist core.PersistentState
	// Timeline is the path's captured episode when a recorder was attached,
	// ready for timeline.Analyze / Chrome-trace export; nil otherwise.
	Timeline *timeline.Recording
}

// Options tunes the Horus recovery path.
type Options struct {
	// BankParallel issues each 8-block group's read-verify-decrypt chain
	// independently, letting the banked NVM overlap groups. The default
	// (false) is the paper's conservative single-stream estimate
	// (Fig. 16); parallel recovery is an extension that shows how much
	// headroom the banked memory leaves.
	BankParallel bool
}

// RecoverHorus reads the CHV back and returns the recovered blocks. ps must
// be the persistent state captured by the drain; the zero Options select the
// paper's conservative serial read-back model.
func RecoverHorus(sys *core.System, ps core.PersistentState, opt Options) (HorusResult, error) {
	p := BeginPath(sys, "chv", ps.Scheme.String())
	if !ps.Scheme.UsesCHV() {
		// The scheme register is persistent state like DC/EDC: a crash can
		// leave any bytes in it, so an implausible value is detected
		// corruption (typed, so IsDetection classifies it), not a usage error.
		return HorusResult{}, p.fail(0, &Error{
			Check: "scheme-register", Region: "registers",
			Detail: fmt.Sprintf("persistent state is from %v, not a Horus scheme (corrupted register state)", ps.Scheme)})
	}
	sys.NVM.ResetStats()
	sys.Sec.ResetStats()
	lay := sys.Layout
	n := ps.EDC
	// A crash can leave any bytes in the persistent registers' NVM shadow;
	// an implausible register file is detected corruption, not a license to
	// index outside the CHV (or allocate 2^60 blocks).
	if n > lay.CHVCapacity {
		return HorusResult{}, p.fail(0, &Error{Slot: n,
			Check: "edc-range", Region: "registers",
			Detail: fmt.Sprintf("persistent EDC %d exceeds CHV capacity %d (corrupted register state)", n, lay.CHVCapacity)})
	}
	if ps.DC < n {
		return HorusResult{}, p.fail(0, &Error{
			Check: "dc-range", Region: "registers",
			Detail: fmt.Sprintf("persistent DC %d smaller than EDC %d (corrupted register state)", ps.DC, n)})
	}
	if ps.CHVRegion >= lay.CHVRegions {
		return HorusResult{}, p.fail(0, &Error{
			Check: "chv-region-range", Region: "registers",
			Detail: fmt.Sprintf("persistent CHV region %d out of range [0,%d) (corrupted register state)", ps.CHVRegion, lay.CHVRegions)})
	}
	firstDC := ps.DC - n
	dlm := ps.Scheme == core.HorusDLM

	blocks := make([]hierarchy.DirtyBlock, n)
	var now sim.Time
	var macs int64
	reg := sys.Metrics
	span := reg.StartSpan("verify-chv", 0)
	// Closes the span on every return path; a successful return has already
	// closed it at the final recovery time, making this a no-op.
	defer func() { span.EndAt(int64(now)) }()

	// Group size: 8 data blocks share one address block; MAC blocks hold 8
	// first-level MACs (SLM) or 8 second-level MACs covering 64 data
	// blocks (DLM). Read back groups in reverse flush order (§IV-C3).
	// A one-block register holds the most recently read MAC block so the
	// DLM scheme reads each (64-block-coverage) MAC block only once.
	var macRegAddr uint64
	var macRegValid bool
	var macReg mem.Block
	var lastDone sim.Time
	groups := (n + 7) / 8
	for g := int64(groups) - 1; g >= 0; g-- {
		base := uint64(g) * 8
		end := base + 8
		if end > n {
			end = n
		}
		if opt.BankParallel {
			// Each group's chain starts at t=0; the banked NVM and the
			// crypto engines arbitrate overlap.
			lastDone = sim.MaxTime(lastDone, now)
			now = 0
		}

		// Address block for the group.
		addrBlkAddr, _ := lay.CHVAddrBlockAddrR(ps.CHVRegion, base)
		addrBlk, t := sys.NVM.Read(now, addrBlkAddr, mem.CatRecovery)
		now = t
		addrs := core.UnpackAddrs(addrBlk)

		// Stored MACs for the group.
		var storedL1 [8]cme.MAC
		var storedL2 cme.MAC
		if dlm {
			mAddr, slot := lay.CHVMACBlockAddrDLMR(ps.CHVRegion, base)
			if !macRegValid || macRegAddr != mAddr {
				mBlk, t := sys.NVM.Read(now, mAddr, mem.CatRecovery)
				now = t
				macReg, macRegAddr, macRegValid = mBlk, mAddr, true
			}
			storedL2 = cme.UnpackMACs(macReg)[slot]
		} else {
			mAddr, _ := lay.CHVMACBlockAddrR(ps.CHVRegion, base)
			mBlk, t := sys.NVM.Read(now, mAddr, mem.CatRecovery)
			now = t
			storedL1 = cme.UnpackMACs(mBlk)
		}

		// Data blocks: read, recompute MACs, decrypt.
		var computed []cme.MAC
		for i := base; i < end; i++ {
			ct, t := sys.NVM.Read(now, lay.CHVDataAddrR(ps.CHVRegion, i), mem.CatRecovery)
			now = t
			addr := addrs[i%8]
			// The MAC input is addr|DrainPadDomain, so the OR would absorb a
			// flipped domain bit in the stored entry and the MAC would still
			// verify — with the block reported at a bogus address. Stored
			// entries are runtime addresses and must never carry the bit.
			if addr&core.DrainPadDomain != 0 {
				return HorusResult{}, p.fail(now, &Error{Slot: i, Addr: addr,
					Check: "chv-addr-domain", Region: "chv-addr",
					Detail: "CHV address entry carries the drain-domain bit (tampered address block)"})
			}
			ctr := firstDC + i
			now = sys.Sec.IssueMAC(now, MACRecoveryVerify)
			macs++
			p.MACOp(now)
			m := sys.Enc.DataMAC(addr|core.DrainPadDomain, ctr, ct)
			computed = append(computed, m)
			if !dlm {
				if m != storedL1[i%8] {
					return HorusResult{}, p.fail(now, &Error{Slot: i, Addr: addr,
						Check: "chv-data-mac", Region: "chv-data",
						Expected: fmt.Sprintf("%x", storedL1[i%8]), Got: fmt.Sprintf("%x", m),
						Detail: "data MAC mismatch (tampered, spliced or replayed CHV content)"})
				}
				p.Ok(now, "chv-data-mac", "chv-data", addr, i)
			}
			now = sys.Sec.IssueAES(now)
			plain := sys.Enc.Decrypt(addr|core.DrainPadDomain, ctr, ct)
			blocks[i] = hierarchy.DirtyBlock{Addr: addr, Data: plain}
			p.Block(now)
		}
		if dlm {
			now = sys.Sec.IssueMAC(now, MACRecoveryVerify)
			macs++
			p.MACOp(now)
			m2 := sys.Enc.MACOverMACs(core.DrainPadDomain|uint64(g), computed)
			if m2 != storedL2 {
				return HorusResult{}, p.fail(now, &Error{Slot: base, Addr: addrs[0],
					Check: "chv-l2-mac", Region: "chv-mac",
					Expected: fmt.Sprintf("%x", storedL2), Got: fmt.Sprintf("%x", m2),
					Detail: "second-level MAC mismatch (tampered, spliced or replayed CHV group)"})
			}
			p.Ok(now, "chv-l2-mac", "chv-mac", addrs[0], base)
		}
	}

	ps.EDC = 0 // cleared after each recovery (§IV-C1)
	rt := sim.MaxTime(now, lastDone)
	span.EndAt(int64(rt))
	rec := p.Done(rt)
	PublishPathMetrics(reg, p.scheme, "chv", rt, int64(n), macs, rec)
	sys.NVM.PublishMetrics("recover", rt)
	sys.Sec.PublishMetrics("recover", rt)
	return HorusResult{
		RecoveryTime: rt,
		Blocks:       blocks,
		MemReads:     sys.NVM.Reads().Clone(),
		MACCalcs:     macs,
		Persist:      ps,
		Timeline:     rec,
	}, nil
}

// RefillHierarchy installs recovered blocks into a hierarchy as dirty lines
// (the paper's option of reading them back into the LLC in dirty state).
// The hierarchy is sized for the whole refill up front, so it never grows.
func RefillHierarchy(h *hierarchy.Hierarchy, blocks []hierarchy.DirtyBlock) {
	h.Reserve(h.DirtyCount() + len(blocks))
	for _, b := range blocks {
		h.Write(b.Addr, b.Data)
	}
}

// BaselineResult reports a baseline (vault) recovery episode.
type BaselineResult struct {
	RecoveryTime sim.Time
	// LinesRestored is the number of metadata-cache lines re-installed.
	LinesRestored int
	MemReads      *sim.CounterSet
	MACCalcs      int64
	// Timeline is the path's captured episode when a recorder was attached.
	Timeline *timeline.Recording
}

// RecoverBaseline restores the metadata-cache contents from the vault
// written by a lazy-scheme drain, verifying them against the persistent
// vault root, and re-installs them into the secure controller. Eager-scheme
// drains flush metadata in place, so their vault is empty and nothing needs
// re-installing — memory already verifies against the root register.
func RecoverBaseline(sys *core.System, ps core.PersistentState) (BaselineResult, error) {
	if ps.Scheme.UsesCHV() || !ps.Scheme.Secure() {
		// Typed for the same reason as the Horus-side scheme check: the
		// scheme register is persistent state and can hold anything after a
		// crash, so a mismatch is detected corruption.
		return BaselineResult{}, &Error{
			Check: "scheme-register", Region: "registers",
			Detail: fmt.Sprintf("persistent state is from %v, not a baseline scheme (corrupted register state)", ps.Scheme)}
	}
	sys.NVM.ResetStats()
	sys.Sec.ResetStats()
	return RestoreMetadataVault(sys, ps.Vault, ps.Scheme.String())
}

// RestoreMetadataVault reads back, verifies and re-installs the
// metadata-cache vault, stamping the drain's scheme label on the path's
// metrics, timeline episode and forensic records. Horus drains also leave a
// vault (the run-time metadata residue flushed at the end of the drain), so
// Horus recovery uses this too, before reading the CHV.
func RestoreMetadataVault(sys *core.System, vault secmem.VaultRecord, scheme string) (BaselineResult, error) {
	lay := sys.Layout
	count := vault.Count
	if count == 0 {
		// Nothing vaulted: return before bracketing any episode so an
		// eager-scheme recovery leaves the drain recording untouched.
		return BaselineResult{}, nil
	}
	p := BeginPath(sys, "vault", scheme)
	// Validate the vault record before deriving any addresses from it: a
	// corrupted count (negative, or larger than the vault region can hold,
	// including the parity/leaf-MAC blocks repair would read) is detected
	// corruption, never an out-of-range panic.
	if count < 0 {
		return BaselineResult{}, p.fail(0, &Error{
			Check: "vault-count", Region: "vault",
			Detail: fmt.Sprintf("vault record count %d is negative (corrupted register state)", count)})
	}
	addrBlocks := (count + 7) / 8
	total := count + addrBlocks
	need := uint64(total)
	if vault.Parity {
		need += 2 * uint64((total+7)/8)
	}
	if need > lay.VaultBlocks {
		return BaselineResult{}, p.fail(0, &Error{
			Check: "vault-capacity", Region: "vault",
			Detail: fmt.Sprintf("vault record needs %d blocks but the vault region holds %d (corrupted register state)", need, lay.VaultBlocks)})
	}

	var now sim.Time
	var macs int64
	reg := sys.Metrics
	span := reg.StartSpan("restore-vault", 0)
	defer func() { span.EndAt(int64(now)) }()
	vaultContent := make([]mem.Block, total)
	for i := 0; i < total; i++ {
		b, t := sys.NVM.Read(now, lay.VaultAddr(uint64(i)), mem.CatRecovery)
		now = t
		vaultContent[i] = b
		p.Block(now)
	}
	root := secmem.ComputeVaultRoot(sys.Enc, vaultContent, func() {
		macs++
		now = sys.Sec.IssueMAC(now, MACRecoveryVerify)
		p.MACOp(now)
	})
	if root != vault.Root {
		if !vault.Parity {
			return BaselineResult{}, p.fail(now, &Error{
				Check: "vault-root", Region: "vault",
				Expected: fmt.Sprintf("%x", vault.Root), Got: fmt.Sprintf("%x", root),
				Detail: "metadata-cache vault root mismatch"})
		}
		// Soteria-style repair: locate corrupted payload blocks via the
		// stored leaf MACs and reconstruct them from the group parity.
		p.Info(now, "vault-root", "vault", "vault root mismatch; attempting parity repair")
		repaired, t, rMACs, err := repairVault(sys, vault, vaultContent, now, p)
		now = t
		macs += rMACs
		if err != nil {
			return BaselineResult{}, err
		}
		vaultContent = repaired
		root = secmem.ComputeVaultRoot(sys.Enc, vaultContent, func() {
			macs++
			now = sys.Sec.IssueMAC(now, MACRecoveryVerify)
			p.MACOp(now)
		})
		if root != vault.Root {
			return BaselineResult{}, p.fail(now, &Error{
				Check: "vault-root", Region: "vault",
				Expected: fmt.Sprintf("%x", vault.Root), Got: fmt.Sprintf("%x", root),
				Detail: "metadata-cache vault unrecoverable after parity repair"})
		}
	}
	p.Ok(now, "vault-root", "vault", 0, 0)

	lines := make([]secmem.VaultLine, count)
	for i := 0; i < count; i++ {
		lines[i].Content = vaultContent[i]
	}
	for bi := 0; bi < addrBlocks; bi++ {
		addrs := core.UnpackAddrs(vaultContent[count+bi])
		for s := 0; s < 8 && bi*8+s < count; s++ {
			lines[bi*8+s].Addr = addrs[s]
		}
	}
	// Only metadata addresses (tree nodes or the MAC region) may be
	// re-installed; anything else means the (root-verified!) address blocks
	// decode to garbage, which the controller would refuse with a panic.
	// Surface it as detected corruption instead.
	for _, line := range lines {
		_, _, isNode := lay.Coord(line.Addr)
		if line.Addr%bmt.BlockSize != 0 || (!isNode && lay.RegionOf(line.Addr) != bmt.RegionMAC) {
			return BaselineResult{}, p.fail(now, &Error{Addr: line.Addr,
				Check: "vault-line-addr", Region: "vault",
				Detail: "vaulted line address is not a metadata location (corrupted vault content)"})
		}
	}
	sys.Sec.ReinstallMetadata(lines)

	span.EndAt(int64(now))
	rec := p.Done(now)
	PublishPathMetrics(reg, scheme, "vault", now, int64(total), macs, rec)
	reg.SetHelp("horus_recovery_vault_lines_total",
		"Metadata-cache lines re-installed from the vault during recovery, by scheme.")
	reg.Counter("horus_recovery_vault_lines_total", "scheme", scheme).Add(int64(count))
	sys.NVM.PublishMetrics("restore-vault", now)
	sys.Sec.PublishMetrics("restore-vault", now)
	return BaselineResult{
		RecoveryTime:  now,
		LinesRestored: count,
		MemReads:      sys.NVM.Reads().Clone(),
		MACCalcs:      macs,
		Timeline:      rec,
	}, nil
}

// repairVault reconstructs corrupted vault payload blocks using the
// appended leaf-MAC and XOR-parity blocks (one repairable block per
// 8-block group).
func repairVault(sys *core.System, vault secmem.VaultRecord, payload []mem.Block, start sim.Time, p *PathObs) ([]mem.Block, sim.Time, int64, error) {
	lay := sys.Layout
	now := start
	var macs int64
	total := len(payload)
	groups := (total + 7) / 8

	leafMACs := make([]cme.MAC, 0, total)
	for g := 0; g < groups; g++ {
		blk, t := sys.NVM.Read(now, lay.VaultAddr(uint64(total+g)), mem.CatRecovery)
		now = t
		unpacked := cme.UnpackMACs(blk)
		for s := 0; s < 8 && g*8+s < total; s++ {
			leafMACs = append(leafMACs, unpacked[s])
		}
	}

	out := append([]mem.Block(nil), payload...)
	for g := 0; g < groups; g++ {
		var bad []int
		for i := g * 8; i < (g+1)*8 && i < total; i++ {
			macs++
			now = sys.Sec.IssueMAC(now, MACRecoveryVerify)
			p.MACOp(now)
			if sys.Enc.NodeMAC(1<<20, uint64(i), out[i]) != leafMACs[i] {
				bad = append(bad, i)
			}
		}
		if len(bad) == 0 {
			continue
		}
		if len(bad) > 1 {
			return nil, now, macs, p.fail(now, &Error{Slot: uint64(bad[0]),
				Check: "vault-parity-repair", Region: "vault",
				Detail: fmt.Sprintf("%d corrupted blocks in one vault parity group; only one is repairable", len(bad))})
		}
		parity, t := sys.NVM.Read(now, lay.VaultAddr(uint64(total+groups+g)), mem.CatRecovery)
		now = t
		var rebuilt mem.Block
		rebuilt = parity
		for i := g * 8; i < (g+1)*8 && i < total; i++ {
			if i == bad[0] {
				continue
			}
			for k := range rebuilt {
				rebuilt[k] ^= out[i][k]
			}
		}
		macs++
		now = sys.Sec.IssueMAC(now, MACRecoveryVerify)
		p.MACOp(now)
		if sys.Enc.NodeMAC(1<<20, uint64(bad[0]), rebuilt) != leafMACs[bad[0]] {
			return nil, now, macs, p.fail(now, &Error{Slot: uint64(bad[0]),
				Check: "vault-parity-verify", Region: "vault",
				Detail: "parity reconstruction does not verify (parity or MAC block also corrupted)"})
		}
		out[bad[0]] = rebuilt
	}
	return out, now, macs, nil
}
