// Package core implements the paper's primary contribution: draining the
// cache hierarchy of an extended-persistence-domain (EPD) system to
// non-volatile memory when a power outage is detected, under the paper's
// five designs:
//
//   - NonSecure: the reference EPD without memory security — each dirty
//     line is written in place, nothing else (Fig. 8 part A).
//   - BaseLU / BaseEU: the baseline secure EPD — each dirty line goes
//     through the full run-time secure write path (counter fetch + verify,
//     tree update lazy or eager, data MAC), then the security-metadata
//     caches are flushed (Fig. 8 part B, §IV-B).
//   - HorusSLM / HorusDLM: Horus — lines are encrypted with the on-chip
//     drain counter and written sequentially to the cache hierarchy vault
//     (CHV) with coalesced address and MAC blocks, touching no run-time
//     security metadata at all (Fig. 8 part C, Fig. 9); DLM additionally
//     coalesces MACs hierarchically through two on-chip registers
//     (Fig. 10).
//
// The package produces both the functional outcome (bytes in the simulated
// NVM plus the persistent-register state recovery needs) and the metrics
// the paper's evaluation reports: draining time, per-category memory
// accesses, and per-category MAC calculations.
package core

import (
	"fmt"

	"repro/internal/bmt"
	"repro/internal/cme"
	"repro/internal/energy"
	"repro/internal/hierarchy"
	"repro/internal/mem"
	"repro/internal/obs/timeseries"
	"repro/internal/probe"
	"repro/internal/secmem"
	"repro/internal/sim"
)

// Scheme selects one of the paper's five draining designs (§V-A). The set
// is closed: each design's properties live in the static schemes table and
// Drainer.Drain picks its drain path with a switch.
type Scheme int

// Draining schemes compared in the paper's evaluation (§V-A).
const (
	NonSecure Scheme = iota
	BaseLU
	BaseEU
	HorusSLM
	HorusDLM
)

// schemeInfo is one design's static description.
type schemeInfo struct {
	name    string
	secure  bool                // provides memory security
	usesCHV bool                // drains into (and recovers from) the CHV
	update  secmem.UpdateScheme // integrity-tree update scheme at run time
}

// schemes describes the five designs, indexed by Scheme.
var schemes = [...]schemeInfo{
	NonSecure: {"NonSecure", false, false, secmem.LazyUpdate},
	BaseLU:    {"Base-LU", true, false, secmem.LazyUpdate},
	BaseEU:    {"Base-EU", true, false, secmem.EagerUpdate},
	HorusSLM:  {"Horus-SLM", true, true, secmem.LazyUpdate},
	HorusDLM:  {"Horus-DLM", true, true, secmem.LazyUpdate},
}

// known reports whether s is one of the five designs.
func (s Scheme) known() bool { return s >= 0 && int(s) < len(schemes) }

// info returns the design's table entry. An unknown handle fails safe: it
// reports secure (it is assumed to need the secure controller), no CHV and
// lazy update. NewDrainer rejects it.
func (s Scheme) info() schemeInfo {
	if s.known() {
		return schemes[s]
	}
	return schemeInfo{name: fmt.Sprintf("Scheme(%d)", int(s)), secure: true, update: secmem.LazyUpdate}
}

// String returns the design's presentation name (e.g. "Horus-SLM").
func (s Scheme) String() string { return s.info().name }

// Secure reports whether the scheme provides memory security.
func (s Scheme) Secure() bool { return s.info().secure }

// UsesCHV reports whether the scheme drains into the cache hierarchy vault.
func (s Scheme) UsesCHV() bool { return s.info().usesCHV }

// RuntimeScheme returns the integrity-tree update scheme the design runs at
// run time (and, for the baselines, during draining).
func (s Scheme) RuntimeScheme() secmem.UpdateScheme { return s.info().update }

// AllSchemes lists every scheme in the paper's presentation order.
func AllSchemes() []Scheme {
	return []Scheme{NonSecure, BaseLU, BaseEU, HorusSLM, HorusDLM}
}

// MAC-calculation categories produced by the Horus drain path, extending
// the secmem categories for Fig. 13's breakdown.
const (
	MACCHVData = "chv-data-mac" // MAC protecting a drained block (+its address and drain counter)
	MACCHVL2   = "chv-l2-mac"   // second-level MAC of the DLM scheme
)

// PersistentState is the on-chip persistent register file that survives a
// crash: the drain counters (§IV-C1), the CHV episode bookkeeping, the
// integrity-tree root, and the metadata-cache vault record.
type PersistentState struct {
	// DC is the drain counter: monotonically increasing across all flush
	// operations ever performed, guaranteeing unique pads.
	DC uint64
	// EDC is the ephemeral drain counter: the number of blocks drained in
	// the most recent episode (cleared after each recovery).
	EDC uint64
	// Episode counts completed draining episodes over the machine's life.
	Episode uint64
	// CHVRegion is the rotation region the last episode drained into
	// (wear levelling across Layout.CHVRegions regions).
	CHVRegion uint64
	// Root is the integrity-tree root register content.
	Root mem.Block
	// Vault is the metadata-cache vault record of the last drain.
	Vault secmem.VaultRecord
	// Scheme records which design produced this state.
	Scheme Scheme
}

// Result reports one draining episode.
type Result struct {
	Scheme Scheme

	// DrainTime is the simulated wall-clock time from outage detection to
	// the last durable write, the paper's power-hold-up proxy (Fig. 11).
	DrainTime sim.Time

	// BlocksDrained is the number of dirty cache lines flushed.
	BlocksDrained int

	// MemReads / MemWrites are per-category access counts (Figs. 6 and 12).
	MemReads  *sim.CounterSet
	MemWrites *sim.CounterSet

	// MACCalcs is the per-category MAC-computation count (Fig. 13).
	MACCalcs *sim.CounterSet

	// AESOps counts one-time-pad generations.
	AESOps int64

	// Persist is the persistent-register state recovery starts from.
	Persist PersistentState
}

// TotalMemAccesses returns reads + writes (the Fig. 6 metric).
func (r Result) TotalMemAccesses() int64 {
	return r.MemReads.Total() + r.MemWrites.Total()
}

// TotalMACs returns the total MAC calculations.
func (r Result) TotalMACs() int64 { return r.MACCalcs.Total() }

// System bundles the components a drain operates on.
type System struct {
	Layout *bmt.Layout
	Enc    *cme.Engine
	NVM    *mem.Controller
	Sec    *secmem.Controller // run-time secure controller (baselines + metadata flush)

	// Probe holds the machine's telemetry sinks. The drainer records
	// lifecycle spans and drain-level counters into Metrics, brackets each
	// drain on Timeline so the recording covers exactly the measured drain
	// window, and samples blocks flushed, the energy drawdown (and its
	// fraction of BatteryJoules) and the final drain time into Timeseries;
	// the recovery paths feed Evlog. The NVM and secure controller attach to
	// the same sinks via their own Attach. All instrumentation is nil-safe
	// and read-only with respect to simulated state.
	probe.Probe

	// Energy holds the energy-model constants the drawdown series uses;
	// zero params record a zero-energy series (callers that want the
	// paper's numbers pass energy.DefaultParams()).
	Energy energy.Params

	// BatteryJoules, when positive, is the hold-up energy budget the
	// drain races against (Table III volume × technology density). It
	// enables the horus_ts_energy_budget_frac series the drain-deadline
	// SLO evaluates.
	BatteryJoules float64

	// Shards is the drain pipeline's crypto fan-out width: the number of
	// shard-owned engine clones that precompute the CHV drain's
	// ciphertexts and MACs while the timed state machine replays serially
	// (DESIGN.md §13). Zero or negative selects GOMAXPROCS; 1 is the fully
	// inline serial path. Outputs are byte-identical at any value.
	Shards int
}

// Drainer executes one draining episode for a given scheme.
type Drainer struct {
	scheme Scheme
	sys    *System

	// Horus on-chip resources (Fig. 9, Fig. 10, §IV-D).
	dc       uint64 // drain counter register (persistent)
	edc      uint64 // ephemeral drain counter register (persistent)
	episodes uint64 // completed draining episodes (persistent)
	region   uint64 // CHV rotation region of the episode in progress
	startDC  uint64 // dc value at entry of the episode in progress

	// tsb caches the episode's time-series handles; nil when sampling is
	// off, making sampleBlock a single pointer check on the per-block
	// drain hot path.
	tsb *drainSampling

	// Sharded drain pipeline (shardpipe.go): effective shard count and the
	// lazily built shard-owned crypto contexts.
	shards  int
	engines []*cme.Engine
}

// drainSampling is the per-episode time-series state of one drain.
type drainSampling struct {
	blocks    *timeseries.Series // counter: blocks flushed per window
	energyJ   *timeseries.Series // gauge: cumulative drain energy, joules
	budget    *timeseries.Series // gauge: energyJ / BatteryJoules (nil without a budget)
	drainTime *timeseries.Series // gauge: final drain time, picoseconds
	params    energy.Params
	budgetJ   float64
}

// startSampling builds the episode's series handles (no-op when the system
// has no sampler).
func (d *Drainer) startSampling() {
	if d.sys.Timeseries == nil {
		d.tsb = nil
		return
	}
	ts := d.sys.Timeseries
	scheme := d.scheme.String()
	s := &drainSampling{
		blocks:    ts.Counter("horus_ts_blocks_drained", "scheme", scheme),
		energyJ:   ts.Gauge("horus_ts_energy_j", "scheme", scheme),
		drainTime: ts.Gauge("horus_ts_drain_time_ps", "scheme", scheme),
		params:    d.sys.Energy,
		budgetJ:   d.sys.BatteryJoules,
	}
	if s.budgetJ > 0 {
		s.budget = ts.Gauge("horus_ts_energy_budget_frac", "scheme", scheme)
	}
	d.tsb = s
}

// sampleBlock records one flushed block at running drain time t: the block
// count and the energy model evaluated over the accesses issued so far.
// One pointer check when sampling is off.
func (d *Drainer) sampleBlock(t sim.Time) {
	s := d.tsb
	if s == nil {
		return
	}
	s.blocks.Record(int64(t), 1)
	s.sampleEnergy(t, d.sys)
}

func (s *drainSampling) sampleEnergy(t sim.Time, sys *System) {
	e := energy.Estimate(s.params, t, sys.NVM.TotalWrites(), sys.NVM.TotalReads()).Total()
	s.energyJ.Record(int64(t), e)
	if s.budget != nil {
		s.budget.Record(int64(t), e/s.budgetJ)
	}
}

// NewDrainer returns a drainer for the scheme over the system. The initial
// drain-counter value persists from previous episodes (pass 0 for a fresh
// machine). The scheme must be one of the five designs.
func NewDrainer(scheme Scheme, sys *System, initialDC uint64) *Drainer {
	if sys.Layout == nil || sys.Enc == nil || sys.NVM == nil {
		panic("core: incomplete system")
	}
	if !scheme.known() {
		panic("core: unknown scheme " + scheme.String())
	}
	if scheme.Secure() && sys.Sec == nil {
		panic("core: secure schemes need a secmem controller")
	}
	return &Drainer{scheme: scheme, sys: sys, dc: initialDC,
		shards: resolveShards(sys.Shards)}
}

// Drain flushes every dirty block of the hierarchy (in the given flush
// order) and then the security-metadata caches, returning the episode's
// metrics and persistent state. Statistics of the underlying NVM and
// secure controller are reset at entry so the result covers exactly the
// draining window, as the paper measures it.
func (d *Drainer) Drain(blocks []hierarchy.DirtyBlock) (Result, error) {
	d.sys.NVM.ResetStats()
	if d.sys.Sec != nil {
		d.sys.Sec.ResetStats()
	}

	// Wear levelling: rotate the CHV target region per episode.
	d.region = d.episodes % d.sys.Layout.CHVRegions
	d.startDC = d.dc
	d.startSampling()

	reg := d.sys.Metrics
	drainSpan := reg.StartSpan("drain", 0)
	blocksSpan := reg.StartSpan("flush-blocks", 0)
	d.sys.Timeline.BeginEpisode(d.scheme.String())

	d.sys.NVM.MarkStage("drain:blocks")
	var t sim.Time
	var err error
	switch d.scheme {
	case NonSecure:
		t = d.drainInPlace(blocks)
	case BaseLU, BaseEU:
		t, err = d.drainBaseline(blocks)
	case HorusSLM, HorusDLM:
		t = d.drainCHV(blocks, d.scheme == HorusDLM)
	}
	if err != nil {
		drainSpan.EndAt(int64(t))
		return Result{}, err
	}
	blocksSpan.EndAt(int64(t))

	// Flush the security-metadata caches (negligible for all schemes per
	// Fig. 12, but required for crash consistency).
	var vault secmem.VaultRecord
	if d.scheme.Secure() {
		d.sys.NVM.MarkStage("drain:meta-flush")
		metaSpan := reg.StartSpan("flush-metadata", int64(t))
		var done sim.Time
		vault, done = d.sys.Sec.FlushMetadataCaches(t)
		t = sim.MaxTime(t, done)
		metaSpan.EndAt(int64(t))
	}

	t = sim.MaxTime(t, d.sys.NVM.LastDone())
	if d.sys.Sec != nil {
		t = sim.MaxTime(t, d.sys.Sec.EnginesLastDone())
	}
	drainSpan.EndAt(int64(t))
	d.sys.Timeline.EndEpisode(t)

	// Final samples at the drain's end instant, over the episode's final
	// access totals: the energy series' last point is exactly the Table II
	// number EnergyOf computes from the Result.
	if d.tsb != nil {
		d.tsb.sampleEnergy(t, d.sys)
		d.tsb.drainTime.Record(int64(t), float64(t))
	}

	d.edc = uint64(len(blocks))
	d.episodes++
	res := Result{
		Scheme:        d.scheme,
		DrainTime:     t,
		BlocksDrained: len(blocks),
		MemReads:      d.sys.NVM.Reads().Clone(),
		MemWrites:     d.sys.NVM.Writes().Clone(),
		MACCalcs:      sim.NewCounterSet(),
		Persist: PersistentState{
			DC:        d.dc,
			EDC:       d.edc,
			Episode:   d.episodes,
			CHVRegion: d.region,
			Vault:     vault,
			Scheme:    d.scheme,
		},
	}
	if d.sys.Sec != nil {
		res.MACCalcs = d.sys.Sec.MACCalcs().Clone()
		res.AESOps = d.sys.Sec.AESOps()
		res.Persist.Root = d.sys.Sec.RootRegister()
	}

	scheme := d.scheme.String()
	reg.SetHelp("horus_drain_time_ps", "Simulated draining time of the most recent episode, picoseconds (Fig. 11).")
	reg.SetHelp("horus_drain_blocks_total", "Dirty cache blocks flushed across draining episodes.")
	reg.SetHelp("horus_drain_episodes_total", "Completed draining episodes per scheme.")
	reg.Gauge("horus_drain_time_ps", "scheme", scheme).Set(float64(t))
	reg.Counter("horus_drain_blocks_total", "scheme", scheme).Add(int64(len(blocks)))
	reg.Counter("horus_drain_episodes_total", "scheme", scheme).Add(1)
	d.sys.NVM.PublishMetrics("drain", t)
	if d.sys.Sec != nil {
		d.sys.Sec.PublishMetrics("drain", t)
	}
	return res, nil
}

// PersistSnapshot returns the persistent-register state as it stands right
// now, mid-episode: what a crash at this instant would leave for recovery.
// DC is the current drain-counter register; EDC counts the flush operations
// issued so far in the episode in progress (for CHV schemes the register
// increments at flush-issue, so a crash mid-write legitimately leaves EDC
// one past the durable frontier — recovery detects the torn tail via MAC
// verification). The metadata-cache vault record is zero: the snapshot
// predates (or interrupts) the end-of-drain metadata flush, so no complete
// vault exists. The fault-injection torture harness captures this from an
// injector's OnCut callback.
func (d *Drainer) PersistSnapshot() PersistentState {
	ps := PersistentState{
		DC:        d.dc,
		EDC:       d.dc - d.startDC,
		Episode:   d.episodes,
		CHVRegion: d.region,
		Scheme:    d.scheme,
	}
	if d.sys.Sec != nil {
		ps.Root = d.sys.Sec.RootRegister()
	}
	return ps
}

// drainInPlace writes every dirty line in place with no protection
// (Fig. 8 part A): the NonSecure drain.
func (d *Drainer) drainInPlace(blocks []hierarchy.DirtyBlock) sim.Time {
	var t sim.Time
	for _, b := range blocks {
		done := d.sys.NVM.Write(0, b.Addr, b.Data, mem.CatData)
		t = sim.MaxTime(t, done)
		d.sampleBlock(t)
	}
	return t
}

// drainBaseline pushes every dirty line through the run-time secure write
// path: counter fetch and verification walk, counter increment, tree update
// (lazy or eager), data-MAC update, encrypt, write in place (Fig. 8 part B).
// The update scheme (lazy/eager) is the secure controller's configured one.
func (d *Drainer) drainBaseline(blocks []hierarchy.DirtyBlock) (sim.Time, error) {
	var t sim.Time
	for _, b := range blocks {
		done, err := d.sys.Sec.WriteBlock(0, b.Addr, b.Data)
		if err != nil {
			return t, fmt.Errorf("core: baseline drain of %#x: %w", b.Addr, err)
		}
		t = sim.MaxTime(t, done)
		d.sampleBlock(t)
	}
	return t, nil
}
