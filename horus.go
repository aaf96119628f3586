// Package horus is a library-level reproduction of "Horus: Persistent
// Security for Extended Persistence-Domain Memory Systems" (MICRO 2022).
//
// It simulates — functionally and temporally — a secure NVM memory system
// whose persistence domain extends over the cache hierarchy (EPD/eADR),
// and the draining of that hierarchy upon power failure under the paper's
// four designs: the lazy- and eager-update secure baselines (Base-LU,
// Base-EU), and Horus with single- and double-level MACs (Horus-SLM,
// Horus-DLM), plus the non-secure reference.
//
// Typical use:
//
//	cfg := horus.DefaultConfig()          // Table I parameters
//	sys := horus.NewSystem(cfg, horus.HorusSLM)
//	sys.Warmup()                          // run-time phase: dirty metadata
//	sys.Fill()                            // worst-case dirty cache hierarchy
//	res, err := sys.Drain()               // outage: drain to the CHV
//	...
//	rec, err := sys.Recover(res.Persist)  // power restore: verified recovery
//
// RunDrainSet drains every design once; Figs. 6, 11, 12, 13, Tables II,
// III and the headline are views of that one set (DrainSet.Fig6, Fig11,
// Fig12, Fig13, DrainSet.Table2, Table3, DrainSet.Headline). RunLLCSweep
// (Figs. 14, 15), RunFig16 and RunAblations run the other studies; see
// EXPERIMENTS.md for measured results against the published ones.
package horus

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/bmt"
	"repro/internal/cme"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/hierarchy"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/probe"
	"repro/internal/recovery"
	"repro/internal/secmem"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// MetricsRegistry collects counters, gauges, histograms and lifecycle spans
// from every layer of a simulated machine (re-exported from internal/obs).
// Attach one via Config.Metrics and export it with WritePrometheus or
// WriteJSON after the episode. All instrumentation is nil-safe: a nil
// registry costs one pointer check per event.
type MetricsRegistry = obs.Registry

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// SweepError aggregates the per-episode failures of an experiment grid
// (re-exported from the internal sweep package); completed results are
// returned alongside it. See DESIGN.md §8.
type SweepError = sweep.Error

// Scheme identifies one of the paper's five draining designs (re-exported
// from the core package).
type Scheme = core.Scheme

// The paper's five designs.
const (
	NonSecure = core.NonSecure
	BaseLU    = core.BaseLU
	BaseEU    = core.BaseEU
	HorusSLM  = core.HorusSLM
	HorusDLM  = core.HorusDLM
)

// AllSchemes lists every design in the paper's presentation order.
func AllSchemes() []Scheme { return core.AllSchemes() }

// Result is a draining episode report (re-exported).
type Result = core.Result

// PersistentState is the on-chip persistent register file (re-exported).
type PersistentState = core.PersistentState

// Config assembles all simulation parameters. The zero value is not valid;
// start from DefaultConfig (Table I, full scale) or TestConfig (scaled
// down, sub-second runs).
type Config struct {
	// DataSize is the protected NVM capacity (Table I: 32 GB).
	DataSize uint64
	// LLCBytes sets the last-level-cache size of the Table I hierarchy
	// (16 MB by default; Figs. 14-16 sweep it). Ignored if Hierarchy is
	// set explicitly.
	LLCBytes int
	// Hierarchy overrides the cache hierarchy entirely (optional).
	Hierarchy *hierarchy.Config
	// Mem is the NVM timing configuration.
	Mem mem.Config
	// Sec is the secure-memory-controller configuration; Sec.Scheme is
	// overridden per drain design.
	Sec secmem.Config
	// FillPattern chooses the pre-crash cache contents; the default is the
	// paper's worst case: all-dirty blocks spaced evenly across the whole
	// memory (>= 16 KB apart; the spacing is derived by dividing the
	// memory size by the cache-hierarchy capacity, §V-A).
	FillPattern hierarchy.FillPattern
	// FlushShuffle drains the dirty blocks in a pseudo-random order instead
	// of fill order, on every drain path (System, WorkloadSystem and the
	// crash oracles). The paper flushes its >= 16 KB-strided fill as laid
	// out; shuffling removes even the residual tree-node adjacency between
	// consecutive flushes and is kept as a harsher ablation.
	FlushShuffle bool
	// Seed drives fill addresses, block data and flush order.
	Seed int64
	// WarmupWrites is the number of run-time secure writes performed
	// before the crash, leaving dirty residue in the metadata caches (the
	// paper's drains flush that residue too; Fig. 12 "metadata flush").
	WarmupWrites int
	// CHVRegions is the number of CHV rotation regions for wear levelling
	// (0 or 1 = a single fixed region; N rotates successive episodes
	// across N regions so the vault's cells wear N times slower).
	CHVRegions int
	// KeySeed derives the AES/MAC keys.
	KeySeed uint64
	// Energy holds the Table II/III energy-model constants.
	Energy energy.Params
	// Probe holds the machine's observe-only telemetry sinks: Metrics
	// (export with WritePrometheus or WriteJSON), Timeline (see
	// AnalyzeTimeline), Timeseries (evaluate with EvaluateSLO) and Evlog
	// (captured into typed recovery errors as Error.Chain). Each is
	// optional; the zero Probe disables instrumentation entirely, and a
	// detached sink costs one pointer check per event.
	probe.Probe
	// BatteryJoules, when positive, is the hold-up energy budget the
	// drain races against (derive it from a Table III volume with
	// BatteryBudgetJoules). It enables the horus_ts_energy_budget_frac
	// series and the drain SLO rules.
	BatteryJoules float64
	// Shards is the drain pipeline's crypto fan-out width: shard-owned
	// engine clones precompute the Horus CHV drain's ciphertexts and MACs
	// while the timed state machine replays serially, so results, traces
	// and time series are byte-identical at any value (DESIGN.md §13).
	// Zero or negative selects GOMAXPROCS; 1 forces the inline serial
	// path. Exposed on every CLI as -shards.
	Shards int
}

// DefaultConfig returns the paper's Table I configuration at full scale:
// 32 GB PCM, 64KB/2MB/16MB hierarchy (295 936 lines), 256/512/256 KB
// metadata caches, 40-cycle AES, 160-cycle hash, 4 GHz.
func DefaultConfig() Config {
	return Config{
		DataSize:     32 << 30,
		LLCBytes:     16 << 20,
		Mem:          mem.DefaultConfig(),
		Sec:          secmem.DefaultConfig(),
		FillPattern:  hierarchy.PatternStride,
		Seed:         1,
		WarmupWrites: 8192,
		KeySeed:      0x5ec0de,
		Energy:       energy.DefaultParams(),
	}
}

// TestConfig returns a proportionally scaled-down configuration (1 GB data,
// 2KB/64KB/256KB hierarchy, 8/16/8 KB metadata caches) for examples and
// tests; a full drain takes well under a second.
func TestConfig() Config {
	cfg := DefaultConfig()
	cfg.DataSize = 1 << 30
	cfg.Hierarchy = &hierarchy.Config{Levels: []hierarchy.LevelConfig{
		{Name: "L1", SizeBytes: 2 << 10, Ways: 2, LatencyCycle: 2},
		{Name: "L2", SizeBytes: 64 << 10, Ways: 8, LatencyCycle: 20},
		{Name: "LLC", SizeBytes: 256 << 10, Ways: 16, LatencyCycle: 32},
	}}
	cfg.Sec.CounterCacheBytes = 8 << 10
	cfg.Sec.MACCacheBytes = 16 << 10
	cfg.Sec.TreeCacheBytes = 8 << 10
	cfg.WarmupWrites = 512
	return cfg
}

// hierarchyConfig resolves the hierarchy for the config.
func (c *Config) hierarchyConfig() hierarchy.Config {
	if c.Hierarchy != nil {
		return *c.Hierarchy
	}
	llc := c.LLCBytes
	if llc == 0 {
		llc = 16 << 20
	}
	return hierarchy.TableIWithLLC(llc)
}

// System is an assembled simulated machine for one draining design.
type System struct {
	Config Config
	Scheme Scheme

	Core      *core.System
	Hierarchy *hierarchy.Hierarchy

	drainer *core.Drainer
	filled  bool
}

// newCoreSystem assembles the substrate every simulated machine shares: the
// NVM controller with a metadata layout sized for the hierarchy's worst-case
// drain, the key engine, and — when withSec — the secure memory controller,
// with the config's probe attached under the given label pairs. NewSystem,
// NewWorkloadSystem and the litmus materialiser all build on it, so a
// replayed image lands in a byte-identical layout.
func newCoreSystem(cfg Config, scheme Scheme, withSec bool, labels ...string) (*core.System, hierarchy.Config) {
	hcfg := cfg.hierarchyConfig()
	lines := uint64(hcfg.TotalLines())
	metaLines := uint64((cfg.Sec.CounterCacheBytes + cfg.Sec.MACCacheBytes + cfg.Sec.TreeCacheBytes) / mem.BlockSize)
	lay := bmt.NewLayout(bmt.Config{
		DataSize:    cfg.DataSize,
		CHVCapacity: lines + 64,
		CHVRegions:  uint64(cfg.CHVRegions),
		VaultBlocks: metaLines*2 + 32,
	})
	// The store starts empty and grows on demand; NewSystem reserves the
	// machine's footprint, and the litmus materialiser swaps in a recycled
	// store holding a presized image.
	nvm := mem.NewController(cfg.Mem)
	enc := cme.NewEngine(cfg.KeySeed)
	var sec *secmem.Controller
	if withSec {
		scfg := cfg.Sec
		scfg.Scheme = scheme.RuntimeScheme()
		sec = secmem.New(scfg, lay, enc, nvm)
	}
	cs := &core.System{
		Layout: lay, Enc: enc, NVM: nvm, Sec: sec, Probe: cfg.Probe,
		Energy: cfg.Energy, BatteryJoules: cfg.BatteryJoules,
		Shards: cfg.Shards,
	}
	nvm.Attach(cfg.Probe, labels...)
	if sec != nil {
		sec.Attach(cfg.Probe, labels...)
	}
	return cs, hcfg
}

// NewSystem builds the machine: NVM, metadata layout sized for the
// hierarchy's worst-case drain, key engine, secure memory controller (for
// secure schemes) and drainer. The machine drains its whole hierarchy, so
// its store is sized for that footprint here, outside the timed drain.
func NewSystem(cfg Config, scheme Scheme) *System {
	cs, hcfg := newCoreSystem(cfg, scheme, true, "scheme", scheme.String())
	cs.NVM.Reserve(drainFootprint(cfg, scheme, cs.Layout, uint64(hcfg.TotalLines())))
	return &System{
		Config:    cfg,
		Scheme:    scheme,
		Core:      cs,
		Hierarchy: hierarchy.New(hcfg),
		drainer:   core.NewDrainer(scheme, cs, 0),
	}
}

// drainFootprint bounds the distinct NVM blocks a NewSystem machine writes
// over Warmup, Fill, Drain and Recover, given its hierarchy's line count.
// The drain writes at most one block per line into the data region (in
// place) or the CHV; the secure schemes add the metadata home blocks their
// writes reach and the metadata-cache vault.
func drainFootprint(cfg Config, scheme Scheme, lay *bmt.Layout, lines uint64) int {
	if !scheme.Secure() {
		return int(lines) // data drained in place, no warm-up
	}
	warm := uint64(cfg.WarmupWrites)
	if !scheme.UsesCHV() {
		// Data and metadata drained in place, vault for the residue.
		return int(homeFootprint(lay, warm+lines) + lay.VaultBlocks)
	}
	// Run-time metadata at home, the CHV's data, address and (SLM-sized)
	// MAC blocks, and the vault.
	chv := lines + 2*((lines+7)/8)
	return int(homeFootprint(lay, warm) + chv + lay.VaultBlocks)
}

// homeFootprint bounds the home blocks that n distinct data-block writes
// populate: the data blocks, their MAC blocks and one node per stored tree
// level (counter blocks are level 0), no level holding more than it has.
func homeFootprint(lay *bmt.Layout, n uint64) uint64 {
	total := n + min(n, lay.MACBytes/mem.BlockSize)
	for _, nodes := range lay.LevelCount[:lay.RootLevel()] {
		total += min(n, nodes)
	}
	return total
}

// Warmup performs Config.WarmupWrites run-time secure writes at pseudo-
// random addresses, dirtying the security-metadata caches the way a running
// system would have before the outage. Non-secure systems have no metadata
// and skip it.
func (s *System) Warmup() error {
	if !s.Scheme.Secure() || s.Config.WarmupWrites == 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(s.Config.Seed ^ 0x77a4))
	var now sim.Time
	var data mem.Block
	span := s.Core.Metrics.StartSpan("run", 0)
	defer func() { span.EndAt(int64(now)) }()
	blocks := s.Config.DataSize / mem.BlockSize
	for i := 0; i < s.Config.WarmupWrites; i++ {
		addr := uint64(rng.Int63n(int64(blocks))) * mem.BlockSize
		for j := 0; j < 8; j++ {
			data[j] = byte(rng.Uint32())
		}
		done, err := s.Core.Sec.WriteBlock(now, addr, data)
		if err != nil {
			return fmt.Errorf("horus: warmup write %d: %w", i, err)
		}
		now = done
	}
	return nil
}

// Fill populates every line of every hierarchy level with dirty blocks
// according to the configured pattern and returns the block count.
func (s *System) Fill() int {
	var stride uint64
	if s.Config.FillPattern == hierarchy.PatternStride {
		// Paper §V-A: spacing = memory size / cache-hierarchy capacity.
		lines := uint64(s.Hierarchy.Config().TotalLines())
		stride = max(s.Config.DataSize/lines/mem.BlockSize*mem.BlockSize, mem.BlockSize)
	}
	n := s.Hierarchy.FillAllDirty(hierarchy.FillOptions{
		Pattern:  s.Config.FillPattern,
		DataSize: s.Config.DataSize,
		Stride:   stride,
		Seed:     s.Config.Seed,
	})
	s.filled = true
	return n
}

// Drain simulates the outage: flushes the hierarchy's dirty blocks (in
// flushOrder) and the metadata caches, returning the
// episode's metrics and persistent state.
func (s *System) Drain() (Result, error) {
	if !s.filled {
		return Result{}, fmt.Errorf("horus: Drain before Fill")
	}
	return s.drainer.Drain(flushOrder(s.Config, s.Hierarchy.DirtyBlocks()))
}

// flushOrder decides the order a drain flushes the dirty blocks in, for
// every drain path (System, WorkloadSystem and the crash oracles). Without
// cfg.FlushShuffle it is fill order: blocks itself, not copied. With it, a
// pseudo-random permutation seeded from cfg.Seed, in a copy that leaves
// blocks untouched (§V-A: "randomly filled with sparse contents").
func flushOrder(cfg Config, blocks []DirtyBlock) []DirtyBlock {
	if !cfg.FlushShuffle {
		return blocks
	}
	out := slices.Clone(blocks)
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x0f1a))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// Crash models the loss of power after a drain: cache hierarchy and
// volatile metadata state vanish; NVM and persistent registers survive.
func (s *System) Crash() {
	// Zero-length marker: power loss is instantaneous in the model.
	s.Core.Metrics.RecordSpan("crash", 0, 0)
	s.Hierarchy.Clear()
	s.filled = false
	if s.Core.Sec != nil {
		s.Core.Sec.Crash()
	}
}

// RecoveryReport summarises a recovery episode.
type RecoveryReport struct {
	// Horus recovery (nil for baselines).
	Horus *recovery.HorusResult
	// Baseline recovery: the metadata-cache vault restore. For baseline
	// schemes this is the whole recovery; for Horus schemes it restores
	// the run-time metadata residue before the CHV is read back.
	Baseline *recovery.BaselineResult
}

// Time returns the total recovery time across the paths that ran.
func (r RecoveryReport) Time() sim.Time {
	var t sim.Time
	if r.Horus != nil {
		t += r.Horus.RecoveryTime
	}
	if r.Baseline != nil {
		t += r.Baseline.RecoveryTime
	}
	return t
}

// Recover restores the system from the persistent state of the last drain
// (recoverCore): for Horus, the vault residue and the CHV are verified and
// the recovered blocks are re-installed in the hierarchy as dirty lines; for
// baselines, the metadata-cache vault is verified and re-installed in the
// controller. On an error the report is zero.
func (s *System) Recover(ps PersistentState) (RecoveryReport, error) {
	span := s.Core.Metrics.StartSpan("recover", 0)
	rep, err := recoverCore(s.Core, ps)
	if err != nil {
		rep = RecoveryReport{}
	} else if rep.Horus != nil {
		recovery.RefillHierarchy(s.Hierarchy, rep.Horus.Blocks)
		s.filled = true
	}
	// The vault restore and the CHV read-back run on separate phase-local
	// clocks; the parent span spans their combined duration.
	span.EndAt(int64(rep.Time()))
	return rep, err
}

// RunDrain is the one-shot convenience: build, warm up, fill, drain.
func RunDrain(cfg Config, scheme Scheme) (Result, error) {
	sys := NewSystem(cfg, scheme)
	if err := sys.Warmup(); err != nil {
		return Result{}, err
	}
	sys.Fill()
	return sys.Drain()
}

// EnergyOf applies the configured energy model to a drain result
// (Table II).
func (c Config) EnergyOf(res Result) energy.Breakdown {
	return energy.Estimate(c.Energy, res.DrainTime, res.MemWrites.Total(), res.MemReads.Total())
}
