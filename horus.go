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
// The experiment runners (RunFig6 ... RunTable3) regenerate every figure
// and table of the paper's evaluation; see EXPERIMENTS.md for measured
// results against the published ones.
package horus

import (
	"fmt"
	"math/rand"

	"repro/internal/bmt"
	"repro/internal/cme"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/hierarchy"
	"repro/internal/mem"
	"repro/internal/obs"
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

// Episode engine re-exports (from the internal sweep package). Experiment
// grids (RunDrainSet, RunLLCSweep, the figure runners) route through this
// engine; the generic forms below let API users run their own episode
// grids with the same worker pool, cancellation, seeding and metrics-merge
// semantics. See DESIGN.md §8.
type (
	// SweepRunner executes episode grids on a bounded worker pool.
	SweepRunner = sweep.Runner
	// SweepRunnerOptions parameterises a SweepRunner (workers, timeout,
	// base seed, merged metrics sink).
	SweepRunnerOptions = sweep.Options
	// Episode is one unit of work in a sweep.
	Episode = sweep.Episode
	// EpisodeEnv is the per-episode environment (index, derived seed,
	// private metrics registry).
	EpisodeEnv = sweep.Env
	// EpisodeResult is one episode's outcome.
	EpisodeResult = sweep.Result
	// SweepError aggregates the per-episode failures of a grid; completed
	// results are returned alongside it.
	SweepError = sweep.Error
	// EpisodePanicError wraps a panic captured inside an episode.
	EpisodePanicError = sweep.PanicError
)

// NewSweepRunner returns the generic episode engine.
func NewSweepRunner(opts SweepRunnerOptions) *SweepRunner { return sweep.New(opts) }

// DeriveSeed maps (base seed, episode index) to a stable, independent
// per-episode seed (the engine's determinism primitive).
func DeriveSeed(base int64, index int) int64 { return sweep.DeriveSeed(base, index) }

// Scheme identifies a draining design (re-exported from the core package).
type Scheme = core.Scheme

// DrainScheme is the pluggable behavior behind a Scheme handle; custom
// designs register with RegisterScheme and participate in every experiment
// grid like the built-ins.
type DrainScheme = core.DrainScheme

// RegisterScheme adds a draining design to the registry and returns its
// Scheme handle. The factory runs once per drainer, so implementations may
// keep per-episode state. Duplicate names panic.
func RegisterScheme(name string, factory func() DrainScheme) Scheme {
	return core.Register(name, factory)
}

// LookupScheme resolves a registered scheme by its name (e.g. "Horus-SLM").
func LookupScheme(name string) (Scheme, error) { return core.Lookup(name) }

// SchemeNames lists every registered scheme name in registration order.
func SchemeNames() []string { return core.SchemeNames() }

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
	// FillStride is the stride for hierarchy.PatternStride fills. Zero
	// selects the paper's derivation: DataSize / total cache lines,
	// floored to a 64-byte multiple.
	FillStride uint64
	// FlushShuffle drains the dirty blocks in a pseudo-random order instead
	// of fill order. The paper flushes its >= 16 KB-strided fill as laid
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
	// Metrics, when non-nil, receives counters, utilization gauges,
	// latency histograms and lifecycle spans from every layer of the
	// simulated machine. Leave nil to disable instrumentation entirely.
	Metrics *MetricsRegistry
	// Timeline, when non-nil, records every bank, bus and crypto-engine
	// reservation of the drain episode for Chrome-trace export and
	// critical-path attribution (see AnalyzeTimeline). Leave nil to disable
	// recording entirely; the detached fast path costs one pointer check
	// per reservation.
	Timeline *TimelineRecorder
	// Timeseries, when non-nil, records windowed sim-time series during
	// the episode: per-scheme energy drawdown (and its fraction of
	// BatteryJoules), blocks drained per window, per-bank queue depth,
	// and run-phase op rates. Sweep grids clone a fresh per-episode
	// sampler (labelled with the grid point) and merge back in episode
	// order, so output is byte-identical at any parallelism. Leave nil to
	// disable sampling entirely; the detached fast path costs one pointer
	// check per event.
	Timeseries *TimeseriesSampler
	// Evlog, when non-nil, is the detection-forensics flight recorder the
	// recovery paths feed: one structured record per recovery decision
	// (check evaluated, region touched, expected-vs-got identity), the
	// trailing records of which every typed recovery error captures as its
	// provenance chain (Error.Chain). Sweep grids clone a fresh per-episode
	// log so parallel episodes never share a ring. Leave nil to disable;
	// the detached fast path costs one pointer check per decision.
	Evlog *Evlog
	// BatteryJoules, when positive, is the hold-up energy budget the
	// drain races against (derive it from a Table III volume with
	// BatteryBudgetJoules). It enables the horus_ts_energy_budget_frac
	// series and the drain SLO rules.
	BatteryJoules float64
	// Shards is the drain pipeline's crypto fan-out width: shard-owned
	// engine clones precompute OTPs and MACs over per-bank work lists
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
// with metrics/timeline/timeseries plumbing attached under the given label
// pairs. NewSystem, NewWorkloadSystem and the litmus materialiser all build
// on it, so a replayed image lands in a byte-identical layout.
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
	// The store starts empty and grows on demand; callers that know the
	// machine's footprint (NewSystem, the litmus materialiser) reserve it.
	nvm := mem.NewController(cfg.Mem)
	enc := cme.NewEngine(cfg.KeySeed)
	var sec *secmem.Controller
	if withSec {
		scfg := cfg.Sec
		scfg.Scheme = scheme.RuntimeScheme()
		sec = secmem.New(scfg, lay, enc, nvm)
	}
	cs := &core.System{
		Layout: lay, Enc: enc, NVM: nvm, Sec: sec,
		Metrics: cfg.Metrics, Timeline: cfg.Timeline,
		Timeseries: cfg.Timeseries, Evlog: cfg.Evlog,
		Energy: cfg.Energy, BatteryJoules: cfg.BatteryJoules,
		Shards: cfg.Shards,
	}
	nvm.SetMetrics(cfg.Metrics, labels...)
	nvm.SetTimeline(cfg.Timeline)
	nvm.SetTimeseries(cfg.Timeseries, labels...)
	if sec != nil {
		sec.SetMetrics(cfg.Metrics, labels...)
		sec.SetTimeline(cfg.Timeline)
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
// writes reach and the metadata-cache vault. Schemes registered beyond the
// paper's five may write elsewhere; their stores still grow on demand.
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
	stride := s.Config.FillStride
	if s.Config.FillPattern == hierarchy.PatternStride && stride == 0 {
		// Paper §V-A: spacing = memory size / cache-hierarchy capacity.
		lines := uint64(s.Hierarchy.Config().TotalLines())
		stride = s.Config.DataSize / lines / mem.BlockSize * mem.BlockSize
		if stride < mem.BlockSize {
			stride = mem.BlockSize
		}
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

// Drain simulates the outage: flushes the hierarchy's dirty blocks (in a
// shuffled worst-case order) and the metadata caches, returning the
// episode's metrics and persistent state.
func (s *System) Drain() (Result, error) {
	if !s.filled {
		return Result{}, fmt.Errorf("horus: Drain before Fill")
	}
	blocks := s.Hierarchy.DirtyBlocks()
	if s.Config.FlushShuffle {
		blocks = s.Hierarchy.DirtyBlocksShuffled(rand.New(rand.NewSource(s.Config.Seed ^ 0x0f1a)))
	}
	return s.drainer.Drain(blocks)
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

// Recover restores the system from the persistent state of the last drain:
// for Horus, the CHV is read back, verified, decrypted and re-installed in
// the hierarchy; for baselines, the metadata-cache vault is verified and
// re-installed in the controller.
func (s *System) Recover(ps PersistentState) (RecoveryReport, error) {
	span := s.Core.Metrics.StartSpan("recover", 0)
	report, err := s.recoverFrom(ps)
	// The vault restore and the CHV read-back run on separate phase-local
	// clocks; the parent span spans their combined duration.
	span.EndAt(int64(report.Time()))
	return report, err
}

func (s *System) recoverFrom(ps PersistentState) (RecoveryReport, error) {
	switch {
	case ps.Scheme.UsesCHV():
		report := RecoveryReport{}
		// Power restore: timing starts on a fresh clock (the drain's bank
		// reservations belong to the previous power session).
		s.Core.NVM.ResetStats()
		s.Core.Sec.ResetStats()
		if ps.Vault.Count > 0 {
			// Restore the run-time metadata residue first, so in-place
			// data written before the crash verifies again.
			vres, err := recovery.RestoreMetadataVaultFor(s.Core, ps.Vault, ps.Scheme.String())
			if err != nil {
				return RecoveryReport{}, err
			}
			report.Baseline = &vres
		}
		res, err := recovery.RecoverHorus(s.Core, ps)
		if err != nil {
			return RecoveryReport{}, err
		}
		recovery.RefillHierarchy(s.Hierarchy, res.Blocks)
		s.filled = true
		report.Horus = &res
		return report, nil
	case ps.Scheme.Secure():
		res, err := recovery.RecoverBaseline(s.Core, ps)
		if err != nil {
			return RecoveryReport{}, err
		}
		return RecoveryReport{Baseline: &res}, nil
	default:
		return RecoveryReport{}, nil // non-secure: nothing to verify
	}
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
