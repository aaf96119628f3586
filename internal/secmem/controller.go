// Package secmem implements the secure memory controller: counter-mode
// encryption with split counters, per-block data MACs, and a Bonsai Merkle
// Tree over the counters, with lazy or eager tree-update schemes and the
// three on-chip security-metadata caches of Table I.
//
// The controller is both functional and timed. Functionally it maintains
// bit-exact ciphertext, counters, MACs and tree nodes over the simulated
// NVM, so tests can verify round trips and attack detection. Temporally,
// every metadata fetch, verification walk, tree update, eviction write-back
// and AES/MAC operation is charged to the shared memory banks and crypto
// engines, producing the access counts and occupancy that determine the
// paper's draining time.
//
// Invariant maintained by both update schemes: a tree node or counter block
// *persisted in NVM* always matches the entry its parent holds for it at
// the same persistence level; any newer value lives in a metadata cache.
// Verification therefore always checks a fetched node against its nearest
// cached ancestor, falling back to the on-chip root register.
//
// The content of a dirty metadata line is kept by cache way: the line's
// owner slot indexes a pool of blocks that grows on demand, and a clean
// line (slot 0) reads its content from NVM. A dirty victim whose eviction
// is still cascading into parent updates sits in a short write-back
// buffer instead. No per-address table is needed: the way scan that
// Lookup and Insert already make finds the content.
package secmem

import (
	"repro/internal/bmt"
	"repro/internal/cache"
	"repro/internal/cme"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/timeline"
)

// UpdateScheme selects how Merkle-tree updates propagate (§II-C).
type UpdateScheme int

// Update schemes.
const (
	// LazyUpdate defers parent updates until a dirty child is evicted from
	// the metadata cache. Faster at run time; the in-memory root is stale,
	// so crash consistency needs the metadata-cache vault (Anubis-style).
	LazyUpdate UpdateScheme = iota
	// EagerUpdate propagates every leaf update to the root immediately
	// (Triad-NVM style). The root register is always current.
	EagerUpdate
)

// String names the scheme.
func (s UpdateScheme) String() string {
	if s == EagerUpdate {
		return "eager"
	}
	return "lazy"
}

// MAC-calculation categories (Fig. 13 breakdown).
const (
	MACVerify      = "verify"       // verifying fetched counters/tree nodes
	MACTreeUpdate  = "tree-update"  // recomputing parent entries
	MACData        = "data-mac"     // protecting written data blocks
	MACMetaProtect = "meta-protect" // small tree over the metadata-cache vault
)

// Config holds the controller parameters (Table I defaults via
// DefaultConfig).
type Config struct {
	Scheme UpdateScheme

	CounterCacheBytes int
	MACCacheBytes     int
	TreeCacheBytes    int
	CacheWays         int

	ClockHz    int64 // core clock for cycle-specified latencies
	AESCycles  int64 // AES latency in cycles (Table I: 40)
	AESIICycle int64 // AES initiation interval
	MACCycles  int64 // hash latency in cycles (Table I: 160)
	MACIICycle int64 // hash initiation interval

	// VaultParity appends per-block leaf MACs and XOR parity to the
	// metadata-cache vault (Soteria-style resilience): recovery can repair
	// a single corrupted vault block per 8-block group.
	VaultParity bool

	// PreferCleanVictims makes the metadata caches evict the LRU clean
	// line when one exists, trading clean re-fetches for fewer dirty
	// write-backs (and, under the lazy scheme, fewer eviction cascades).
	PreferCleanVictims bool

	// OsirisStopLoss, when positive, enables Osiris-style counter
	// persistence (Ye et al., MICRO'18, cited §II-C): a counter block is
	// additionally written through to NVM whenever one of its counters
	// crosses a multiple of the stop-loss limit, bounding how far the
	// persisted counter can lag the true one. Crash recovery can then
	// reconstruct counters without a metadata vault (package osiris).
	OsirisStopLoss int
}

// DefaultConfig returns the Table I secure-memory parameters.
func DefaultConfig() Config {
	return Config{
		Scheme:            LazyUpdate,
		CounterCacheBytes: 256 << 10,
		MACCacheBytes:     512 << 10,
		TreeCacheBytes:    256 << 10,
		CacheWays:         8,
		ClockHz:           4_000_000_000,
		AESCycles:         40,
		AESIICycle:        4,
		MACCycles:         160,
		MACIICycle:        82,
	}
}

// Controller is the secure memory controller.
type Controller struct {
	cfg Config
	lay *bmt.Layout
	eng *cme.Engine
	nvm *mem.Controller

	ctrCache  *cache.Cache
	macCache  *cache.Cache
	treeCache *cache.Cache

	// pool holds the logical content of every dirty cached metadata line,
	// indexed by the line's cache owner slot; slot 0 is never handed out
	// and means clean (the content is the NVM copy). free lists released
	// slots. The pool grows on demand: most crash-oracle machines dirty
	// only a handful of lines, so nothing is allocated per way up front.
	pool []mem.Block
	free []int32

	// wb is the write-back buffer: dirty victims chosen for eviction but
	// not yet persisted, with their content. An evicting line's content
	// stays readable, and updatable, here while its parent-update cascade
	// runs. Cascades nest, so entries are pushed and popped LIFO, at most
	// maxEvictionDepth deep; between operations it is empty.
	wb []wbLine

	// root is the on-chip persistent root register: the content of the
	// single top tree node (eight MACs of the topmost stored level).
	root mem.Block

	aes *sim.Engine
	mac *sim.Engine

	macCalcs *sim.CounterSet
	aesOps   int64

	// levelFetches profiles verification-walk depth: how many NVM fetches
	// each metadata level needed ("L0" = counter blocks). The shape of
	// this profile is what blows up the baselines in Fig. 6: sparse
	// flushes miss at the low levels on almost every access.
	levelFetches *sim.CounterSet

	// osirisPersists counts stop-loss counter write-throughs.
	osirisPersists int64

	evictionDepth int

	// functional is set only for the length of a ProbeBlock call: crypto
	// issues and the level-fetch profile are skipped (the NVM is in its
	// own functional mode for the call); every state change stays.
	functional bool

	m  *engineMetrics     // optional crypto-engine instrumentation
	tl *timeline.Recorder // optional event-timeline recorder
}

// wbLine is one write-back buffer entry.
type wbLine struct {
	addr    uint64
	content mem.Block
}

// engineMetrics caches metric handles for the issueAES/issueMAC hot paths.
type engineMetrics struct {
	reg    *obs.Registry
	labels []string

	aesCtr *obs.Counter
	macCtr map[string]*obs.Counter
}

// Attach connects the controller to the probe's sinks; a nil sink detaches
// that sink. With a registry, AES and MAC issues count into handles
// resolved here (MAC categories lazily), under the extra labels
// (alternating key, value). With a recorder, every crypto issue on the AES
// and MAC engines is recorded as one interval stamped with the operation
// category. The controller emits no time series.
func (c *Controller) Attach(p probe.Probe, labels ...string) {
	c.m = nil
	if reg := p.Metrics; reg != nil {
		reg.SetHelp("horus_sec_aes_ops_total", "AES (OTP) operations issued to the shared crypto engine.")
		reg.SetHelp("horus_sec_mac_ops_total", "MAC computations by category (verify, tree-update, data-mac, meta-protect).")
		c.m = &engineMetrics{
			reg:    reg,
			labels: labels,
			aesCtr: reg.Counter("horus_sec_aes_ops_total", labels...),
			macCtr: make(map[string]*obs.Counter),
		}
	}
	c.tl = p.Timeline
	var tr sim.Tracer
	if p.Timeline != nil {
		tr = p.Timeline
	}
	c.aes.SetTracer("aes", tr)
	c.mac.SetTracer("mac", tr)
}

// PublishMetrics snapshots crypto-engine occupancy into the attached
// registry as gauges labelled with the given phase. window is the phase
// duration used for utilisation; if zero or negative, EnginesLastDone() is
// used. No-op when no registry is attached.
func (c *Controller) PublishMetrics(phase string, window sim.Time) {
	if c.m == nil {
		return
	}
	if window <= 0 {
		window = c.EnginesLastDone()
	}
	reg := c.m.reg
	reg.SetHelp("horus_sec_engine_busy_ps", "Crypto-engine issue-slot occupancy within the phase, picoseconds.")
	reg.SetHelp("horus_sec_engine_utilization", "Crypto-engine occupied fraction of the phase window.")
	reg.SetHelp("horus_sec_engine_wait_ps", "Cumulative structural-hazard delay at the crypto engine within the phase, picoseconds.")
	reg.SetHelp("horus_sec_engine_ops", "Operations issued to the crypto engine within the phase.")
	for _, e := range []*sim.Engine{c.aes, c.mac} {
		lbl := append([]string{"engine", e.Name(), "phase", phase}, c.m.labels...)
		reg.Gauge("horus_sec_engine_busy_ps", lbl...).Set(float64(e.BusyTime()))
		reg.Gauge("horus_sec_engine_wait_ps", lbl...).Set(float64(e.WaitTime()))
		reg.Gauge("horus_sec_engine_ops", lbl...).Set(float64(e.Ops()))
		if window > 0 {
			reg.Gauge("horus_sec_engine_utilization", lbl...).Set(float64(e.BusyTime()) / float64(window))
		}
	}
}

// OsirisPersists returns how many stop-loss counter write-throughs have
// occurred (zero unless OsirisStopLoss is enabled).
func (c *Controller) OsirisPersists() int64 { return c.osirisPersists }

// LevelFetches returns the per-level NVM fetch profile of the verification
// walks ("L0" = counter blocks, "L1".. = tree levels).
func (c *Controller) LevelFetches() *sim.CounterSet { return c.levelFetches }

// New returns a controller over the given layout, key engine and NVM.
func New(cfg Config, lay *bmt.Layout, eng *cme.Engine, nvm *mem.Controller) *Controller {
	clk := sim.NewClock(cfg.ClockHz)
	c := &Controller{
		cfg:          cfg,
		lay:          lay,
		eng:          eng,
		nvm:          nvm,
		ctrCache:     cache.New("counter$", cfg.CounterCacheBytes, cfg.CacheWays, mem.BlockSize),
		macCache:     cache.New("mac$", cfg.MACCacheBytes, cfg.CacheWays, mem.BlockSize),
		treeCache:    cache.New("tree$", cfg.TreeCacheBytes, cfg.CacheWays, mem.BlockSize),
		levelFetches: sim.NewCounterSet(),
		aes:          sim.NewEngine("aes", clk.Cycles(cfg.AESCycles), clk.Cycles(cfg.AESIICycle)),
		mac:          sim.NewEngine("mac", clk.Cycles(cfg.MACCycles), clk.Cycles(cfg.MACIICycle)),
		macCalcs:     sim.NewCounterSet(),
	}
	if cfg.PreferCleanVictims {
		c.ctrCache.SetPreferCleanVictims(true)
		c.macCache.SetPreferCleanVictims(true)
		c.treeCache.SetPreferCleanVictims(true)
	}
	return c
}

// Layout returns the metadata layout.
func (c *Controller) Layout() *bmt.Layout { return c.lay }

// Scheme returns the configured update scheme.
func (c *Controller) Scheme() UpdateScheme { return c.cfg.Scheme }

// MACCalcs returns the per-category MAC-operation counters.
func (c *Controller) MACCalcs() *sim.CounterSet { return c.macCalcs }

// AESOps returns the number of AES (OTP) operations issued.
func (c *Controller) AESOps() int64 { return c.aesOps }

// EnginesLastDone returns the latest completion time across the crypto
// engines (combined with the NVM's LastDone to bound draining time).
func (c *Controller) EnginesLastDone() sim.Time {
	return sim.MaxTime(c.aes.LastDone(), c.mac.LastDone())
}

// RootRegister returns the on-chip persistent root register content.
func (c *Controller) RootRegister() mem.Block { return c.root }

// RestoreRoot overwrites the root register. Osiris-style recovery rebuilds
// the integrity tree from recovered counters and re-anchors the root; see
// package osiris for the freshness caveat this implies.
func (c *Controller) RestoreRoot(root mem.Block) { c.root = root }

// CacheStats returns (counter, mac, tree) cache statistics.
func (c *Controller) CacheStats() (ctr, mac, tree cache.Stats) {
	return c.ctrCache.Stats(), c.macCache.Stats(), c.treeCache.Stats()
}

// DirtyMetadataLines returns how many metadata lines are dirty across the
// three caches.
func (c *Controller) DirtyMetadataLines() int {
	return c.ctrCache.CountDirty() + c.macCache.CountDirty() + c.treeCache.CountDirty()
}

// Crash discards all volatile state: the metadata caches, the dirty-line
// content and the write-back buffer. The root register, like the drain
// counters, lives in a persistent on-chip register and survives (§IV-C1).
func (c *Controller) Crash() {
	c.ctrCache.InvalidateAll()
	c.macCache.InvalidateAll()
	c.treeCache.InvalidateAll()
	c.pool, c.free, c.wb = c.pool[:0], c.free[:0], c.wb[:0]
}

// ResetStats clears engine timing and MAC counters (the NVM's stats are
// reset separately); cache stats are preserved.
func (c *Controller) ResetStats() {
	c.aes.Reset()
	c.mac.Reset()
	c.macCalcs = sim.NewCounterSet()
	c.levelFetches = sim.NewCounterSet()
	c.aesOps = 0
}

// cacheFor returns the metadata cache responsible for a metadata level.
func (c *Controller) cacheFor(level int) *cache.Cache {
	if level == 0 {
		return c.ctrCache
	}
	return c.treeCache
}

// wayContent returns the current logical content of the metadata line addr
// held at index way of ca: its pool slot if dirty, otherwise NVM content.
func (c *Controller) wayContent(ca *cache.Cache, way int, addr uint64) mem.Block {
	if s := ca.Owner(way); s != 0 {
		return c.pool[s]
	}
	return c.nvm.PeekRead(addr)
}

// allocSlot stores content in a free pool slot and returns the slot.
func (c *Controller) allocSlot(content mem.Block) int32 {
	if n := len(c.free); n > 0 {
		s := c.free[n-1]
		c.free = c.free[:n-1]
		c.pool[s] = content
		return s
	}
	if len(c.pool) == 0 {
		c.pool = append(c.pool, mem.Block{}) // slot 0: clean
	}
	c.pool = append(c.pool, content)
	return int32(len(c.pool) - 1)
}

// releaseSlot returns a pool slot to the free list.
func (c *Controller) releaseSlot(s int32) { c.free = append(c.free, s) }

// inWriteBack returns the write-back buffer index of addr, or -1 if it is
// not there. The buffer is empty outside an eviction cascade.
func (c *Controller) inWriteBack(addr uint64) int {
	for i := len(c.wb) - 1; i >= 0; i-- {
		if c.wb[i].addr == addr {
			return i
		}
	}
	return -1
}

// IssueAES exposes the shared AES engine to the drain path: Horus reuses
// the run-time crypto engines during draining (§IV-D).
func (c *Controller) IssueAES(ready sim.Time) sim.Time { return c.issueAES(ready) }

// IssueMAC exposes the shared MAC engine to the drain path, charging the
// operation to the given Fig. 13 category.
func (c *Controller) IssueMAC(ready sim.Time, category string) sim.Time {
	return c.issueMAC(ready, category)
}

// issueMAC charges one MAC computation of the given category. A probe
// charges nothing.
func (c *Controller) issueMAC(ready sim.Time, category string) sim.Time {
	if c.functional {
		return ready
	}
	c.macCalcs.Add(category, 1)
	if c.tl != nil {
		c.tl.SetOp("mac", category)
	}
	if c.m != nil {
		ctr, ok := c.m.macCtr[category]
		if !ok {
			ctr = c.m.reg.Counter("horus_sec_mac_ops_total", append([]string{"category", category}, c.m.labels...)...)
			c.m.macCtr[category] = ctr
		}
		ctr.Add(1)
	}
	return c.mac.Issue(ready)
}

// issueAES charges one AES (OTP) computation. A probe charges nothing.
func (c *Controller) issueAES(ready sim.Time) sim.Time {
	if c.functional {
		return ready
	}
	c.aesOps++
	if c.tl != nil {
		c.tl.SetOp("aes", "otp")
	}
	if c.m != nil {
		c.m.aesCtr.Add(1)
	}
	return c.aes.Issue(ready)
}

// memCategoryFor maps a metadata level to the Fig. 6/12 access category.
func memCategoryFor(level int) mem.Category {
	if level == 0 {
		return mem.CatCounter
	}
	return mem.CatTree
}

// markDirty records new logical content for a cached metadata line and sets
// its dirty bit.
func (c *Controller) markDirty(ca *cache.Cache, addr uint64, content mem.Block) {
	way := ca.Touch(addr, true)
	if s := ca.Owner(way); s != 0 {
		c.pool[s] = content
		return
	}
	ca.SetOwner(way, c.allocSlot(content))
}
