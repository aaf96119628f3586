package mem

import (
	"fmt"
	"strconv"

	"repro/internal/obs"
	"repro/internal/obs/timeseries"
	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/timeline"
)

// Category labels a memory access for the breakdowns in the paper's figures
// (Fig. 6 memory-request breakdown, Fig. 12 memory-write breakdown).
type Category string

// Access categories used across the simulator. Packages may define more;
// these are the ones the paper's figures report.
const (
	CatData      Category = "data"       // in-place data block (baselines, non-secure)
	CatCounter   Category = "counter"    // encryption counter block
	CatTree      Category = "tree"       // integrity (Bonsai Merkle) tree node
	CatMAC       Category = "mac"        // data MAC block
	CatCHVData   Category = "chv-data"   // drained cache block in the CHV
	CatCHVAddr   Category = "chv-addr"   // coalesced address block in the CHV
	CatCHVMAC    Category = "chv-mac"    // coalesced MAC block in the CHV
	CatMetaFlush Category = "meta-flush" // end-of-drain security-metadata-cache flush
	CatRecovery  Category = "recovery"   // recovery-time read-back
)

// Config holds the timing and organisation parameters of the NVM.
type Config struct {
	Banks        int      // independent banks (interleaved by block address)
	ReadLatency  sim.Time // bank occupancy of a read
	WriteLatency sim.Time // bank occupancy of a write
	BusSlot      sim.Time // command/data-bus occupancy per access
}

// DefaultConfig matches Table I of the paper (DDR-based PCM) with a
// 16-bank organisation.
func DefaultConfig() Config {
	return Config{
		Banks:        16,
		ReadLatency:  150 * sim.Nanosecond,
		WriteLatency: 500 * sim.Nanosecond,
		BusSlot:      5 * sim.Nanosecond,
	}
}

// Observer receives every timed access; used by the trace package.
// kind is "read" or "write"; done is the access completion time.
type Observer interface {
	OnAccess(kind string, done sim.Time, addr uint64, category string)
}

// Controller couples the functional store with the banked timing model and
// per-category access accounting.
type Controller struct {
	cfg   Config
	store *Store
	banks []*sim.Resource
	bus   *sim.Resource

	reads  *sim.CounterSet
	writes *sim.CounterSet

	observer Observer           // optional access tracer (horus-drain -access-trace)
	m        *accessMetrics     // optional per-access instrumentation
	ts       *tsSeries          // optional windowed time-series sampling
	hook     WriteHook          // optional write hook (crash oracles)
	tl       *timeline.Recorder // optional event-timeline recorder

	functional bool // set only while Functionally runs its callback
}

// Functionally runs fn with the controller in functional mode, ended by
// defer when fn returns or panics. Inside it, Read and Write book no time:
// no bank or bus reservation, no access counter, and no metrics, time
// series, timeline or observer call; both return their ready time. Write
// still does everything that changes or sees committed content: the
// block's wear count and the write hook. The secure controller's probe
// reads (secmem.Controller.ProbeBlock) run in this mode.
func (c *Controller) Functionally(fn func()) {
	c.functional = true
	defer func() { c.functional = false }()
	fn()
}

// SetObserver installs the access observer notified of every timed access
// (the access-trace recorder); nil detaches it.
func (c *Controller) SetObserver(o Observer) { c.observer = o }

// accessMetrics caches metric handles so the per-access hot path does no
// registry lookups. Per-category counters are filled lazily (the simulator
// is single-threaded per controller).
type accessMetrics struct {
	reg    *obs.Registry
	labels []string

	bankWait   *obs.Histogram
	busWait    *obs.Histogram
	queueDepth *obs.Histogram
	readCtr    map[Category]*obs.Counter
	writeCtr   map[Category]*obs.Counter
}

func (m *accessMetrics) counter(set map[Category]*obs.Counter, name string, cat Category) *obs.Counter {
	ctr, ok := set[cat]
	if !ok {
		ctr = m.reg.Counter(name, append([]string{"category", string(cat)}, m.labels...)...)
		set[cat] = ctr
	}
	return ctr
}

// tsSeries caches per-bank time-series handles so the per-access hot path
// does no sampler lookups: when sampling is off the whole cost is one nil
// check on c.ts.
type tsSeries struct {
	depth []*timeseries.Series // queue depth per bank, indexed by bank
}

// Attach connects the controller to the probe's sinks; a nil sink detaches
// that sink. Metric handles and per-bank series are resolved here, once, so
// the per-access cost of each sink is one pointer check when detached and a
// cached-handle update when attached. The extra labels (alternating key,
// value, e.g. "scheme", "Horus-SLM") are applied to every metric and series
// the controller emits.
//
// With a registry, every access counts its category and observes its bus
// and bank waits and the bank's approximate queue depth (wait divided by
// service latency). With a sampler, every access records that queue depth
// for its bank at the sim time it reached the bank, giving the live
// per-bank view of a drain. With a recorder, each reservation on the bus
// and every bank is recorded as one interval stamped with the access op
// and category.
func (c *Controller) Attach(p probe.Probe, labels ...string) {
	c.m = nil
	if reg := p.Metrics; reg != nil {
		reg.SetHelp("horus_mem_reads_total", "NVM read accesses by category.")
		reg.SetHelp("horus_mem_writes_total", "NVM write accesses by category.")
		reg.SetHelp("horus_mem_bank_wait_ps", "Per-access bank queueing delay in picoseconds.")
		reg.SetHelp("horus_mem_bus_wait_ps", "Per-access command/data-bus queueing delay in picoseconds.")
		reg.SetHelp("horus_mem_bank_queue_depth", "Approximate bank queue depth (wait divided by service latency) at access issue.")
		c.m = &accessMetrics{
			reg:        reg,
			labels:     labels,
			bankWait:   reg.Histogram("horus_mem_bank_wait_ps", obs.LatencyBuckets, labels...),
			busWait:    reg.Histogram("horus_mem_bus_wait_ps", obs.LatencyBuckets, labels...),
			queueDepth: reg.Histogram("horus_mem_bank_queue_depth", obs.DepthBuckets, labels...),
			readCtr:    make(map[Category]*obs.Counter),
			writeCtr:   make(map[Category]*obs.Counter),
		}
	}

	c.tl = p.Timeline
	var tr sim.Tracer
	if p.Timeline != nil {
		tr = p.Timeline
	}
	c.bus.SetTracer("bus", tr)
	for _, b := range c.banks {
		b.SetTracer("bank", tr)
	}

	c.ts = nil
	if ts := p.Timeseries; ts != nil {
		s := &tsSeries{depth: make([]*timeseries.Series, len(c.banks))}
		for i := range c.banks {
			s.depth[i] = ts.Gauge("horus_ts_bank_queue_depth",
				append([]string{"bank", strconv.Itoa(i)}, labels...)...)
		}
		c.ts = s
	}
}

// NewController returns a controller over a fresh store.
func NewController(cfg Config) *Controller {
	if cfg.Banks <= 0 {
		panic("mem: bank count must be positive")
	}
	c := &Controller{
		cfg:    cfg,
		store:  NewStore(),
		bus:    sim.NewResource("membus"),
		reads:  sim.NewCounterSet(),
		writes: sim.NewCounterSet(),
	}
	for i := 0; i < cfg.Banks; i++ {
		c.banks = append(c.banks, sim.NewResource(fmt.Sprintf("bank%02d", i)))
	}
	return c
}

// Store exposes the functional backing store (for tests and recovery).
func (c *Controller) Store() *Store { return c.store }

// UseStore replaces the backing store of a freshly built controller, before
// any access, so a caller holding a prepared image (the litmus oracle's
// recycled crash stores) need not copy it in block by block.
func (c *Controller) UseStore(s *Store) { c.store = s }

// Reserve pre-sizes the backing store for an expected footprint of n
// populated blocks (see Store.Reserve).
// Without it the store grows on demand.
func (c *Controller) Reserve(n int) {
	c.store.Reserve(n)
}

// Config returns the controller's configuration.
func (c *Controller) Config() Config { return c.cfg }

// BankOf interleaves blocks across banks, folding higher address bits so
// that large power-of-two strides still spread across banks (the paper's
// worst-case fill uses a 16 KB stride). It is exported because the sharded
// drain pipeline partitions work lists by bank with the same fold: a shard
// that owns bank i owns exactly the blocks BankOf maps to i.
func BankOf(addr uint64, banks int) int {
	bn := addr / BlockSize
	h := bn ^ (bn >> 4) ^ (bn >> 9) ^ (bn >> 15) ^ (bn >> 22)
	return int(h % uint64(banks))
}

// bankOf applies BankOf with the controller's bank count.
func (c *Controller) bankOf(addr uint64) int {
	return BankOf(addr, len(c.banks))
}

// BankOf exposes the controller's bank interleaving for work partitioning.
func (c *Controller) BankOf(addr uint64) int { return c.bankOf(addr) }

// Banks returns the number of independent banks.
func (c *Controller) Banks() int { return len(c.banks) }

// Read performs a timed, counted read of the block at addr. The access
// begins no earlier than ready; the returned time is when data is available.
// Inside Functionally it is PeekRead.
func (c *Controller) Read(ready sim.Time, addr uint64, cat Category) (Block, sim.Time) {
	if c.functional {
		return c.store.ReadBlock(addr), ready
	}
	c.reads.Add(string(cat), 1)
	if c.tl != nil {
		c.tl.SetOp("read", string(cat))
	}
	bank := c.bankOf(addr)
	busStart, busDone := c.bus.Acquire(ready, c.cfg.BusSlot)
	bankStart, done := c.banks[bank].Acquire(busDone, c.cfg.ReadLatency)
	if c.m != nil {
		c.m.counter(c.m.readCtr, "horus_mem_reads_total", cat).Add(1)
		c.m.busWait.Observe(float64(busStart - ready))
		c.m.bankWait.Observe(float64(bankStart - busDone))
		c.m.queueDepth.Observe(float64(bankStart-busDone) / float64(c.cfg.ReadLatency))
	}
	if c.ts != nil {
		c.ts.depth[bank].Record(int64(bankStart), float64(bankStart-busDone)/float64(c.cfg.ReadLatency))
	}
	if c.observer != nil {
		c.observer.OnAccess("read", done, addr, string(cat))
	}
	return c.store.ReadBlock(addr), done
}

// Write performs a timed, counted write of b to addr. The returned time is
// when the write is durable in the NVM. With a write hook installed, the
// issued access is still timed, counted and observed (the command went out on
// the bus), but the content that lands on the medium is what the hook returns
// — possibly torn, bit-flipped, or not committed at all.
// Inside Functionally only the wear count, the hook and the commit remain.
func (c *Controller) Write(ready sim.Time, addr uint64, b Block, cat Category) sim.Time {
	// One index probe serves the whole access: the block's position
	// addresses both its wear count and its content.
	st := c.store
	i := st.pos(addr)
	st.wear[i]++
	done := ready
	if !c.functional {
		c.writes.Add(string(cat), 1)
		if c.tl != nil {
			c.tl.SetOp("write", string(cat))
		}
		bank := c.bankOf(addr)
		busStart, busDone := c.bus.Acquire(ready, c.cfg.BusSlot)
		var bankStart sim.Time
		bankStart, done = c.banks[bank].Acquire(busDone, c.cfg.WriteLatency)
		if c.m != nil {
			c.m.counter(c.m.writeCtr, "horus_mem_writes_total", cat).Add(1)
			c.m.busWait.Observe(float64(busStart - ready))
			c.m.bankWait.Observe(float64(bankStart - busDone))
			c.m.queueDepth.Observe(float64(bankStart-busDone) / float64(c.cfg.WriteLatency))
		}
		if c.ts != nil {
			c.ts.depth[bank].Record(int64(bankStart), float64(bankStart-busDone)/float64(c.cfg.WriteLatency))
		}
		if c.observer != nil {
			c.observer.OnAccess("write", done, addr, string(cat))
		}
	}
	if c.hook != nil {
		var ok bool
		if b, ok = c.hook.OnWrite(addr, cat, st.blocks[i], b); !ok {
			return done
		}
	}
	st.blocks[i] = b
	return done
}

// WearStats summarises per-cell write endurance exposure.
type WearStats struct {
	// MaxWrites is the lifetime write count of the most-written block.
	MaxWrites int64
	// HotAddr is that block's address.
	HotAddr uint64
	// TotalWrites is the lifetime write count across all blocks.
	TotalWrites int64
	// UniqueBlocks is how many distinct blocks have ever been written.
	UniqueBlocks int
}

// WearStats computes endurance exposure over the memory's lifetime (wear
// is never reset by ResetStats — cell wear is permanent).
func (c *Controller) WearStats() WearStats {
	var ws WearStats
	c.store.eachWear(func(addr uint64, n int64) {
		if n > ws.MaxWrites || (n == ws.MaxWrites && addr < ws.HotAddr) {
			ws.MaxWrites, ws.HotAddr = n, addr
		}
		ws.TotalWrites += n
		ws.UniqueBlocks++
	})
	return ws
}

// WearOf returns the lifetime write count of one block.
func (c *Controller) WearOf(addr uint64) int64 {
	return c.store.wearOf(addr)
}

// WearInRange returns the maximum and total lifetime writes within
// [lo, hi), e.g. over the CHV region.
func (c *Controller) WearInRange(lo, hi uint64) (max, total int64) {
	c.store.eachWear(func(addr uint64, n int64) {
		if addr >= lo && addr < hi {
			total += n
			if n > max {
				max = n
			}
		}
	})
	return max, total
}

// PeekRead reads functionally without timing or counting. Recovery-time
// integrity checks and tests use it to inspect memory.
func (c *Controller) PeekRead(addr uint64) Block { return c.store.ReadBlock(addr) }

// Reads returns the per-category read counters.
func (c *Controller) Reads() *sim.CounterSet { return c.reads }

// Writes returns the per-category write counters.
func (c *Controller) Writes() *sim.CounterSet { return c.writes }

// TotalReads returns the total number of read accesses.
func (c *Controller) TotalReads() int64 { return c.reads.Total() }

// TotalWrites returns the total number of write accesses.
func (c *Controller) TotalWrites() int64 { return c.writes.Total() }

// TotalAccesses returns reads plus writes.
func (c *Controller) TotalAccesses() int64 { return c.TotalReads() + c.TotalWrites() }

// LastDone returns the latest completion time across all banks, i.e. when
// the memory system has fully drained its accepted requests.
func (c *Controller) LastDone() sim.Time {
	var t sim.Time
	for _, b := range c.banks {
		t = sim.MaxTime(t, b.FreeAt())
	}
	return sim.MaxTime(t, c.bus.FreeAt())
}

// PublishMetrics snapshots per-bank and bus occupancy into the attached
// registry as gauges labelled with the given phase ("run", "drain",
// "recover", ...). window is the phase duration used for utilisation; if
// zero or negative, LastDone() is used. Because timing statistics are reset
// at phase boundaries, each publish describes exactly one phase. No-op when
// no registry is attached.
func (c *Controller) PublishMetrics(phase string, window sim.Time) {
	if c.m == nil {
		return
	}
	if window <= 0 {
		window = c.LastDone()
	}
	reg := c.m.reg
	reg.SetHelp("horus_mem_bank_busy_ps", "Bank occupied time within the phase, picoseconds.")
	reg.SetHelp("horus_mem_bank_utilization", "Bank occupied fraction of the phase window.")
	reg.SetHelp("horus_mem_bank_ops", "Operations served by the bank within the phase.")
	reg.SetHelp("horus_mem_bus_utilization", "Command/data-bus occupied fraction of the phase window.")
	for i, b := range c.banks {
		lbl := append([]string{"bank", strconv.Itoa(i), "phase", phase}, c.m.labels...)
		reg.Gauge("horus_mem_bank_busy_ps", lbl...).Set(float64(b.BusyTime()))
		reg.Gauge("horus_mem_bank_ops", lbl...).Set(float64(b.Ops()))
		if window > 0 {
			reg.Gauge("horus_mem_bank_utilization", lbl...).Set(float64(b.BusyTime()) / float64(window))
		}
	}
	if window > 0 {
		lbl := append([]string{"phase", phase}, c.m.labels...)
		reg.Gauge("horus_mem_bus_utilization", lbl...).Set(float64(c.bus.BusyTime()) / float64(window))
	}
}

// ResetStats clears timing state and counters but preserves memory content.
// It separates the run-time warm-up phase from the measured draining phase.
func (c *Controller) ResetStats() {
	for _, b := range c.banks {
		b.Reset()
	}
	c.bus.Reset()
	c.reads = sim.NewCounterSet()
	c.writes = sim.NewCounterSet()
}
