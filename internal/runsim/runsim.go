// Package runsim simulates the run-time phase of an EPD machine: a
// single-threaded core driving a multi-level write-back cache hierarchy
// over the (optionally secure) NVM. It exists to reproduce the paper's
// motivation (§I, §II-A): with the persistence domain extended over the
// cache hierarchy, persist operations cost nothing, while ADR systems pay
// a full (secure) memory write per durability point — and to produce a
// genuine pre-crash machine state that the drain engines can flush and
// recovery can restore, closing the run/crash/drain/recover loop
// end-to-end.
//
// Model simplifications (documented, deliberate): the core is blocking
// (one access at a time — persist-latency comparisons are per-operation,
// so overlap would scale both sides equally); the hierarchy fills to L1
// and spills downward victim-by-victim (exclusive-style), which preserves
// the traffic structure that matters here — LLC misses and dirty
// write-backs reaching the memory controller.
package runsim

import (
	"fmt"
	"sort"

	"repro/internal/addrmap"
	"repro/internal/cache"
	"repro/internal/hierarchy"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/obs/timeseries"
	"repro/internal/probe"
	"repro/internal/secmem"
	"repro/internal/sim"
	"repro/internal/timeline"
	"repro/internal/workload"
)

// PersistDomain selects where the persistence boundary sits (§II-A).
type PersistDomain int

// Persistence domains.
const (
	// DomainADR: battery backs only the memory-controller write queue; a
	// persist must flush the dirty line to the memory controller, paying
	// the full (secure) write path.
	DomainADR PersistDomain = iota
	// DomainEPD: battery backs the whole cache hierarchy (eADR); a write
	// is durable once it lands in L1, so persists are free.
	DomainEPD
	// DomainADRWPQ: ADR with a battery-backed write-pending queue at the
	// memory controller (the Dolos design point the paper cites): a
	// persist completes once the line is accepted by the WPQ; the secure
	// write retires in the background, and the core stalls only when the
	// queue is full.
	DomainADRWPQ
	// DomainBBB: a small battery-backed buffer attached to the L1 (the BBB
	// design the paper cites): persists complete at L1 latency once the
	// buffer accepts the line; entries retire to NVM in the background
	// like the WPQ, but acceptance costs only an L1 access.
	DomainBBB
)

// String names the domain.
func (d PersistDomain) String() string {
	switch d {
	case DomainEPD:
		return "EPD"
	case DomainADRWPQ:
		return "ADR+WPQ"
	case DomainBBB:
		return "BBB"
	default:
		return "ADR"
	}
}

// Config parameterises the machine.
type Config struct {
	Hierarchy hierarchy.Config
	Domain    PersistDomain
	ClockHz   int64
	// WPQEntries is the battery-backed write-pending-queue capacity for
	// DomainADRWPQ (0 defaults to 64, a typical WPQ depth).
	WPQEntries int
}

// Stats aggregates run-time events.
type Stats struct {
	Reads    int64
	Writes   int64
	Persists int64

	HitsPerLevel  []int64
	MissesToMem   int64 // LLC misses served by memory
	Writebacks    int64 // dirty LLC victims written to memory
	PersistFlush  int64 // ADR persist-triggered flushes
	PersistElided int64 // persists that were free (EPD, or already clean)
	WPQStalls     int64 // persists that stalled on a full write-pending queue

	Time sim.Time // total simulated execution time
}

// Machine is the run-time simulator.
type Machine struct {
	cfg    Config
	levels []*cache.Cache
	lat    []sim.Time

	// contents holds the current plaintext of every line cached anywhere
	// in the hierarchy, dirty or clean. Clean lines cannot be re-read from
	// raw NVM on a hit: under a secure memory path the NVM holds
	// ciphertext, and the plaintext view lives in the (trusted) hierarchy.
	contents addrmap.Map[mem.Block]

	sec *secmem.Controller // nil for a non-secure machine
	nvm *mem.Controller

	// wpq holds the background-retire completion times of accepted
	// write-pending-queue entries (DomainADRWPQ).
	wpq    []sim.Time
	wpqCap int

	now   sim.Time
	stats Stats

	metrics *obs.Registry
	mLabels []string
	tl      *timeline.Recorder
	tsOps   *timeseries.Series // ops retired per sim-time window (nil = off)
}

// Attach connects the machine to the probe's sinks; a nil sink detaches
// that sink. PublishMetrics then writes the run-time counters into the
// registry, Run stamps the run phase onto the recorder's events, and Run
// records operations retired per sim-time window under horus_ts_run_ops
// (one pointer check per op when detached). The extra labels (alternating
// key, value, e.g. "domain", "EPD") are applied to every metric and
// series. The underlying controllers attach via their own Attach.
func (m *Machine) Attach(p probe.Probe, labels ...string) {
	m.metrics = p.Metrics
	m.mLabels = labels
	m.tl = p.Timeline
	m.tsOps = nil
	if p.Timeseries != nil {
		m.tsOps = p.Timeseries.Counter("horus_ts_run_ops", labels...)
	}
}

// PublishMetrics snapshots the run-time counters into the attached registry
// as gauges, and asks the memory controllers to publish their occupancy for
// the "run" phase. No-op when no registry is attached.
func (m *Machine) PublishMetrics() {
	reg := m.metrics
	if reg == nil {
		return
	}
	s := m.Stats()
	reg.SetHelp("horus_run_ops", "Run-time operations executed, by kind.")
	reg.SetHelp("horus_run_time_ps", "Simulated run-time execution time, picoseconds.")
	reg.SetHelp("horus_run_persist_flushes", "Persist barriers that flushed dirty lines to the memory controller.")
	reg.SetHelp("horus_run_persist_elided", "Persist barriers elided because the target lines were already clean.")
	reg.SetHelp("horus_run_wpq_stalls", "Run-time stalls waiting for write-pending-queue capacity.")
	reg.SetHelp("horus_run_misses_to_mem", "Cache misses that reached the memory controller at run time.")
	reg.SetHelp("horus_run_writebacks", "Dirty-line writebacks issued to the memory controller at run time.")
	reg.SetHelp("horus_run_cache_hits", "Run-time cache hits, by hierarchy level.")
	lbl := func(extra ...string) []string { return append(extra, m.mLabels...) }
	reg.Gauge("horus_run_ops", lbl("kind", "read")...).Set(float64(s.Reads))
	reg.Gauge("horus_run_ops", lbl("kind", "write")...).Set(float64(s.Writes))
	reg.Gauge("horus_run_ops", lbl("kind", "persist")...).Set(float64(s.Persists))
	reg.Gauge("horus_run_persist_flushes", lbl()...).Set(float64(s.PersistFlush))
	reg.Gauge("horus_run_persist_elided", lbl()...).Set(float64(s.PersistElided))
	reg.Gauge("horus_run_wpq_stalls", lbl()...).Set(float64(s.WPQStalls))
	reg.Gauge("horus_run_misses_to_mem", lbl()...).Set(float64(s.MissesToMem))
	reg.Gauge("horus_run_writebacks", lbl()...).Set(float64(s.Writebacks))
	reg.Gauge("horus_run_time_ps", lbl()...).Set(float64(s.Time))
	for i, hits := range s.HitsPerLevel {
		reg.Gauge("horus_run_cache_hits", lbl("level", m.cfg.Hierarchy.Levels[i].Name)...).Set(float64(hits))
	}
	m.nvm.PublishMetrics("run", m.now)
	if m.sec != nil {
		m.sec.PublishMetrics("run", m.now)
	}
}

// New builds a machine over the given memory system. sec may be nil for a
// non-secure machine; nvm is required.
func New(cfg Config, sec *secmem.Controller, nvm *mem.Controller) *Machine {
	if nvm == nil {
		panic("runsim: nvm required")
	}
	if len(cfg.Hierarchy.Levels) == 0 {
		panic("runsim: hierarchy required")
	}
	if cfg.ClockHz == 0 {
		cfg.ClockHz = 4_000_000_000
	}
	clk := sim.NewClock(cfg.ClockHz)
	m := &Machine{
		cfg: cfg,
		sec: sec,
		nvm: nvm,
	}
	for _, lc := range cfg.Hierarchy.Levels {
		m.levels = append(m.levels, cache.New(lc.Name, lc.SizeBytes, lc.Ways, mem.BlockSize))
		lat := lc.LatencyCycle
		if lat <= 0 {
			lat = 4
		}
		m.lat = append(m.lat, clk.Cycles(int64(lat)))
	}
	m.stats.HitsPerLevel = make([]int64, len(m.levels))
	m.wpqCap = cfg.WPQEntries
	if m.wpqCap <= 0 {
		m.wpqCap = 64
	}
	return m
}

// Stats returns a copy of the counters with the current time.
func (m *Machine) Stats() Stats {
	s := m.stats
	s.Time = m.now
	s.HitsPerLevel = append([]int64(nil), m.stats.HitsPerLevel...)
	return s
}

// Now returns the current simulated time.
func (m *Machine) Now() sim.Time { return m.now }

// Secure reports whether memory traffic goes through the secure path.
func (m *Machine) Secure() bool { return m.sec != nil }

// memWrite sends a block to memory through the configured path.
func (m *Machine) memWrite(addr uint64, b mem.Block) error {
	if m.sec != nil {
		done, err := m.sec.WriteBlock(m.now, addr, b)
		if err != nil {
			return err
		}
		m.now = done
		return nil
	}
	m.now = m.nvm.Write(m.now, addr, b, mem.CatData)
	return nil
}

// memRead fetches a block from memory through the configured path.
func (m *Machine) memRead(addr uint64) (mem.Block, error) {
	if m.sec != nil {
		b, done, err := m.sec.ReadBlock(m.now, addr)
		if err != nil {
			return mem.Block{}, err
		}
		m.now = done
		return b, nil
	}
	b, done := m.nvm.Read(m.now, addr, mem.CatData)
	m.now = done
	return b, nil
}

// findLevel probes the hierarchy and returns the level holding addr, or -1.
func (m *Machine) findLevel(addr uint64) int {
	for i, c := range m.levels {
		if c.Contains(addr) {
			return i
		}
	}
	return -1
}

// access brings addr into L1 (reading memory if needed), charges latency,
// and returns the line's current value.
func (m *Machine) access(addr uint64) (mem.Block, error) {
	lvl := m.findLevel(addr)
	if lvl >= 0 {
		m.now += m.lat[lvl]
		m.stats.HitsPerLevel[lvl]++
		if lvl == 0 {
			m.levels[0].Touch(addr, false)
			return m.valueOf(addr), nil
		}
		// Promote to L1; the copy leaves the lower level (exclusive style).
		dirty, _ := m.levels[lvl].Invalidate(addr)
		val := m.valueOf(addr)
		if err := m.fillL1(addr, dirty, val); err != nil {
			return mem.Block{}, err
		}
		return val, nil
	}
	// Miss to memory.
	m.now += m.lat[len(m.lat)-1] // traversal cost to the miss point
	m.stats.MissesToMem++
	val, err := m.memRead(addr)
	if err != nil {
		return mem.Block{}, err
	}
	if err := m.fillL1(addr, false, val); err != nil {
		return mem.Block{}, err
	}
	return val, nil
}

// valueOf returns the plaintext of a line cached in the hierarchy.
func (m *Machine) valueOf(addr uint64) mem.Block {
	b, ok := m.contents.Get(addr)
	if !ok {
		panic("runsim: cached line without tracked plaintext")
	}
	return b
}

// fillL1 inserts addr into L1 and spills victims down the hierarchy.
func (m *Machine) fillL1(addr uint64, dirty bool, val mem.Block) error {
	*m.contents.Ref(addr) = val
	ev, evicted := m.levels[0].Insert(addr, dirty)
	level := 1
	for evicted {
		if level >= len(m.levels) {
			// Victim leaves the hierarchy.
			val := m.valueOf(ev.Addr)
			m.contents.Delete(ev.Addr)
			if ev.Dirty {
				m.stats.Writebacks++
				if err := m.memWrite(ev.Addr, val); err != nil {
					return err
				}
			}
			return nil
		}
		if m.levels[level].Contains(ev.Addr) {
			// Lower level already holds the line (stale copy): refresh it.
			if ev.Dirty {
				m.levels[level].Touch(ev.Addr, true)
			}
			return nil
		}
		ev, evicted = m.levels[level].Insert(ev.Addr, ev.Dirty)
		level++
	}
	return nil
}

// Read performs a load.
func (m *Machine) Read(addr uint64) (mem.Block, error) {
	m.stats.Reads++
	return m.access(addr)
}

// Write performs a store: the line is brought to L1 and dirtied.
func (m *Machine) Write(addr uint64, val mem.Block) error {
	m.stats.Writes++
	if _, err := m.access(addr); err != nil {
		return err
	}
	*m.contents.Ref(addr) = val
	m.levels[0].Touch(addr, true)
	return nil
}

// Persist makes the most recent write to addr durable. Under EPD this is
// free — the cache hierarchy is the persistence domain. Under plain ADR
// the dirty line must be flushed through the (secure) memory path
// synchronously. Under ADR+WPQ the line enters the battery-backed
// write-pending queue and the secure write retires in the background; the
// core stalls only when the queue is full.
func (m *Machine) Persist(addr uint64) error {
	m.stats.Persists++
	if m.cfg.Domain == DomainEPD {
		m.stats.PersistElided++
		return nil
	}
	lvl := m.findLevel(addr)
	if lvl < 0 || !m.levels[lvl].IsDirty(addr) {
		m.stats.PersistElided++ // already durable
		return nil
	}
	// The line stays cached (clean) with its plaintext; only the NVM copy
	// is refreshed.
	val := m.valueOf(addr)
	m.levels[lvl].Clean(addr)
	m.stats.PersistFlush++
	if m.cfg.Domain != DomainADRWPQ && m.cfg.Domain != DomainBBB {
		return m.memWrite(addr, val)
	}
	// Buffered path (WPQ / BBB): retire already-completed entries, stall
	// if still full, then accept the line (durable from this instant —
	// the buffer is battery-backed) and issue the background secure write.
	live := m.wpq[:0]
	for _, done := range m.wpq {
		if done > m.now {
			live = append(live, done)
		}
	}
	m.wpq = live
	if len(m.wpq) >= m.wpqCap {
		m.stats.WPQStalls++
		oldest := m.wpq[0]
		for _, d := range m.wpq {
			if d < oldest {
				oldest = d
			}
		}
		m.now = sim.MaxTime(m.now, oldest)
		live = m.wpq[:0]
		for _, done := range m.wpq {
			if done > m.now {
				live = append(live, done)
			}
		}
		m.wpq = live
	}
	start := m.now
	var done sim.Time
	if m.sec != nil {
		d, err := m.sec.WriteBlock(start, addr, val)
		if err != nil {
			return err
		}
		done = d
	} else {
		done = m.nvm.Write(start, addr, val, mem.CatData)
	}
	m.wpq = append(m.wpq, done)
	// The core only pays the buffer-insertion latency: LLC traversal for
	// the memory-controller WPQ, a single L1 access for BBB.
	if m.cfg.Domain == DomainBBB {
		m.now = start + m.lat[0]
	} else {
		m.now = start + m.lat[len(m.lat)-1]
	}
	return nil
}

// Run executes a workload stream to completion.
func (m *Machine) Run(s *workload.Stream) error {
	// Stamp directly on the recorder rather than via nvm.MarkStage: stage
	// marks also reach the NVM write hook, which opens an epoch per mark.
	m.tl.SetStage("run")
	span := m.metrics.StartSpan("run", int64(m.now))
	defer func() {
		span.EndAt(int64(m.now))
		m.PublishMetrics()
	}()
	for i, op := range s.Ops {
		var err error
		switch op.Kind {
		case workload.OpRead:
			_, err = m.Read(op.Addr)
		case workload.OpWrite:
			var v mem.Block
			v[0] = byte(i)
			v[1] = byte(op.Addr >> 6)
			err = m.Write(op.Addr, v)
		case workload.OpPersist:
			err = m.Persist(op.Addr)
		default:
			err = fmt.Errorf("runsim: unknown op kind %v", op.Kind)
		}
		if err != nil {
			return fmt.Errorf("runsim: op %d (%v %#x): %w", i, op.Kind, op.Addr, err)
		}
		if m.tsOps != nil {
			m.tsOps.Record(int64(m.now), 1)
		}
	}
	return nil
}

// DirtyBlocks snapshots the hierarchy's dirty lines for an EPD drain, in
// deterministic scan order.
func (m *Machine) DirtyBlocks() []hierarchy.DirtyBlock {
	var out []hierarchy.DirtyBlock
	for _, c := range m.levels {
		for _, addr := range c.DirtyLines() {
			out = append(out, hierarchy.DirtyBlock{Addr: addr, Data: m.valueOf(addr)})
		}
	}
	return out
}

// Image returns a copy of the current plaintext of every line cached in the
// hierarchy (dirty or clean), sorted by ascending address, for end-to-end
// verification.
func (m *Machine) Image() []hierarchy.DirtyBlock {
	out := make([]hierarchy.DirtyBlock, 0, m.contents.Len())
	m.contents.Each(func(a uint64, b mem.Block) { out = append(out, hierarchy.DirtyBlock{Addr: a, Data: b}) })
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// Crash drops the volatile hierarchy (after a drain has captured it). The
// WPQ is battery-backed and its entries were functionally durable at
// acceptance, so it simply empties.
func (m *Machine) Crash() {
	for _, c := range m.levels {
		c.InvalidateAll()
	}
	m.contents.Reset()
	m.wpq = nil
}
