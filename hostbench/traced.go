package main

import (
	"time"

	horus "repro"
	"repro/internal/cache"
	"repro/internal/cme"
	"repro/internal/mem"
	"repro/internal/sim"
)

// span is one timed call into a layer, recorded by the benchmark around the
// library calls it makes. Spans of one workload share a trace name.
type span struct {
	Trace   string `json:"trace"`
	Name    string `json:"name"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 for a top-level span
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced passes run the same code.
type tracer struct {
	trace  string
	origin time.Time
	spans  []span
	open   []int // stack of open span IDs
}

func newTracer(trace string, origin time.Time) *tracer {
	return &tracer{trace: trace, origin: origin}
}

// now returns nanoseconds since the tracer's origin.
func (t *tracer) now() int64 { return time.Since(t.origin).Nanoseconds() }

// span runs fn, records it as a span when t is non-nil, and returns its wall
// time in seconds either way.
func (t *tracer) span(name string, fn func()) float64 {
	start := time.Now()
	if t == nil {
		fn()
		return time.Since(start).Seconds()
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Trace: t.trace, Name: name, ID: id, Parent: parent, StartNs: start.Sub(t.origin).Nanoseconds()})
	t.open = append(t.open, id)
	fn()
	end := time.Now()
	t.open = t.open[:len(t.open)-1]
	t.spans[id].EndNs = end.Sub(t.origin).Nanoseconds()
	return end.Sub(start).Seconds()
}

// seconds sums the durations of the spans with the given name.
func (t *tracer) seconds(name string) float64 {
	var ns int64
	for _, s := range t.spans {
		if s.Name == name {
			ns += s.EndNs - s.StartNs
		}
	}
	return float64(ns) / 1e9
}

// tracedRun is the per-layer run. It runs one traced pass of every
// workload, whichever one is named, so each traced run reports the same
// metrics; then the per-call layer probes. The named workload first runs one
// untraced pass, the reference for the tracing overhead.
func tracedRun(named *workload, o options) (report, []span, error) {
	c := &checker{}
	m := metricSet{}
	origin := time.Now()
	var spans []span
	for _, w := range workloads {
		inst, err := w.prepare(o)
		if err != nil {
			return report{}, nil, err
		}
		var base passStats
		if w == named {
			if base, _, err = runPass(inst, nil, c); err != nil {
				return report{}, nil, err
			}
		}
		tr := newTracer(w.name, origin)
		st, p, err := runPass(inst, tr, c)
		if err != nil {
			return report{}, nil, err
		}
		if p != nil {
			p.layers(tr, st, m)
		}
		if w == named {
			m.add("trace.overhead_x", st.WallS/base.WallS, "x")
		}
		m.add("runtime.gc_cycles."+w.name, float64(st.GCs), "count")
		m.add("runtime.gc_cpu_s."+w.name, st.GCCPUS, "s")
		spans = append(spans, tr.spans...)
	}
	tr := newTracer("probes", origin)
	probeLayers(o, tr, m)
	spans = append(spans, tr.spans...)
	return report{Passes: len(workloads) + 1, Attempted: c.run, Failed: c.failed, Failures: c.failures, Metrics: m}, spans, nil
}

// probeLayers measures the per-call host cost of the hot layer operations,
// driven by the addresses and data of one paper-scale fill.
func probeLayers(o options, tr *tracer, m metricSet) {
	fill := horus.NewSystem(o.paper, horus.NonSecure)
	fill.Fill()
	blocks := fill.Hierarchy.DirtyBlocks()
	capped := func(n int) []horus.DirtyBlock {
		if o.probeCalls > 0 {
			n = min(n, o.probeCalls)
		}
		return blocks[:min(n, len(blocks))]
	}
	memCfg := o.paper.Mem

	all := capped(len(blocks))
	m.add("sim.acquire_ns", probe(tr, "sim.acquire", func() func() int {
		banks := make([]*sim.Resource, memCfg.Banks)
		for i := range banks {
			banks[i] = sim.NewResource("bank")
		}
		return func() int {
			for i, b := range all {
				banks[mem.BankOf(b.Addr, len(banks))].Acquire(sim.Time(i)*memCfg.BusSlot, memCfg.WriteLatency)
			}
			return len(all)
		}
	}), "ns")
	m.add("mem.write_ns", probe(tr, "mem.write", func() func() int {
		nvm := mem.NewController(memCfg)
		nvm.Reserve(len(all))
		return func() int {
			for i, b := range all {
				nvm.Write(sim.Time(i)*memCfg.BusSlot, b.Addr, b.Data, mem.CatData)
			}
			return len(all)
		}
	}), "ns")
	var filled *mem.Store
	m.add("mem.store_write_ns", probe(tr, "mem.store_write", func() func() int {
		nvm := mem.NewController(memCfg)
		nvm.Reserve(len(all))
		filled = nvm.Store()
		return func() int {
			for _, b := range all {
				filled.WriteBlock(b.Addr, b.Data)
			}
			return len(all)
		}
	}), "ns")
	m.add("mem.store_read_ns", probe(tr, "mem.store_read", func() func() int {
		return func() int {
			var x byte
			for _, b := range all {
				blk := filled.ReadBlock(b.Addr)
				x ^= blk[0]
			}
			sink = x
			return len(all)
		}
	}), "ns")

	crypto := capped(1 << 16)
	eng := cme.NewEngine(o.paper.KeySeed)
	m.add("cme.encrypt_ns", probe(tr, "cme.encrypt", func() func() int {
		return func() int {
			for i, b := range crypto {
				ct := eng.Encrypt(b.Addr, uint64(i), b.Data)
				sink = ct[0]
			}
			return len(crypto)
		}
	}), "ns")
	m.add("cme.data_mac_ns", probe(tr, "cme.data_mac", func() func() int {
		return func() int {
			for i, b := range crypto {
				mac := eng.DataMAC(b.Addr, uint64(i), b.Data)
				sink = mac[0]
			}
			return len(crypto)
		}
	}), "ns")
	m.add("cme.node_mac_ns", probe(tr, "cme.node_mac", func() func() int {
		return func() int {
			for i, b := range crypto {
				mac := eng.NodeMAC(1+i%8, b.Addr/mem.BlockSize, b.Data)
				sink = mac[0]
			}
			return len(crypto)
		}
	}), "ns")

	sec := o.paper.Sec
	var c *cache.Cache
	m.add("cache.insert_ns", probe(tr, "cache.insert", func() func() int {
		c = cache.New("counter$", sec.CounterCacheBytes, sec.CacheWays, mem.BlockSize)
		return func() int {
			for _, b := range crypto {
				c.Insert(b.Addr, true)
			}
			return len(crypto)
		}
	}), "ns")
	m.add("cache.lookup_ns", probe(tr, "cache.lookup", func() func() int {
		return func() int {
			hits := 0
			for _, b := range crypto {
				if c.Lookup(b.Addr) {
					hits++
				}
			}
			sink = byte(hits)
			return len(crypto)
		}
	}), "ns")

	// The BMT verify walk: read back blocks the secure controller wrote.
	walk := capped(1 << 14)
	lu := horus.NewSystem(o.paper, horus.BaseLU)
	var now sim.Time
	for _, b := range walk {
		done, err := lu.Core.Sec.WriteBlock(now, b.Addr, b.Data)
		if err != nil {
			panic(err) // a fresh controller accepts every in-range write
		}
		now = done
	}
	m.add("secmem.read_block_ns", probe(tr, "secmem.read_block", func() func() int {
		return func() int {
			for _, b := range walk {
				blk, done, err := lu.Core.Sec.ReadBlock(now, b.Addr)
				if err != nil || blk != b.Data {
					panic("secmem: read-back of a written block failed")
				}
				now = done
			}
			return len(walk)
		}
	}), "ns")

	test := o.small
	newSys := make([]float64, 15)
	for i := range newSys {
		newSys[i] = tr.span("horus.new_system_test", func() { sink = byte(horus.NewSystem(test, horus.HorusSLM).Scheme) }) * 1e3
	}
	m.add("horus.new_system_test_ms", median(newSys), "ms")
}

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink byte

// probe returns the median per-call nanoseconds of five repetitions; setup
// builds fresh state for each repetition outside the timed region.
func probe(tr *tracer, name string, setup func() func() int) float64 {
	per := make([]float64, 5)
	for i := range per {
		fn := setup()
		var calls int
		sec := tr.span(name, func() { calls = fn() })
		per[i] = sec * 1e9 / float64(calls)
	}
	return median(per)
}
