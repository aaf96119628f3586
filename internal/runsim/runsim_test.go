package runsim

import (
	"testing"

	"repro/internal/bmt"
	"repro/internal/cme"
	"repro/internal/hierarchy"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/obs/timeseries"
	"repro/internal/probe"
	"repro/internal/secmem"
	"repro/internal/timeline"
	"repro/internal/workload"
)

func smallHierarchy() hierarchy.Config {
	return hierarchy.Config{Levels: []hierarchy.LevelConfig{
		{Name: "L1", SizeBytes: 2 << 10, Ways: 2, LatencyCycle: 2},
		{Name: "L2", SizeBytes: 8 << 10, Ways: 4, LatencyCycle: 20},
		{Name: "LLC", SizeBytes: 32 << 10, Ways: 8, LatencyCycle: 32},
	}}
}

func newMachine(t testing.TB, domain PersistDomain, secure bool) (*Machine, *mem.Controller, *secmem.Controller) {
	t.Helper()
	nvm := mem.NewController(mem.DefaultConfig())
	var sec *secmem.Controller
	if secure {
		lay := bmt.NewLayout(bmt.Config{DataSize: 16 << 20, CHVCapacity: 1024, VaultBlocks: 8192})
		scfg := secmem.DefaultConfig()
		scfg.CounterCacheBytes = 4 << 10
		scfg.MACCacheBytes = 8 << 10
		scfg.TreeCacheBytes = 4 << 10
		sec = secmem.New(scfg, lay, cme.NewEngine(5), nvm)
	}
	return New(Config{Hierarchy: smallHierarchy(), Domain: domain}, sec, nvm), nvm, sec
}

func TestWriteReadThroughHierarchy(t *testing.T) {
	m, _, _ := newMachine(t, DomainEPD, false)
	want := mem.Block{0: 0xCD}
	if err := m.Write(0x1000, want); err != nil {
		t.Fatal(err)
	}
	got, err := m.Read(0x1000)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatal("read-after-write mismatch (cached)")
	}
	st := m.Stats()
	if st.Reads != 1 || st.Writes != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.HitsPerLevel[0] == 0 {
		t.Error("L1 hit not recorded")
	}
}

func TestCapacitySpillsToMemoryAndBack(t *testing.T) {
	m, nvm, _ := newMachine(t, DomainEPD, false)
	// Write far more blocks than the whole hierarchy holds.
	total := (2<<10 + 8<<10 + 32<<10) / 64
	n := total * 3
	for i := 0; i < n; i++ {
		if err := m.Write(uint64(i)*64, mem.Block{0: byte(i), 1: byte(i >> 8)}); err != nil {
			t.Fatal(err)
		}
	}
	st := m.Stats()
	if st.Writebacks == 0 {
		t.Fatal("no dirty write-backs despite capacity pressure")
	}
	if nvm.TotalWrites() == 0 {
		t.Fatal("memory never written")
	}
	// Re-read everything: values must be the last written, whether they
	// come from the hierarchy or from memory.
	for i := 0; i < n; i++ {
		got, err := m.Read(uint64(i) * 64)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != byte(i) || got[1] != byte(i>>8) {
			t.Fatalf("block %d corrupted on spill path", i)
		}
	}
	if m.Stats().MissesToMem == 0 {
		t.Error("re-read never missed to memory")
	}
}

func TestSecureMachineEncryptsSpilledData(t *testing.T) {
	m, nvm, _ := newMachine(t, DomainEPD, true)
	total := (2<<10 + 8<<10 + 32<<10) / 64
	for i := 0; i < total*2; i++ {
		if err := m.Write(uint64(i)*4096, mem.Block{0: 0x77}); err != nil {
			t.Fatal(err)
		}
	}
	if m.Stats().Writebacks == 0 {
		t.Skip("no write-backs; enlarge workload")
	}
	// Find a written-back block: its NVM image must not be plaintext.
	found := false
	for i := 0; i < total*2; i++ {
		addr := uint64(i) * 4096
		b := nvm.PeekRead(addr)
		if !b.IsZero() {
			found = true
			if b == (mem.Block{0: 0x77}) {
				t.Fatal("secure machine wrote plaintext to NVM")
			}
		}
	}
	if !found {
		t.Fatal("no block reached NVM")
	}
}

func TestPersistCostEPDvsADR(t *testing.T) {
	// Cache-resident transactional working set: the case EPD is built for
	// (§II-A) — persists are the only reason to touch the memory at all.
	run := func(domain PersistDomain) Stats {
		m, _, _ := newMachine(t, domain, true)
		s := workload.TxLog(workload.Config{Ops: 3000, WorkingSet: 24 << 10, Seed: 4}, 2, 4)
		if err := m.Run(s); err != nil {
			t.Fatal(err)
		}
		return m.Stats()
	}
	adr, epd := run(DomainADR), run(DomainEPD)
	if epd.PersistFlush != 0 {
		t.Error("EPD performed persist flushes")
	}
	if adr.PersistFlush == 0 {
		t.Error("ADR performed no persist flushes")
	}
	if epd.Time >= adr.Time {
		t.Errorf("EPD (%v) not faster than ADR (%v) on a persist-heavy workload", epd.Time, adr.Time)
	}
	// The paper's motivation: the gap should be large for persist-heavy
	// transactional workloads with cache-resident data.
	if ratio := float64(adr.Time) / float64(epd.Time); ratio < 5 {
		t.Errorf("ADR/EPD ratio %.2f too small", ratio)
	}
}

func TestWPQDomainBetweenADRAndEPD(t *testing.T) {
	// The battery-backed WPQ (Dolos design point) should land between
	// plain ADR and EPD on a persist-heavy workload.
	times := map[PersistDomain]Stats{}
	for _, d := range []PersistDomain{DomainADR, DomainADRWPQ, DomainEPD} {
		m, _, _ := newMachine(t, d, true)
		s := workload.TxLog(workload.Config{Ops: 4000, WorkingSet: 24 << 10, Seed: 4}, 2, 4)
		if err := m.Run(s); err != nil {
			t.Fatal(err)
		}
		times[d] = m.Stats()
	}
	adr, wpq, epd := times[DomainADR].Time, times[DomainADRWPQ].Time, times[DomainEPD].Time
	if !(epd < wpq && wpq < adr) {
		t.Errorf("ordering broken: EPD=%v WPQ=%v ADR=%v", epd, wpq, adr)
	}
}

func TestBBBBetweenWPQAndEPD(t *testing.T) {
	// BBB accepts persists at L1 latency, so it should be at least as fast
	// as the memory-controller WPQ and no faster than EPD.
	times := map[PersistDomain]Stats{}
	for _, d := range []PersistDomain{DomainADRWPQ, DomainBBB, DomainEPD} {
		m, _, _ := newMachine(t, d, true)
		s := workload.TxLog(workload.Config{Ops: 4000, WorkingSet: 24 << 10, Seed: 4}, 2, 4)
		if err := m.Run(s); err != nil {
			t.Fatal(err)
		}
		times[d] = m.Stats()
	}
	if times[DomainBBB].Time > times[DomainADRWPQ].Time {
		t.Errorf("BBB (%v) slower than WPQ (%v)", times[DomainBBB].Time, times[DomainADRWPQ].Time)
	}
	if times[DomainBBB].Time < times[DomainEPD].Time {
		t.Errorf("BBB (%v) faster than EPD (%v)", times[DomainBBB].Time, times[DomainEPD].Time)
	}
	if DomainBBB.String() != "BBB" {
		t.Error("name wrong")
	}
}

func TestWPQStallsWhenSaturated(t *testing.T) {
	nvm := mem.NewController(mem.DefaultConfig())
	lay := bmt.NewLayout(bmt.Config{DataSize: 16 << 20, CHVCapacity: 1024, VaultBlocks: 8192})
	scfg := secmem.DefaultConfig()
	scfg.CounterCacheBytes = 4 << 10
	scfg.MACCacheBytes = 8 << 10
	scfg.TreeCacheBytes = 4 << 10
	sec := secmem.New(scfg, lay, cme.NewEngine(5), nvm)
	m := New(Config{Hierarchy: smallHierarchy(), Domain: DomainADRWPQ, WPQEntries: 2}, sec, nvm)
	// Cache-resident burst: writes are L1 hits (sub-nanosecond), so
	// persists arrive far faster than the ~microsecond secure write path
	// retires them and the 2-entry queue must stall.
	addrs := []uint64{0, 4096, 8192, 12288}
	rounds := 16
	for r := 0; r < rounds; r++ {
		for _, addr := range addrs {
			if err := m.Write(addr, mem.Block{0: byte(r + 1)}); err != nil {
				t.Fatal(err)
			}
			if err := m.Persist(addr); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := m.Stats()
	if st.WPQStalls == 0 {
		t.Error("a 2-entry WPQ never stalled under a persist burst")
	}
	if st.PersistFlush != int64(rounds*len(addrs)) {
		t.Errorf("persist flushes = %d, want %d", st.PersistFlush, rounds*len(addrs))
	}
	// All persisted data must be durable in NVM with the final values.
	for _, addr := range addrs {
		b := nvm.PeekRead(addr)
		if b.IsZero() {
			t.Fatalf("persisted block %#x not durable", addr)
		}
	}
}

func TestADRPersistIsDurable(t *testing.T) {
	m, nvm, _ := newMachine(t, DomainADR, false)
	want := mem.Block{0: 0x3C}
	if err := m.Write(0x2000, want); err != nil {
		t.Fatal(err)
	}
	if err := m.Persist(0x2000); err != nil {
		t.Fatal(err)
	}
	if nvm.PeekRead(0x2000) != want {
		t.Fatal("persist did not reach NVM")
	}
	// A second persist of the now-clean line is elided.
	before := m.Stats().PersistFlush
	if err := m.Persist(0x2000); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.PersistFlush != before || st.PersistElided == 0 {
		t.Error("clean-line persist not elided")
	}
}

func TestRunAllWorkloads(t *testing.T) {
	cfg := workload.Config{Ops: 2000, WorkingSet: 256 << 10, Seed: 9, PersistPercent: 10}
	streams := []*workload.Stream{
		workload.Sequential(cfg),
		workload.Uniform(cfg),
		workload.Zipf(cfg, 1.3),
		workload.KVStore(cfg, 4),
		workload.TxLog(cfg, 2, 3),
		workload.Graph(cfg, 3),
	}
	for _, s := range streams {
		t.Run(s.Name, func(t *testing.T) {
			m, _, _ := newMachine(t, DomainEPD, true)
			if err := m.Run(s); err != nil {
				t.Fatal(err)
			}
			st := m.Stats()
			if st.Time <= 0 {
				t.Error("no simulated time elapsed")
			}
			r, w, p := s.Stats()
			if st.Reads != int64(r) || st.Writes != int64(w) || st.Persists != int64(p) {
				t.Error("op counts disagree with stream stats")
			}
		})
	}
}

// TestAttachFeedsEverySink runs a workload on a machine whose controllers
// and run loop share one probe, and checks each sink heard from the run:
// run-time gauges and the run span, per-window op counts, and timeline
// events stamped with the run stage.
func TestAttachFeedsEverySink(t *testing.T) {
	m, nvm, _ := newMachine(t, DomainEPD, false)
	p := probe.Probe{
		Metrics:    obs.NewRegistry(),
		Timeline:   timeline.NewRecorder(0),
		Timeseries: timeseries.New(0, 0),
	}
	nvm.Attach(p)
	m.Attach(p, "domain", "EPD")
	s := workload.Uniform(workload.Config{Ops: 2000, WorkingSet: 256 << 10, Seed: 9})
	if err := m.Run(s); err != nil {
		t.Fatal(err)
	}
	r, _, _ := s.Stats()
	if got := p.Metrics.Gauge("horus_run_ops", "kind", "read", "domain", "EPD").Value(); got != float64(r) {
		t.Errorf("horus_run_ops{kind=read} = %v, want %d", got, r)
	}
	if got := p.Metrics.Snapshot().Spans; len(got) != 1 || got[0].Name != "run" {
		t.Errorf("span tree %+v, want one run span", got)
	}
	var ops float64
	for _, sr := range p.Timeseries.Snapshot().Find("horus_ts_run_ops") {
		if sr.Labels["domain"] != "EPD" {
			t.Errorf("horus_ts_run_ops labels %v, want domain=EPD", sr.Labels)
		}
		for _, pt := range sr.Points {
			ops += pt.V
		}
	}
	if ops != float64(len(s.Ops)) {
		t.Errorf("horus_ts_run_ops sums to %v, want %d ops", ops, len(s.Ops))
	}
	if ev := p.Timeline.Recording().Events; len(ev) == 0 || ev[0].Stage != "run" {
		t.Errorf("timeline events %v, want run-stage events", ev[:min(len(ev), 1)])
	}
}

func TestDirtyBlocksMatchContents(t *testing.T) {
	m, _, _ := newMachine(t, DomainEPD, false)
	for i := 0; i < 100; i++ {
		if err := m.Write(uint64(i)*64, mem.Block{0: byte(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	golden := m.Golden()
	blocks := m.DirtyBlocks()
	if len(blocks) == 0 {
		t.Fatal("no dirty blocks")
	}
	for _, b := range blocks {
		want, ok := golden[b.Addr]
		if !ok || b.Data != want {
			t.Fatalf("dirty block %#x inconsistent with golden state", b.Addr)
		}
	}
	m.Crash()
	if len(m.DirtyBlocks()) != 0 {
		t.Error("crash left dirty blocks")
	}
}

func TestZeroLatencyLevelsDefaulted(t *testing.T) {
	cfg := Config{Hierarchy: hierarchy.Config{Levels: []hierarchy.LevelConfig{
		{Name: "only", SizeBytes: 1 << 10, Ways: 2}, // LatencyCycle 0
	}}}
	nvm := mem.NewController(mem.DefaultConfig())
	m := New(cfg, nil, nvm)
	if err := m.Write(0, mem.Block{}); err != nil {
		t.Fatal(err)
	}
	if m.Now() <= 0 {
		t.Error("defaulted latency did not advance time")
	}
}

func TestNewPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"nil nvm":   func() { New(Config{Hierarchy: smallHierarchy()}, nil, nil) },
		"no levels": func() { New(Config{}, nil, mem.NewController(mem.DefaultConfig())) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}
