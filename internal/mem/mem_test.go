package mem

import (
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"

	"repro/internal/obs"
	"repro/internal/probe"
	"repro/internal/sim"
)

func TestStoreZeroDefault(t *testing.T) {
	s := NewStore()
	b := s.ReadBlock(0x1000)
	if !b.IsZero() {
		t.Error("unwritten block should read as zero")
	}
	if s.Populated() != 0 {
		t.Error("read must not populate the store")
	}
}

func TestStoreRoundTrip(t *testing.T) {
	s := NewStore()
	var b Block
	for i := range b {
		b[i] = byte(i * 3)
	}
	s.WriteBlock(0x40, b)
	if got := s.ReadBlock(0x40); got != b {
		t.Error("round trip mismatch")
	}
	if s.Populated() != 1 {
		t.Errorf("Populated = %d, want 1", s.Populated())
	}
}

func TestStoreUnalignedPanics(t *testing.T) {
	s := NewStore()
	defer func() {
		if recover() == nil {
			t.Error("unaligned access did not panic")
		}
	}()
	s.ReadBlock(0x41)
}

func TestStoreSnapshotIndependence(t *testing.T) {
	s := NewStore()
	s.WriteBlock(0, Block{1})
	snap := s.Snapshot()
	s.WriteBlock(0, Block{2})
	if snap.ReadBlock(0)[0] != 1 {
		t.Error("snapshot was mutated by a later write")
	}
}

func TestStoreCorruptByte(t *testing.T) {
	s := NewStore()
	s.WriteBlock(0, Block{0: 0xF0})
	old := s.CorruptByte(0, 0, 0x01)
	if old[0] != 0xF0 {
		t.Errorf("CorruptByte returned %#x, want old value 0xF0", old[0])
	}
	if got := s.ReadBlock(0)[0]; got != 0xF1 {
		t.Errorf("corrupted byte = %#x, want 0xF1", got)
	}
}

func TestBlockIsZero(t *testing.T) {
	var b Block
	if !b.IsZero() {
		t.Error("zero block not recognised")
	}
	b[63] = 1
	if b.IsZero() {
		t.Error("nonzero block reported zero")
	}
}

func TestControllerFunctionalRoundTrip(t *testing.T) {
	c := NewController(DefaultConfig())
	var b Block
	b[0] = 0xAB
	done := c.Write(0, 0x1000, b, CatData)
	if done <= 0 {
		t.Fatal("write completion time must be positive")
	}
	got, _ := c.Read(done, 0x1000, CatData)
	if got != b {
		t.Error("controller read returned wrong data")
	}
}

func TestControllerTiming(t *testing.T) {
	cfg := Config{Banks: 1, ReadLatency: 150 * sim.Nanosecond, WriteLatency: 500 * sim.Nanosecond, BusSlot: 5 * sim.Nanosecond}
	c := NewController(cfg)
	// Single bank: two writes serialise on the bank.
	d1 := c.Write(0, 0, Block{}, CatData)
	if d1 != 505*sim.Nanosecond {
		t.Fatalf("first write done = %v, want 505ns", d1)
	}
	d2 := c.Write(0, 64, Block{}, CatData)
	if d2 != 1005*sim.Nanosecond {
		t.Fatalf("second write done = %v, want 1005ns (bank conflict)", d2)
	}
}

func TestControllerBankParallelism(t *testing.T) {
	cfg := DefaultConfig()
	c := NewController(cfg)
	// Issue as many writes as banks to distinct banks: they should overlap,
	// so total drain time is far below the serialised sum.
	n := cfg.Banks
	seen := make(map[int]bool)
	addr := uint64(0)
	issued := 0
	for issued < n && addr < 1<<30 {
		bk := c.bankOf(addr)
		if !seen[bk] {
			seen[bk] = true
			c.Write(0, addr, Block{}, CatData)
			issued++
		}
		addr += BlockSize
	}
	if issued != n {
		t.Fatalf("could not find %d distinct banks", n)
	}
	serialised := sim.Time(n) * cfg.WriteLatency
	if c.LastDone() >= serialised {
		t.Errorf("LastDone = %v, want < serialised %v (banks must overlap)", c.LastDone(), serialised)
	}
}

func TestControllerStridedAccessesSpreadAcrossBanks(t *testing.T) {
	// The paper's worst-case fill uses a 16 KB stride; the bank hash must
	// still spread such accesses over many banks.
	c := NewController(DefaultConfig())
	banks := make(map[int]int)
	const stride = 16 * 1024
	for i := 0; i < 1024; i++ {
		banks[c.bankOf(uint64(i)*stride)]++
	}
	if len(banks) < c.cfg.Banks/2 {
		t.Errorf("16KB-strided accesses hit only %d/%d banks", len(banks), c.cfg.Banks)
	}
}

func TestControllerCounting(t *testing.T) {
	c := NewController(DefaultConfig())
	c.Write(0, 0, Block{}, CatData)
	c.Write(0, 64, Block{}, CatCounter)
	c.Write(0, 128, Block{}, CatData)
	c.Read(0, 0, CatTree)
	if c.Writes().Get(string(CatData)) != 2 {
		t.Errorf("data writes = %d, want 2", c.Writes().Get(string(CatData)))
	}
	if c.Writes().Get(string(CatCounter)) != 1 {
		t.Error("counter writes wrong")
	}
	if c.TotalReads() != 1 || c.TotalWrites() != 3 || c.TotalAccesses() != 4 {
		t.Error("totals wrong")
	}
}

func TestControllerResetStatsPreservesContent(t *testing.T) {
	c := NewController(DefaultConfig())
	c.Write(0, 0, Block{0: 7}, CatData)
	c.ResetStats()
	if c.TotalAccesses() != 0 {
		t.Error("ResetStats did not clear counters")
	}
	if c.LastDone() != 0 {
		t.Error("ResetStats did not clear timing")
	}
	if c.PeekRead(0)[0] != 7 {
		t.Error("ResetStats lost memory content")
	}
}

func TestControllerZeroBanksPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero banks did not panic")
		}
	}()
	NewController(Config{Banks: 0})
}

// scriptInjector returns a fixed fault for one write index and records the
// stages it saw.
type scriptInjector struct {
	n      int
	at     int
	fault  Fault
	stages []string
}

func (s *scriptInjector) OnWrite(addr uint64, cat Category) Fault {
	idx := s.n
	s.n++
	if idx == s.at {
		return s.fault
	}
	if s.fault.Kind == FaultCut && idx > s.at {
		return s.fault // a cut suppresses everything after it, too
	}
	return Fault{}
}

func (s *scriptInjector) OnStage(stage string) { s.stages = append(s.stages, stage) }

func TestFaultInjectorApplication(t *testing.T) {
	pat := func(v byte) Block {
		var b Block
		for i := range b {
			b[i] = v
		}
		return b
	}
	old, new1, new2 := pat(0xAA), pat(0x11), pat(0x22)

	t.Run("drop keeps old content", func(t *testing.T) {
		c := NewController(DefaultConfig())
		c.Write(0, 0, old, CatData)
		c.SetFaultInjector(&scriptInjector{at: 0, fault: Fault{Kind: FaultDrop}})
		c.Write(0, 0, new1, CatData)
		if got := c.PeekRead(0); got != old {
			t.Fatalf("dropped write changed content: got %x", got[0])
		}
		if c.TotalWrites() != 2 {
			t.Fatalf("writes = %d, want 2 (the dropped write is still issued)", c.TotalWrites())
		}
	})

	t.Run("tear mixes new prefix with old suffix", func(t *testing.T) {
		c := NewController(DefaultConfig())
		c.Write(0, 0, old, CatData)
		c.SetFaultInjector(&scriptInjector{at: 0, fault: Fault{Kind: FaultTear, TornBytes: 8}})
		c.Write(0, 0, new1, CatData)
		got := c.PeekRead(0)
		for i := 0; i < 8; i++ {
			if got[i] != new1[i] {
				t.Fatalf("byte %d = %x, want new %x", i, got[i], new1[i])
			}
		}
		for i := 8; i < BlockSize; i++ {
			if got[i] != old[i] {
				t.Fatalf("byte %d = %x, want old %x", i, got[i], old[i])
			}
		}
	})

	t.Run("flip toggles exactly one bit", func(t *testing.T) {
		c := NewController(DefaultConfig())
		c.SetFaultInjector(&scriptInjector{at: 0, fault: Fault{Kind: FaultFlip, Byte: 5, Mask: 0x40}})
		c.Write(0, 0, new1, CatData)
		got := c.PeekRead(0)
		want := new1
		want[5] ^= 0x40
		if got != want {
			t.Fatalf("flip result = %x, want %x", got, want)
		}
	})

	t.Run("cut suppresses this and all later writes", func(t *testing.T) {
		c := NewController(DefaultConfig())
		c.Write(0, 0, old, CatData)
		c.Write(0, 64, old, CatData)
		c.SetFaultInjector(&scriptInjector{at: 0, fault: Fault{Kind: FaultCut}})
		c.Write(0, 0, new1, CatData)
		c.Write(0, 64, new2, CatData)
		if got := c.PeekRead(0); got != old {
			t.Fatalf("cut write 0 landed: got %x", got[0])
		}
		if got := c.PeekRead(64); got != old {
			t.Fatalf("post-cut write landed: got %x", got[0])
		}
	})

	t.Run("nil injector and FaultNone are transparent", func(t *testing.T) {
		c := NewController(DefaultConfig())
		c.Write(0, 0, old, CatData)
		inj := &scriptInjector{at: 99} // never fires
		c.SetFaultInjector(inj)
		c.Write(0, 0, new1, CatData)
		c.SetFaultInjector(nil)
		c.Write(0, 64, new2, CatData)
		if c.PeekRead(0) != new1 || c.PeekRead(64) != new2 {
			t.Fatal("fault-free writes did not commit")
		}
	})
}

func TestMarkStageForwarding(t *testing.T) {
	c := NewController(DefaultConfig())
	c.MarkStage("ignored-without-injector") // no-op, must not panic
	inj := &scriptInjector{at: 99}
	c.SetFaultInjector(inj)
	c.MarkStage("drain:blocks")
	c.MarkStage("drain:meta-flush")
	if len(inj.stages) != 2 || inj.stages[0] != "drain:blocks" || inj.stages[1] != "drain:meta-flush" {
		t.Fatalf("stages = %v", inj.stages)
	}
}

func TestControllerMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewController(DefaultConfig())
	c.Attach(probe.Probe{Metrics: reg}, "scheme", "test")
	c.Write(0, 0, Block{}, CatData)
	c.Write(0, 64, Block{}, CatCounter)
	c.Read(0, 0, CatData)
	if got := reg.Counter("horus_mem_writes_total", "category", "data", "scheme", "test").Value(); got != 1 {
		t.Errorf("data write counter = %d, want 1", got)
	}
	if got := reg.Counter("horus_mem_reads_total", "category", "data", "scheme", "test").Value(); got != 1 {
		t.Errorf("data read counter = %d, want 1", got)
	}
	if got := reg.Histogram("horus_mem_bank_wait_ps", nil, "scheme", "test").Count(); got != 3 {
		t.Errorf("bank wait observations = %d, want 3", got)
	}
	c.PublishMetrics("drain", c.LastDone())
	found := false
	for i := 0; i < c.Config().Banks; i++ {
		g := reg.Gauge("horus_mem_bank_utilization", "bank", strconv.Itoa(i), "phase", "drain", "scheme", "test")
		if g.Value() > 0 {
			found = true
		}
	}
	if !found {
		t.Error("no bank reported positive utilization after PublishMetrics")
	}
	// Detaching stops recording without touching prior series.
	c.Attach(probe.Probe{})
	c.Write(0, 128, Block{}, CatData)
	if got := reg.Counter("horus_mem_writes_total", "category", "data", "scheme", "test").Value(); got != 1 {
		t.Errorf("detached controller still recorded: %d", got)
	}
}

// Property: any sequence of writes followed by reads at the same addresses
// returns the last written values (functional memory consistency).
func TestControllerWriteReadProperty(t *testing.T) {
	f := func(addrs []uint16, vals []byte) bool {
		c := NewController(Config{Banks: 4, ReadLatency: 1, WriteLatency: 1, BusSlot: 1})
		want := make(map[uint64]byte)
		n := len(addrs)
		if len(vals) < n {
			n = len(vals)
		}
		var now sim.Time
		for i := 0; i < n; i++ {
			a := uint64(addrs[i]) * BlockSize
			now = c.Write(now, a, Block{0: vals[i]}, CatData)
			want[a] = vals[i]
		}
		for a, v := range want {
			got, done := c.Read(now, a, CatData)
			now = done
			if got[0] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestControllerWearThroughFusedEntries pins that the store's dense wear
// array reproduces the former separate wear table: timed writes wear,
// functional WriteBlock writes do not, resets preserve wear, and the stats
// filter zero-wear entries out of UniqueBlocks.
func TestControllerWearThroughFusedEntries(t *testing.T) {
	c := NewController(DefaultConfig())
	var b Block
	b[0] = 0xAB
	c.Write(0, 0, b, CatData)
	c.Write(0, 0, b, CatData)
	c.Write(0, 64, b, CatData)
	c.Store().WriteBlock(128, b) // functional write: populated but no wear

	if got := c.WearOf(0); got != 2 {
		t.Fatalf("WearOf(0) = %d, want 2", got)
	}
	ws := c.WearStats()
	if ws.UniqueBlocks != 2 {
		t.Fatalf("UniqueBlocks = %d, want 2 (functional writes must not count)", ws.UniqueBlocks)
	}
	if ws.TotalWrites != 3 || ws.MaxWrites != 2 || ws.HotAddr != 0 {
		t.Fatalf("WearStats = %+v, want total 3, max 2 at 0", ws)
	}
	c.ResetStats()
	if got := c.WearOf(0); got != 2 {
		t.Fatalf("wear reset by ResetStats: WearOf(0) = %d, want 2", got)
	}
	if c.Store().Populated() != 3 {
		t.Fatalf("Populated = %d, want 3", c.Store().Populated())
	}
}

// TestBankOfExportedMatchesController pins that the exported partitioning
// fold and the controller's internal bank routing agree — the property any
// caller partitioning blocks by bank relies on.
func TestBankOfExportedMatchesController(t *testing.T) {
	c := NewController(DefaultConfig())
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 4096; i++ {
		addr := uint64(rng.Intn(1<<20)) * BlockSize
		if c.BankOf(addr) != BankOf(addr, c.Banks()) {
			t.Fatalf("Controller.BankOf(%#x) != BankOf(addr, %d)", addr, c.Banks())
		}
	}
}
