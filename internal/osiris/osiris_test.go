package osiris

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/bmt"
	"repro/internal/cme"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/secmem"
	"repro/internal/sim"
)

const stopLoss = 4

func osirisSystem(t testing.TB) *core.System {
	t.Helper()
	lay := bmt.NewLayout(bmt.Config{DataSize: 64 << 20, CHVCapacity: 1024, VaultBlocks: 20000})
	nvm := mem.NewController(mem.DefaultConfig())
	scfg := secmem.DefaultConfig()
	scfg.CounterCacheBytes = 8 << 10
	scfg.MACCacheBytes = 16 << 10
	scfg.TreeCacheBytes = 8 << 10
	scfg.OsirisStopLoss = stopLoss
	enc := cme.NewEngine(31)
	sec := secmem.New(scfg, lay, enc, nvm)
	return &core.System{Layout: lay, Enc: enc, NVM: nvm, Sec: sec}
}

// write drives the run-time path.
func write(t *testing.T, sys *core.System, now sim.Time, addr uint64, b mem.Block) sim.Time {
	t.Helper()
	done, err := sys.Sec.WriteBlock(now, addr, b)
	if err != nil {
		t.Fatalf("write %#x: %v", addr, err)
	}
	return done
}

func TestStopLossBoundsCounterLag(t *testing.T) {
	sys := osirisSystem(t)
	var now sim.Time
	addr := uint64(0x4000)
	for i := 0; i < 11; i++ { // true counter = 11; last persist at 8
		now = write(t, sys, now, addr, mem.Block{0: byte(i)})
	}
	if sys.Sec.OsirisPersists() == 0 {
		t.Fatal("stop-loss never persisted the counter block")
	}
	persisted := cme.DecodeCounterBlock(sys.NVM.PeekRead(sys.Layout.CounterBlockAddr(addr)))
	lag := 11 - int(persisted.Counter(cme.CounterIndex(addr)))
	if lag < 0 || lag >= stopLoss {
		t.Fatalf("persisted counter lag = %d, want in [0,%d)", lag, stopLoss)
	}
}

func TestRecoverAfterCrash(t *testing.T) {
	sys := osirisSystem(t)
	rng := rand.New(rand.NewSource(3))
	golden := make(map[uint64]mem.Block)
	var now sim.Time
	for i := 0; i < 400; i++ {
		// Revisit a small set of addresses so counters advance past the
		// stop-loss several times.
		addr := uint64(rng.Intn(50)) * 4096
		b := mem.Block{0: byte(i), 1: byte(i >> 8)}
		now = write(t, sys, now, addr, b)
		golden[addr] = b
	}
	sys.Sec.Crash() // no vault flush: Osiris does not need one

	res, err := Recover(sys, stopLoss, "base-lu")
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if res.DataBlocksScanned == 0 || res.CandidateTrials == 0 {
		t.Error("recovery did no work")
	}
	if res.CountersAdvanced == 0 {
		t.Error("no counter needed advancing; stop-loss path untested")
	}
	if res.TreeNodesRebuilt == 0 {
		t.Error("tree not rebuilt")
	}
	if res.RecoveryTime <= 0 {
		t.Error("no recovery time accounted")
	}

	// Every block must now verify and decrypt through the normal path.
	for addr, want := range golden {
		got, done, err := sys.Sec.ReadBlock(now, addr)
		if err != nil {
			t.Fatalf("post-recovery read %#x: %v", addr, err)
		}
		now = done
		if got != want {
			t.Fatalf("post-recovery mismatch at %#x", addr)
		}
	}
}

func TestRecoverDetectsTamperedData(t *testing.T) {
	sys := osirisSystem(t)
	var now sim.Time
	addr := uint64(0x8000)
	now = write(t, sys, now, addr, mem.Block{0: 1})
	_ = now
	sys.Sec.Crash()
	sys.NVM.Store().CorruptByte(addr, 0, 0x01)
	_, err := Recover(sys, stopLoss, "base-lu")
	var oe *Error
	if !errors.As(err, &oe) {
		t.Fatalf("tampered data recovered: %v", err)
	}
	if oe.Addr != addr {
		t.Errorf("error at %#x, want %#x", oe.Addr, addr)
	}
}

func TestRecoverDetectsCounterRolledPastStopLoss(t *testing.T) {
	sys := osirisSystem(t)
	var now sim.Time
	addr := uint64(0x8000)
	for i := 0; i < 9; i++ {
		now = write(t, sys, now, addr, mem.Block{0: byte(i)})
	}
	_ = now
	sys.Sec.Crash()
	// Roll the persisted counter back below the stop-loss window (attack
	// or corruption): no candidate can verify.
	ctrAddr := sys.Layout.CounterBlockAddr(addr)
	cb := cme.DecodeCounterBlock(sys.NVM.PeekRead(ctrAddr))
	cb.Minors[cme.CounterIndex(addr)] = 0
	sys.NVM.Store().WriteBlock(ctrAddr, cb.Encode())
	if _, err := Recover(sys, stopLoss, "base-lu"); err == nil {
		t.Fatal("rolled-back counter recovered")
	}
}

func TestRecoverEmptyMemory(t *testing.T) {
	sys := osirisSystem(t)
	res, err := Recover(sys, stopLoss, "base-lu")
	if err != nil {
		t.Fatal(err)
	}
	if res.DataBlocksScanned != 0 {
		t.Error("scanned blocks in empty memory")
	}
}

func TestRecoverRejectsBadStopLoss(t *testing.T) {
	sys := osirisSystem(t)
	if _, err := Recover(sys, 0, "base-lu"); err == nil {
		t.Error("stop-loss 0 accepted")
	}
}

func TestWriteThroughMACsAreDurable(t *testing.T) {
	sys := osirisSystem(t)
	var now sim.Time
	addr := uint64(0x1000)
	now = write(t, sys, now, addr, mem.Block{0: 0x42})
	_ = now
	// The MAC block must already be in NVM (co-located with data).
	macBlk := sys.NVM.PeekRead(sys.Layout.MACBlockAddr(addr))
	if macBlk.IsZero() {
		t.Fatal("MAC block not written through")
	}
}

func TestRecoverySurvivesMinorOverflow(t *testing.T) {
	sys := osirisSystem(t)
	var now sim.Time
	hot := uint64(0)
	neighbour := uint64(64)
	now = write(t, sys, now, neighbour, mem.Block{0: 0x55})
	for i := 0; i < cme.MinorLimit+5; i++ { // crosses the overflow
		now = write(t, sys, now, hot, mem.Block{0: byte(i)})
	}
	sys.Sec.Crash()
	if _, err := Recover(sys, stopLoss, "base-lu"); err != nil {
		t.Fatalf("recovery after overflow: %v", err)
	}
	got, _, err := sys.Sec.ReadBlock(now, neighbour)
	if err != nil || got != (mem.Block{0: 0x55}) {
		t.Fatalf("neighbour wrong after overflow recovery: %v", err)
	}
	got, _, err = sys.Sec.ReadBlock(now, hot)
	if err != nil || got[0] != byte(cme.MinorLimit+4) {
		t.Fatalf("hot block wrong after overflow recovery: %v", err)
	}
}
