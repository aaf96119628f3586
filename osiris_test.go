package horus

import "testing"

// End-to-end Osiris path through the facade: run a workload with stop-loss
// counters, crash WITHOUT any vault flush, recover by scan+rebuild, and
// verify all in-place data.
func TestOsirisLifecycle(t *testing.T) {
	cfg := TestConfig()
	cfg.Sec.OsirisStopLoss = 4
	ws := NewWorkloadSystem(cfg, BaseLU, DomainADR) // ADR: persists flush data in place
	wl := KVStoreWorkload(WorkloadConfig{Ops: 3000, WorkingSet: 128 << 10, Seed: 13}, 4)
	if err := ws.Run(wl); err != nil {
		t.Fatal(err)
	}
	// Persisted (in-place) golden values: everything the machine flushed.
	// Force full durability with explicit persists of remaining dirty
	// lines via the machine's dirty snapshot.
	dirty := ws.Machine.DirtyBlocks()
	for _, b := range dirty {
		if err := ws.Machine.Persist(b.Addr); err != nil {
			t.Fatal(err)
		}
	}
	golden := map[uint64]Block{}
	for _, b := range dirty {
		golden[b.Addr] = b.Data
	}

	// Crash with NO drain and NO vault: volatile metadata is simply lost.
	ws.Crash()

	res, err := ws.RecoverWithOsiris()
	if err != nil {
		t.Fatalf("osiris recovery: %v", err)
	}
	if res.DataBlocksScanned == 0 {
		t.Fatal("nothing scanned")
	}
	for addr, want := range golden {
		got, _, err := ws.Core.Sec.ReadBlock(0, addr)
		if err != nil {
			t.Fatalf("post-osiris read %#x: %v", addr, err)
		}
		if got != want {
			t.Fatalf("post-osiris mismatch at %#x", addr)
		}
	}
}

func TestOsirisRequiresStopLoss(t *testing.T) {
	sys := NewSystem(TestConfig(), BaseLU)
	if _, err := sys.RecoverWithOsiris(); err == nil {
		t.Error("Osiris recovery accepted without stop-loss config")
	}
	ws := NewWorkloadSystem(TestConfig(), BaseLU, DomainADR)
	if _, err := ws.RecoverWithOsiris(); err == nil {
		t.Error("workload-system Osiris recovery accepted without stop-loss config")
	}
}
