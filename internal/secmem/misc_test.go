package secmem

import (
	"runtime"
	"testing"

	"repro/internal/bmt"
	"repro/internal/cme"
	"repro/internal/mem"
)

func TestControllerAccessors(t *testing.T) {
	c, _, _ := testSystem(t, EagerUpdate)
	if c.Scheme() != EagerUpdate {
		t.Error("Scheme accessor wrong")
	}
	if c.OsirisPersists() != 0 {
		t.Error("fresh controller reports osiris persists")
	}
	// The drain path drives the crypto engines through the exported hooks.
	d1 := c.IssueAES(0)
	d2 := c.IssueMAC(d1, "chv-data-mac")
	if d2 <= d1 || c.AESOps() != 1 || c.MACCalcs().Get("chv-data-mac") != 1 {
		t.Error("exported engine hooks not accounted")
	}
	c.ResetStats()
	if c.AESOps() != 0 || c.MACCalcs().Total() != 0 || c.EnginesLastDone() != 0 {
		t.Error("ResetStats incomplete")
	}
	if c.LevelFetches().Total() != 0 {
		t.Error("level fetches survived reset")
	}
}

func TestRestoreRoot(t *testing.T) {
	c, _, _ := testSystem(t, LazyUpdate)
	want := mem.Block{0: 0xAB, 63: 0xCD}
	c.RestoreRoot(want)
	if c.RootRegister() != want {
		t.Error("RestoreRoot did not take effect")
	}
}

func TestVaultParityLayoutMath(t *testing.T) {
	if vaultPayloadBlocks(0) != 0 {
		t.Error("empty vault payload")
	}
	if vaultPayloadBlocks(8) != 9 { // 8 lines + 1 address block
		t.Errorf("payload(8) = %d", vaultPayloadBlocks(8))
	}
	p, g := vaultParityLayout(16) // 16+2 = 18 payload -> 3 groups
	if p != 18 || g != 3 {
		t.Errorf("layout(16) = (%d,%d), want (18,3)", p, g)
	}
}

func TestParityFlushWritesExtraBlocks(t *testing.T) {
	lay, nvm := newLayoutAndNVM()
	cfg := DefaultConfig()
	cfg.Scheme = LazyUpdate
	cfg.CounterCacheBytes = 8 << 10
	cfg.MACCacheBytes = 8 << 10
	cfg.TreeCacheBytes = 8 << 10
	cfg.VaultParity = true
	c := New(cfg, lay, newEngine(), nvm)
	if _, err := c.WriteBlock(0, 0, mem.Block{0: 1}); err != nil {
		t.Fatal(err)
	}
	rec, _ := c.FlushMetadataCaches(0)
	if !rec.Parity {
		t.Fatal("parity flag missing")
	}
	payload, groups := vaultParityLayout(rec.Count)
	// Leaf-MAC and parity blocks must be present past the payload.
	macBlk := nvm.PeekRead(lay.VaultAddr(uint64(payload)))
	if macBlk.IsZero() {
		t.Error("leaf-MAC block missing")
	}
	parityBlk := nvm.PeekRead(lay.VaultAddr(uint64(payload + groups)))
	if parityBlk.IsZero() {
		t.Error("parity block missing")
	}
	// Parity of group 0 must equal the XOR of its payload blocks.
	var want mem.Block
	for i := 0; i < 8 && i < payload; i++ {
		b := nvm.PeekRead(lay.VaultAddr(uint64(i)))
		for k := range want {
			want[k] ^= b[k]
		}
	}
	if parityBlk != want {
		t.Error("parity block is not the group XOR")
	}
}

// Helpers shared by the misc tests.
func newLayoutAndNVM() (*bmt.Layout, *mem.Controller) {
	lay := bmt.NewLayout(bmt.Config{DataSize: 64 << 20, CHVCapacity: 1024, VaultBlocks: 20000})
	return lay, mem.NewController(mem.DefaultConfig())
}

func newEngine() *cme.Engine { return cme.NewEngine(99) }

// TestControllerNewByteBudget gates the bytes secmem.New allocates at
// DefaultConfig (Table I's 256/512/256 KB metadata caches) and at the 8/16/8
// KB caches of the root package's TestConfig. Almost all of it is the three
// caches' line arrays, 24 bytes a way; dirty-line content is allocated on
// demand, so a crash-oracle machine that dirties a handful of lines pays
// for a handful. Content allocated per way up front (64 bytes a way) would
// add 1 MiB at DefaultConfig and fail this gate.
//
// The ceilings are the bytes measured with go1.24 on linux/amd64 plus 10%,
// rounded down: 394,480 (DefaultConfig) and 13,552 (TestConfig caches),
// the same with -race.
func TestControllerNewByteBudget(t *testing.T) {
	small := DefaultConfig()
	small.CounterCacheBytes, small.MACCacheBytes, small.TreeCacheBytes = 8<<10, 16<<10, 8<<10
	lay := bmt.NewLayout(bmt.Config{DataSize: 64 << 20, CHVCapacity: 1024, VaultBlocks: 20000})
	eng, nvm := cme.NewEngine(99), mem.NewController(mem.DefaultConfig())
	for _, tc := range []struct {
		name    string
		cfg     Config
		ceiling uint64
	}{
		{"DefaultConfig", DefaultConfig(), 433_928},
		{"TestConfig caches", small, 14_907},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		New(tc.cfg, lay, eng, nvm)
		runtime.ReadMemStats(&after)
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: New allocates %d bytes", tc.name, got)
		if got > tc.ceiling {
			t.Errorf("%s: New allocates %d bytes, budget %d", tc.name, got, tc.ceiling)
		}
	}
}
