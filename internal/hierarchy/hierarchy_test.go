package hierarchy

import (
	"math/rand"
	"testing"

	"repro/internal/mem"
)

func TestTableIGeometry(t *testing.T) {
	cfg := TableI()
	if got := cfg.TotalLines(); got != 295936 {
		t.Fatalf("Table I total lines = %d, want 295936 (paper Fig. 6)", got)
	}
	if len(cfg.Levels) != 3 {
		t.Fatal("Table I must have three levels")
	}
	if cfg.Levels[2].SizeBytes != 16<<20 || cfg.Levels[2].Ways != 16 {
		t.Error("LLC config wrong")
	}
}

func TestTableIWithLLCSweep(t *testing.T) {
	// Figs. 14-16 sweep the LLC size.
	for _, c := range []struct {
		llc  int
		want int
	}{
		{8 << 20, 131072 + 32768 + 1024},
		{16 << 20, 295936},
		{32 << 20, 524288 + 32768 + 1024},
		{128 << 20, 2097152 + 32768 + 1024},
	} {
		if got := TableIWithLLC(c.llc).TotalLines(); got != c.want {
			t.Errorf("LLC %dMB lines = %d, want %d", c.llc>>20, got, c.want)
		}
	}
}

func TestWriteReadAndCount(t *testing.T) {
	h := New(TableI())
	var b mem.Block
	b[0] = 0xAA
	h.Write(0x4000, b)
	got, ok := h.Read(0x4000)
	if !ok || got != b {
		t.Fatal("read-back failed")
	}
	if h.DirtyCount() != 1 {
		t.Error("dirty count wrong")
	}
	// Overwriting the same address must not grow the count.
	h.Write(0x4000, mem.Block{})
	if h.DirtyCount() != 1 {
		t.Error("duplicate write grew dirty count")
	}
}

func TestWriteUnalignedPanics(t *testing.T) {
	h := New(TableI())
	defer func() {
		if recover() == nil {
			t.Error("unaligned write did not panic")
		}
	}()
	h.Write(3, mem.Block{})
}

func TestCapacityEnforced(t *testing.T) {
	cfg := Config{Levels: []LevelConfig{{Name: "tiny", SizeBytes: 2 * 64, Ways: 1}}}
	h := New(cfg)
	h.Write(0, mem.Block{})
	h.Write(64, mem.Block{})
	defer func() {
		if recover() == nil {
			t.Error("over-capacity write did not panic")
		}
	}()
	h.Write(128, mem.Block{})
}

func TestFillWorstCaseSparse(t *testing.T) {
	cfg := TableIWithLLC(1 << 20) // small for test speed: 16384+32768+1024
	h := New(cfg)
	n := h.FillAllDirty(FillOptions{Pattern: PatternWorstCaseSparse, DataSize: 32 << 30, Seed: 1})
	if n != cfg.TotalLines() {
		t.Fatalf("filled %d, want %d", n, cfg.TotalLines())
	}
	if h.DirtyCount() != n {
		t.Fatalf("dirty count %d, want %d", h.DirtyCount(), n)
	}
	// Every address must be 16KB-slot aligned and distinct, guaranteeing
	// pairwise distance >= 16KB (the paper's worst case).
	seen := make(map[uint64]bool)
	for _, db := range h.DirtyBlocks() {
		if db.Addr%SparseSlotBytes != 0 {
			t.Fatalf("address %#x not on a 16KB slot", db.Addr)
		}
		if seen[db.Addr] {
			t.Fatalf("duplicate address %#x", db.Addr)
		}
		if db.Addr >= 32<<30 {
			t.Fatalf("address %#x outside data region", db.Addr)
		}
		seen[db.Addr] = true
	}
}

func TestFillDense(t *testing.T) {
	cfg := Config{Levels: []LevelConfig{{Name: "c", SizeBytes: 64 * 64, Ways: 1}}}
	h := New(cfg)
	h.FillAllDirty(FillOptions{Pattern: PatternDense, DataSize: 1 << 20, Seed: 1})
	blocks := h.DirtyBlocks()
	for i, db := range blocks {
		if db.Addr != uint64(i)*mem.BlockSize {
			t.Fatalf("dense block %d at %#x", i, db.Addr)
		}
	}
}

func TestFillStride(t *testing.T) {
	cfg := Config{Levels: []LevelConfig{{Name: "c", SizeBytes: 16 * 64, Ways: 1}}}
	h := New(cfg)
	h.FillAllDirty(FillOptions{Pattern: PatternStride, Stride: 4096, DataSize: 1 << 20, Seed: 1})
	for i, db := range h.DirtyBlocks() {
		if db.Addr != uint64(i)*4096 {
			t.Fatalf("strided block %d at %#x", i, db.Addr)
		}
	}
}

func TestFillDeterministicBySeed(t *testing.T) {
	mk := func(seed int64) []DirtyBlock {
		h := New(TableIWithLLC(1 << 20))
		h.FillAllDirty(FillOptions{Pattern: PatternWorstCaseSparse, DataSize: 32 << 30, Seed: seed})
		return h.DirtyBlocks()
	}
	a, b := mk(7), mk(7)
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i].Addr != b[i].Addr || a[i].Data != b[i].Data {
			t.Fatal("same seed produced different fills")
		}
	}
	c := mk(8)
	same := true
	for i := range a {
		if a[i].Addr != c[i].Addr {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical address sequences")
	}
}

func TestFillPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"non-empty": func() {
			h := New(TableI())
			h.Write(0, mem.Block{})
			h.FillAllDirty(FillOptions{Pattern: PatternDense, DataSize: 32 << 30})
		},
		"sparse too small": func() {
			h := New(TableI())
			h.FillAllDirty(FillOptions{Pattern: PatternWorstCaseSparse, DataSize: 1 << 20})
		},
		"bad stride": func() {
			h := New(TableIWithLLC(1 << 20))
			h.FillAllDirty(FillOptions{Pattern: PatternStride, Stride: 7, DataSize: 32 << 30})
		},
		"unknown pattern": func() {
			h := New(TableIWithLLC(1 << 20))
			h.FillAllDirty(FillOptions{Pattern: FillPattern(99), DataSize: 32 << 30})
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestGoldenSnapshot(t *testing.T) {
	h := New(TableI())
	h.Write(0, mem.Block{0: 1})
	g := h.Golden()
	h.Write(0, mem.Block{0: 2})
	if g[0][0] != 1 {
		t.Error("golden snapshot mutated by later write")
	}
	h.Clear()
	if h.DirtyCount() != 0 {
		t.Error("Clear left dirty blocks")
	}
}

func TestNewEmptyConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("empty config did not panic")
		}
	}()
	New(Config{})
}

// refModel is the hierarchy as it was kept before the dense table: a Go map
// of contents plus an insertion-order list.
type refModel struct {
	data  map[uint64]mem.Block
	order []uint64
}

func (m *refModel) write(addr uint64, b mem.Block) {
	if _, ok := m.data[addr]; !ok {
		m.order = append(m.order, addr)
	}
	m.data[addr] = b
}

func (m *refModel) clear() { m.data, m.order = map[uint64]mem.Block{}, nil }

// TestHierarchyMatchesReferenceModel drives the hierarchy and the map+order
// model through random writes (new and overwriting), reads, clears,
// recovery-style refills and the capacity panic, and compares every view
// (Read, DirtyCount, DirtyBlocks, Golden) after each step. The address pool
// is larger than the capacity, so the full hierarchy is hit often; a refused
// write must leave the hierarchy unchanged.
func TestHierarchyMatchesReferenceModel(t *testing.T) {
	const lines = 48
	h := New(Config{Levels: []LevelConfig{{Name: "c", SizeBytes: lines * mem.BlockSize, Ways: 4}}})
	ref := &refModel{}
	ref.clear()
	rng := rand.New(rand.NewSource(5))
	pool := make([]uint64, 96)
	for i := range pool {
		pool[i] = uint64(rng.Intn(1<<16)) * mem.BlockSize
	}
	block := func() mem.Block { return mem.Block{0: byte(rng.Intn(256)), 63: byte(rng.Intn(256))} }
	panics, refills := 0, 0
	for step := 0; step < 20000; step++ {
		switch op := rng.Intn(100); {
		case op < 60:
			addr, b := pool[rng.Intn(len(pool))], block()
			_, present := ref.data[addr]
			full := !present && len(ref.order) == lines
			panicked := func() (p bool) {
				defer func() { p = recover() != nil }()
				h.Write(addr, b)
				return false
			}()
			if panicked != full {
				t.Fatalf("step %d: Write(%#x) panicked=%v, want %v", step, addr, panicked, full)
			}
			if full {
				panics++
			} else {
				ref.write(addr, b)
			}
		case op < 80:
			addr := pool[rng.Intn(len(pool))]
			got, ok := h.Read(addr)
			want, wok := ref.data[addr]
			if ok != wok || got != want {
				t.Fatalf("step %d: Read(%#x) = (%v, %v), want (%v, %v)", step, addr, got, ok, want, wok)
			}
		case op < 97:
			// Observe only: the views are compared after every step below.
		case op < 99:
			// Crash and recovery refill: clear, then reinstall the drained
			// blocks after reserving their footprint.
			drained := append([]DirtyBlock(nil), h.DirtyBlocks()...)
			h.Clear()
			ref.clear()
			if rng.Intn(2) == 0 {
				h.Reserve(len(drained))
				for _, db := range drained {
					h.Write(db.Addr, db.Data)
					ref.write(db.Addr, db.Data)
				}
				refills++
			}
		default:
			h.Clear()
			ref.clear()
		}
		if h.DirtyCount() != len(ref.order) {
			t.Fatalf("step %d: DirtyCount = %d, want %d", step, h.DirtyCount(), len(ref.order))
		}
		blocks := h.DirtyBlocks()
		if len(blocks) != len(ref.order) || cap(blocks) != len(blocks) {
			t.Fatalf("step %d: DirtyBlocks len %d cap %d, want len %d capped", step, len(blocks), cap(blocks), len(ref.order))
		}
		for i, a := range ref.order {
			if blocks[i].Addr != a || blocks[i].Data != ref.data[a] {
				t.Fatalf("step %d: DirtyBlocks[%d] = %#x, want %#x in insertion order", step, i, blocks[i].Addr, a)
			}
		}
		if step%50 == 0 {
			g := h.Golden()
			if len(g) != len(ref.data) {
				t.Fatalf("step %d: Golden has %d blocks, want %d", step, len(g), len(ref.data))
			}
			for a, b := range ref.data {
				if g[a] != b {
					t.Fatalf("step %d: Golden[%#x] wrong", step, a)
				}
			}
		}
	}
	if panics == 0 || refills == 0 {
		t.Fatalf("weak run: %d capacity panics, %d refills", panics, refills)
	}
}

// TestDirtyBlocksIsReadOnlyView pins the no-copy contract: appending to the
// returned slice never writes into the hierarchy, and Clear leaves a slice
// taken earlier intact.
func TestDirtyBlocksIsReadOnlyView(t *testing.T) {
	h := New(TableIWithLLC(1 << 20))
	h.Reserve(4)
	h.Write(0, mem.Block{0: 1})
	h.Write(64, mem.Block{0: 2})
	blocks := h.DirtyBlocks()
	_ = append(blocks, DirtyBlock{Addr: 128})
	h.Write(192, mem.Block{0: 3})
	if got := h.DirtyBlocks(); len(got) != 3 || got[2].Addr != 192 {
		t.Fatalf("append to DirtyBlocks leaked into the hierarchy: %+v", got)
	}
	h.Clear()
	if blocks[0].Data[0] != 1 || blocks[1].Data[0] != 2 {
		t.Fatal("Clear overwrote a previously returned slice")
	}
}
