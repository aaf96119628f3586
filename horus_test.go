package horus

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"

	"repro/internal/energy"
	"repro/internal/hierarchy"
)

func TestDefaultConfigMatchesTableI(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.DataSize != 32<<30 {
		t.Error("data size must be 32GB")
	}
	h := cfg.hierarchyConfig()
	if h.TotalLines() != 295936 {
		t.Errorf("Table I hierarchy lines = %d, want 295936", h.TotalLines())
	}
	if cfg.Sec.CounterCacheBytes != 256<<10 || cfg.Sec.MACCacheBytes != 512<<10 || cfg.Sec.TreeCacheBytes != 256<<10 {
		t.Error("metadata cache sizes must match Table I")
	}
	if cfg.Sec.AESCycles != 40 || cfg.Sec.MACCycles != 160 {
		t.Error("crypto latencies must match Table I")
	}
}

func TestRunDrainAllSchemesTestScale(t *testing.T) {
	cfg := TestConfig()
	for _, s := range AllSchemes() {
		res, err := RunDrain(cfg, s)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if res.BlocksDrained != cfg.hierarchyConfig().TotalLines() {
			t.Errorf("%v drained %d blocks", s, res.BlocksDrained)
		}
		if res.DrainTime <= 0 {
			t.Errorf("%v drain time not positive", s)
		}
	}
}

func TestDrainBeforeFillFails(t *testing.T) {
	sys := NewSystem(TestConfig(), NonSecure)
	if _, err := sys.Drain(); err == nil {
		t.Error("Drain before Fill must fail")
	}
}

func TestWarmupLeavesMetadataResidue(t *testing.T) {
	cfg := TestConfig()
	sys := NewSystem(cfg, HorusSLM)
	if err := sys.Warmup(); err != nil {
		t.Fatal(err)
	}
	if sys.Core.Sec.DirtyMetadataLines() == 0 {
		t.Error("warmup left no dirty metadata")
	}
	// The drain must then flush that residue (Fig. 12 metadata-flush bar).
	sys.Fill()
	res, err := sys.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if res.MemWrites.Get("meta-flush") == 0 {
		t.Error("metadata residue was not flushed")
	}
	if res.Persist.Vault.Count == 0 {
		t.Error("vault record empty despite residue")
	}
}

func TestEndToEndRecoveryBothHorusSchemes(t *testing.T) {
	cfg := TestConfig()
	for _, s := range []Scheme{HorusSLM, HorusDLM} {
		sys := NewSystem(cfg, s)
		if err := sys.Warmup(); err != nil {
			t.Fatal(err)
		}
		sys.Fill()
		golden := sys.Hierarchy.Golden()
		res, err := sys.Drain()
		if err != nil {
			t.Fatal(err)
		}
		sys.Crash()
		rec, err := sys.Recover(res.Persist)
		if err != nil {
			t.Fatalf("%v recovery: %v", s, err)
		}
		if rec.Horus == nil {
			t.Fatal("expected Horus recovery report")
		}
		if rec.Time() <= 0 {
			t.Error("recovery time not positive")
		}
		// The hierarchy must hold exactly the pre-crash dirty content.
		if sys.Hierarchy.DirtyCount() != len(golden) {
			t.Fatalf("%v: hierarchy has %d blocks, want %d", s, sys.Hierarchy.DirtyCount(), len(golden))
		}
		for addr, want := range golden {
			got, ok := sys.Hierarchy.Read(addr)
			if !ok || got != want {
				t.Fatalf("%v: block %#x wrong after recovery", s, addr)
			}
		}
	}
}

func TestEndToEndBaselineRecovery(t *testing.T) {
	cfg := TestConfig()
	res, rec, err := RunRecovery(cfg, BaseLU)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Baseline == nil {
		t.Fatal("expected baseline recovery report")
	}
	if rec.Baseline.LinesRestored != res.Persist.Vault.Count {
		t.Error("line count mismatch")
	}
}

func TestRecoveryDetectsTamperThroughFacade(t *testing.T) {
	cfg := TestConfig()
	sys := NewSystem(cfg, HorusSLM)
	sys.Fill()
	res, err := sys.Drain()
	if err != nil {
		t.Fatal(err)
	}
	sys.Crash()
	sys.Core.NVM.Store().CorruptByte(sys.Core.Layout.CHVDataAddr(0), 0, 0x01)
	_, err = sys.Recover(res.Persist)
	var re *RecoveryError
	if !errors.As(err, &re) {
		t.Fatalf("tampered CHV recovered: %v", err)
	}
}

func TestNonSecureRecoveryIsNoOp(t *testing.T) {
	cfg := TestConfig()
	res, rec, err := RunRecovery(cfg, NonSecure)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Horus != nil || rec.Baseline != nil || rec.Time() != 0 {
		t.Error("non-secure recovery must be a no-op")
	}
	_ = res
}

// testDrainSet drains every scheme once at test scale: the one set the
// paper's figures and tables are views of.
func testDrainSet(t *testing.T) *DrainSet {
	t.Helper()
	ds, err := RunDrainSet(context.Background(), TestConfig(), AllSchemes(), SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestShapeAtTestScale(t *testing.T) {
	// The paper's qualitative ordering must hold even at test scale.
	ds := testDrainSet(t)
	ns, lu, eu := ds.Results[NonSecure], ds.Results[BaseLU], ds.Results[BaseEU]
	slm, dlm := ds.Results[HorusSLM], ds.Results[HorusDLM]

	if lu.TotalMemAccesses() < 4*ns.TotalMemAccesses() {
		t.Error("Base-LU should blow up memory accesses on the worst-case fill")
	}
	if slm.TotalMemAccesses() > 2*ns.TotalMemAccesses() {
		t.Error("Horus-SLM should stay near the non-secure access count")
	}
	if eu.TotalMACs() <= lu.TotalMACs() {
		t.Error("eager baseline should need the most MACs")
	}
	if dlm.MemWrites.Get("chv-mac") >= slm.MemWrites.Get("chv-mac") {
		t.Error("DLM must write fewer CHV MAC blocks")
	}
	if !(ns.DrainTime < slm.DrainTime && slm.DrainTime < lu.DrainTime) {
		t.Errorf("drain-time ordering broken: ns=%v slm=%v lu=%v",
			ns.DrainTime, slm.DrainTime, lu.DrainTime)
	}
}

func TestExperimentTablesRender(t *testing.T) {
	ds := testDrainSet(t)
	f6 := ds.Fig6()
	if !slices.Equal(f6.Set.Schemes, Fig6Schemes()) || f6.Blocks != ds.Results[NonSecure].BlocksDrained {
		t.Errorf("Fig6 view: schemes %v, %d blocks; want %v, %d", f6.Set.Schemes, f6.Blocks,
			Fig6Schemes(), ds.Results[NonSecure].BlocksDrained)
	}
	if out := f6.Table().String(); !strings.Contains(out, "Base-LU") {
		t.Error("Fig6 table missing rows")
	}
	if f6.Ratio(BaseLU) <= f6.Ratio(NonSecure) {
		t.Error("Fig6 ratios inverted")
	}

	f11 := Fig11{Set: ds}
	if f11.VsHorus(BaseLU) <= 1 {
		t.Error("Fig11: Base-LU must be slower than Horus")
	}
	for _, s := range AllSchemes() {
		if f11.Normalized(s) <= 0 {
			t.Errorf("Fig11 normalized %v not positive", s)
		}
	}
	_ = f11.Table().String()

	if out := (Fig12{Set: ds}).Table().String(); !strings.Contains(out, "chv-data") {
		t.Error("Fig12 table missing CHV category")
	}
	if out := (Fig13{Set: ds}).Table().String(); !strings.Contains(out, "chv-data-mac") {
		t.Error("Fig13 table missing CHV MAC category")
	}
}

func TestLLCSweepAndFig16TestScale(t *testing.T) {
	cfg := TestConfig()
	// Sweep scaled-down "LLC sizes" via explicit hierarchies.
	sizes := []int{128 << 10, 256 << 10}
	var sweep LLCSweep
	sweep.Config = cfg
	for _, size := range sizes {
		c := cfg
		c.Hierarchy = &hierarchy.Config{Levels: []hierarchy.LevelConfig{
			{Name: "L1", SizeBytes: 2 << 10, Ways: 2},
			{Name: "L2", SizeBytes: 64 << 10, Ways: 8},
			{Name: "LLC", SizeBytes: size, Ways: 16},
		}}
		pt := SweepPoint{LLCBytes: size, Results: map[Scheme]Result{}}
		for _, s := range []Scheme{BaseLU, HorusSLM, HorusDLM} {
			res, err := RunDrain(c, s)
			if err != nil {
				t.Fatal(err)
			}
			pt.Results[s] = res
		}
		sweep.Points = append(sweep.Points, pt)
	}
	for i := range sweep.Points {
		slm := sweep.Normalized(i, HorusSLM, func(r Result) float64 { return float64(r.TotalMemAccesses()) })
		if slm >= 0.5 {
			t.Errorf("point %d: Horus-SLM normalized accesses = %.2f, want < 0.5", i, slm)
		}
	}
	_ = sweep.Fig14Table().String()
	_ = sweep.Fig15Table().String()

	f16, err := RunFig16(context.Background(), cfg, nil, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_ = f16
}

func TestFig16DefaultSizes(t *testing.T) {
	sizes := Fig16LLCSizes()
	if len(sizes) != 5 || sizes[0] != 8<<20 || sizes[4] != 128<<20 {
		t.Error("Fig16 sizes must span 8MB to 128MB")
	}
	if got := Fig14LLCSizes(); len(got) != 3 {
		t.Error("Fig14 sizes must be 8/16/32MB")
	}
}

func TestTables2And3TestScale(t *testing.T) {
	t3 := Table3{T2: testDrainSet(t).Table2()}
	// Energy ordering: baselines cost more than Horus.
	if t3.T2.Breakdown[BaseLU].Total() <= t3.T2.Breakdown[HorusSLM].Total() {
		t.Error("Base-LU energy must exceed Horus-SLM")
	}
	// Battery volumes scale with energy and density.
	vLU := t3.Volume(BaseLU, energy.SuperCap)
	vSLM := t3.Volume(HorusSLM, energy.SuperCap)
	if vLU <= vSLM {
		t.Error("Base-LU battery must be larger")
	}
	if t3.Volume(BaseLU, energy.LiThin) >= vLU {
		t.Error("Li-thin must be smaller than SuperCap")
	}
	_ = t3.Table().String()
	_ = t3.T2.Table().String()
}

func TestHeadlineTestScale(t *testing.T) {
	h := testDrainSet(t).Headline()
	if h.MemReduction < 3 || h.MACReduction < 3 || h.TimeReduction < 2 {
		t.Errorf("headline reductions too small: %+v", h)
	}
	if out := h.Table().String(); !strings.Contains(out, "memory requests") {
		t.Error("headline table missing rows")
	}
}

// Recovery timing must start on a fresh power-up clock: the vault restore
// must not queue behind the previous session's drain reservations.
func TestRecoveryStartsOnFreshClock(t *testing.T) {
	cfg := TestConfig()
	sys := NewSystem(cfg, HorusSLM)
	if err := sys.Warmup(); err != nil {
		t.Fatal(err)
	}
	sys.Fill()
	res, err := sys.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if res.Persist.Vault.Count == 0 {
		t.Fatal("no vault residue to restore")
	}
	sys.Crash()
	rec, err := sys.Recover(res.Persist)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Baseline == nil {
		t.Fatal("vault restore missing from report")
	}
	// The vault is ~500 lines; restoring it takes microseconds on a fresh
	// clock but would exceed the whole drain time if it queued behind the
	// drain's bank reservations.
	if rec.Baseline.RecoveryTime >= res.DrainTime {
		t.Errorf("vault restore (%v) queued behind the drain (%v): stale clock",
			rec.Baseline.RecoveryTime, res.DrainTime)
	}
}

// Results must be robust to the fill seed: the headline ratios are a
// property of the design, not of one lucky layout.
func TestSeedRobustness(t *testing.T) {
	var ratios []float64
	for _, seed := range []int64{1, 2, 3} {
		cfg := TestConfig()
		cfg.Seed = seed
		lu, err := RunDrain(cfg, BaseLU)
		if err != nil {
			t.Fatal(err)
		}
		slm, err := RunDrain(cfg, HorusSLM)
		if err != nil {
			t.Fatal(err)
		}
		ratios = append(ratios, float64(lu.TotalMemAccesses())/float64(slm.TotalMemAccesses()))
	}
	min, max := ratios[0], ratios[0]
	for _, r := range ratios {
		if r < min {
			min = r
		}
		if r > max {
			max = r
		}
	}
	if (max-min)/min > 0.10 {
		t.Errorf("headline ratio varies more than 10%% across seeds: %v", ratios)
	}
}

func TestDrainIsDeterministic(t *testing.T) {
	cfg := TestConfig()
	a, err := RunDrain(cfg, HorusDLM)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunDrain(cfg, HorusDLM)
	if err != nil {
		t.Fatal(err)
	}
	if a.DrainTime != b.DrainTime || a.TotalMemAccesses() != b.TotalMemAccesses() || a.TotalMACs() != b.TotalMACs() {
		t.Error("identical configs must produce identical results")
	}
}
