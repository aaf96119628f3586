package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bmt"
	"repro/internal/cme"
	"repro/internal/hierarchy"
	"repro/internal/mem"
	"repro/internal/secmem"
)

// testHierarchyConfig is a miniature three-level hierarchy (16KB/64KB/256KB
// = 5376 lines) so tests run fast while still exercising every path.
func testHierarchyConfig() hierarchy.Config {
	return hierarchy.Config{Levels: []hierarchy.LevelConfig{
		{Name: "L1", SizeBytes: 16 << 10, Ways: 2},
		{Name: "L2", SizeBytes: 64 << 10, Ways: 8},
		{Name: "LLC", SizeBytes: 256 << 10, Ways: 16},
	}}
}

// buildSystem returns a system sized for the test hierarchy.
func buildSystem(t testing.TB, scheme Scheme) (*System, *hierarchy.Hierarchy) {
	t.Helper()
	hcfg := testHierarchyConfig()
	h := hierarchy.New(hcfg)
	lay := bmt.NewLayout(bmt.Config{
		DataSize:    256 << 20, // 16KB slots x 5376 lines fit easily
		CHVCapacity: uint64(hcfg.TotalLines()) + 64,
		VaultBlocks: 40000,
	})
	nvm := mem.NewController(mem.DefaultConfig())
	enc := cme.NewEngine(7)
	scfg := secmem.DefaultConfig()
	scfg.Scheme = scheme.RuntimeScheme()
	// Scaled-down metadata caches (1/32 of Table I) to match the scaled
	// hierarchy.
	scfg.CounterCacheBytes = 8 << 10
	scfg.MACCacheBytes = 16 << 10
	scfg.TreeCacheBytes = 8 << 10
	sec := secmem.New(scfg, lay, enc, nvm)
	return &System{Layout: lay, Enc: enc, NVM: nvm, Sec: sec}, h
}

func fillWorstCase(h *hierarchy.Hierarchy, seed int64) []hierarchy.DirtyBlock {
	h.FillAllDirty(hierarchy.FillOptions{
		Pattern:  hierarchy.PatternWorstCaseSparse,
		DataSize: 256 << 20,
		Seed:     seed,
	})
	blocks := slices.Clone(h.DirtyBlocks())
	rng := rand.New(rand.NewSource(seed + 1))
	rng.Shuffle(len(blocks), func(i, j int) { blocks[i], blocks[j] = blocks[j], blocks[i] })
	return blocks
}

// TestSchemeProperties pins each design's table entry.
func TestSchemeProperties(t *testing.T) {
	want := []struct {
		s       Scheme
		name    string
		secure  bool
		usesCHV bool
		update  secmem.UpdateScheme
	}{
		{NonSecure, "NonSecure", false, false, secmem.LazyUpdate},
		{BaseLU, "Base-LU", true, false, secmem.LazyUpdate},
		{BaseEU, "Base-EU", true, false, secmem.EagerUpdate},
		{HorusSLM, "Horus-SLM", true, true, secmem.LazyUpdate},
		{HorusDLM, "Horus-DLM", true, true, secmem.LazyUpdate},
	}
	for _, w := range want {
		if got := w.s.String(); got != w.name {
			t.Errorf("Scheme(%d).String() = %q, want %q", int(w.s), got, w.name)
		}
		if got := w.s.Secure(); got != w.secure {
			t.Errorf("%v.Secure() = %v, want %v", w.s, got, w.secure)
		}
		if got := w.s.UsesCHV(); got != w.usesCHV {
			t.Errorf("%v.UsesCHV() = %v, want %v", w.s, got, w.usesCHV)
		}
		if got := w.s.RuntimeScheme(); got != w.update {
			t.Errorf("%v.RuntimeScheme() = %v, want %v", w.s, got, w.update)
		}
	}
}

// TestSchemeNamesOrder pins AllSchemes to the paper's five designs in
// presentation order.
func TestSchemeNamesOrder(t *testing.T) {
	want := []string{"NonSecure", "Base-LU", "Base-EU", "Horus-SLM", "Horus-DLM"}
	all := AllSchemes()
	if len(all) != len(want) {
		t.Fatalf("AllSchemes() = %v, want the paper's five designs", all)
	}
	for i, s := range all {
		if s.String() != want[i] {
			t.Errorf("AllSchemes()[%d] = %q, want %q", i, s.String(), want[i])
		}
	}
}

// TestSchemeRegistryRoundTrip checks that the schemes table maps handle →
// name → handle without loss: every design's name is unique and finds its
// own handle again.
func TestSchemeRegistryRoundTrip(t *testing.T) {
	byName := make(map[string]Scheme)
	for _, s := range AllSchemes() {
		if !s.known() {
			t.Errorf("%v is not a known design", s)
		}
		if prev, dup := byName[s.String()]; dup {
			t.Errorf("%v and %v share the name %q", prev, s, s.String())
		}
		byName[s.String()] = s
	}
	for _, s := range AllSchemes() {
		if got := byName[s.String()]; got != s {
			t.Errorf("name %q maps back to %v, want %v", s.String(), got, s)
		}
	}
}

// TestSchemeRegistryUnknownName checks the fail-safe answers for a handle
// outside the five designs: a name that matches none of them, secure, no
// CHV, lazy update.
func TestSchemeRegistryUnknownName(t *testing.T) {
	for _, s := range []Scheme{Scheme(-1), Scheme(len(AllSchemes())), Scheme(97)} {
		if s.known() {
			t.Errorf("%d reported as a known design", int(s))
		}
		if want := fmt.Sprintf("Scheme(%d)", int(s)); s.String() != want {
			t.Errorf("Scheme(%d).String() = %q, want %q", int(s), s.String(), want)
		}
		for _, d := range AllSchemes() {
			if s.String() == d.String() {
				t.Errorf("Scheme(%d) shares the name %q with %v", int(s), s.String(), d)
			}
		}
		if !s.Secure() || s.UsesCHV() || s.RuntimeScheme() != secmem.LazyUpdate {
			t.Errorf("Scheme(%d) properties = (secure %v, chv %v, %v), want (true, false, lazy)",
				int(s), s.Secure(), s.UsesCHV(), s.RuntimeScheme())
		}
	}
}

func TestNonSecureDrainCounts(t *testing.T) {
	sys, h := buildSystem(t, NonSecure)
	blocks := fillWorstCase(h, 1)
	d := NewDrainer(NonSecure, sys, 0)
	res, err := d.Drain(blocks)
	if err != nil {
		t.Fatal(err)
	}
	if res.BlocksDrained != len(blocks) {
		t.Errorf("drained %d, want %d", res.BlocksDrained, len(blocks))
	}
	if got := res.MemWrites.Get(string(mem.CatData)); got != int64(len(blocks)) {
		t.Errorf("data writes = %d, want %d", got, len(blocks))
	}
	if res.MemReads.Total() != 0 {
		t.Error("non-secure drain must not read memory")
	}
	if res.TotalMACs() != 0 || res.AESOps != 0 {
		t.Error("non-secure drain must not use crypto")
	}
	if res.DrainTime <= 0 {
		t.Error("drain time must be positive")
	}
	// Functional: every block must be in memory, in plaintext, in place.
	for _, b := range blocks {
		if sys.NVM.PeekRead(b.Addr) != b.Data {
			t.Fatalf("block %#x not drained in place", b.Addr)
		}
	}
}

func TestHorusSLMDrainCountsExact(t *testing.T) {
	sys, h := buildSystem(t, HorusSLM)
	blocks := fillWorstCase(h, 2)
	n := int64(len(blocks))
	d := NewDrainer(HorusSLM, sys, 0)
	res, err := d.Drain(blocks)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.MemWrites.Get(string(mem.CatCHVData)); got != n {
		t.Errorf("chv-data writes = %d, want %d", got, n)
	}
	wantAddr := (n + 7) / 8
	if got := res.MemWrites.Get(string(mem.CatCHVAddr)); got != wantAddr {
		t.Errorf("chv-addr writes = %d, want %d", got, wantAddr)
	}
	if got := res.MemWrites.Get(string(mem.CatCHVMAC)); got != wantAddr {
		t.Errorf("SLM chv-mac writes = %d, want %d", got, wantAddr)
	}
	if got := res.MemWrites.Get(string(mem.CatData)); got != 0 {
		t.Error("Horus must not write data in place")
	}
	// Horus reads nothing during draining (Fig. 8 part C).
	if res.MemReads.Total() != 0 {
		t.Errorf("Horus drain read memory %d times", res.MemReads.Total())
	}
	// Exactly one MAC per drained block, no tree or verify MACs.
	if got := res.MACCalcs.Get(MACCHVData); got != n {
		t.Errorf("chv data MACs = %d, want %d", got, n)
	}
	if res.MACCalcs.Get(secmem.MACVerify) != 0 || res.MACCalcs.Get(secmem.MACTreeUpdate) != 0 {
		t.Error("Horus drain must not touch the run-time integrity tree")
	}
	if res.AESOps != n {
		t.Errorf("AES ops = %d, want %d", res.AESOps, n)
	}
	// Persistent state: DC advanced by n, EDC records the episode.
	if res.Persist.DC != uint64(n) || res.Persist.EDC != uint64(n) {
		t.Errorf("persist DC/EDC = %d/%d, want %d/%d", res.Persist.DC, res.Persist.EDC, n, n)
	}
}

func TestHorusDLMMACCoalescing(t *testing.T) {
	sys, h := buildSystem(t, HorusDLM)
	blocks := fillWorstCase(h, 3)
	n := int64(len(blocks))
	d := NewDrainer(HorusDLM, sys, 0)
	res, err := d.Drain(blocks)
	if err != nil {
		t.Fatal(err)
	}
	// DLM writes one MAC block per 64 drained blocks (8x fewer than SLM,
	// Fig. 12) but computes one extra L2 MAC per 8 blocks (1.125x, Fig. 13).
	wantMACBlocks := (n + 63) / 64
	if got := res.MemWrites.Get(string(mem.CatCHVMAC)); got != wantMACBlocks {
		t.Errorf("DLM chv-mac writes = %d, want %d", got, wantMACBlocks)
	}
	wantL2 := (n + 7) / 8
	if got := res.MACCalcs.Get(MACCHVL2); got != wantL2 {
		t.Errorf("DLM L2 MACs = %d, want %d", got, wantL2)
	}
	if got := res.MACCalcs.Get(MACCHVData); got != n {
		t.Errorf("DLM L1 MACs = %d, want %d", got, n)
	}
}

func TestHorusTailHandling(t *testing.T) {
	// A drain whose size is not a multiple of 8 or 64 must still persist
	// every address and MAC (partial register flush).
	sys, _ := buildSystem(t, HorusSLM)
	var blocks []hierarchy.DirtyBlock
	for i := 0; i < 13; i++ {
		blocks = append(blocks, hierarchy.DirtyBlock{
			Addr: uint64(i) * 16384,
			Data: mem.Block{0: byte(i + 1)},
		})
	}
	d := NewDrainer(HorusSLM, sys, 0)
	res, err := d.Drain(blocks)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.MemWrites.Get(string(mem.CatCHVAddr)); got != 2 {
		t.Errorf("addr blocks = %d, want 2 (8+5)", got)
	}
	if got := res.MemWrites.Get(string(mem.CatCHVMAC)); got != 2 {
		t.Errorf("mac blocks = %d, want 2", got)
	}
	// The 13th address must be recorded in the second address block.
	a, _ := sys.Layout.CHVAddrBlockAddr(12)
	addrs := UnpackAddrs(sys.NVM.PeekRead(a))
	if addrs[4] != 12*16384 {
		t.Errorf("tail address lost: %#x", addrs[4])
	}
}

func TestHorusCiphertextNotPlaintextAndUniqueAcrossEpisodes(t *testing.T) {
	sys, _ := buildSystem(t, HorusSLM)
	blk := hierarchy.DirtyBlock{Addr: 16384, Data: mem.Block{0: 0xEE}}
	d := NewDrainer(HorusSLM, sys, 0)
	if _, err := d.Drain([]hierarchy.DirtyBlock{blk}); err != nil {
		t.Fatal(err)
	}
	ct1 := sys.NVM.PeekRead(sys.Layout.CHVDataAddr(0))
	if ct1 == blk.Data {
		t.Fatal("CHV holds plaintext")
	}
	// Second episode with the same block: DC persisted, so the pad differs
	// and the ciphertext must differ (no temporal leakage across episodes,
	// §IV-C4).
	if _, err := d.Drain([]hierarchy.DirtyBlock{blk}); err != nil {
		t.Fatal(err)
	}
	ct2 := sys.NVM.PeekRead(sys.Layout.CHVDataAddr(0))
	if ct1 == ct2 {
		t.Fatal("same content at same slot encrypted identically across episodes")
	}
}

func TestBaselineDrainUsesTreeAndVerifies(t *testing.T) {
	for _, scheme := range []Scheme{BaseLU, BaseEU} {
		t.Run(scheme.String(), func(t *testing.T) {
			sys, h := buildSystem(t, scheme)
			blocks := fillWorstCase(h, 4)
			d := NewDrainer(scheme, sys, 0)
			res, err := d.Drain(blocks)
			if err != nil {
				t.Fatal(err)
			}
			n := int64(len(blocks))
			if got := res.MemWrites.Get(string(mem.CatData)); got != n {
				t.Errorf("in-place data writes = %d, want %d", got, n)
			}
			// The baselines must incur substantial metadata traffic on the
			// worst-case fill (the paper's 9.5x-10.3x observation).
			if res.TotalMemAccesses() < 4*n {
				t.Errorf("baseline %v accesses = %d, want >= 4x blocks (%d)",
					scheme, res.TotalMemAccesses(), 4*n)
			}
			if res.MACCalcs.Get(secmem.MACVerify) == 0 {
				t.Error("baseline drain did no verification MACs")
			}
			if scheme == BaseEU && res.MACCalcs.Get(secmem.MACTreeUpdate) < n {
				t.Error("eager baseline must update the tree per write")
			}
			// Functional: every block readable and correct afterwards.
			golden := h.Golden()
			var now = res.DrainTime
			count := 0
			for addr, want := range golden {
				got, done, err := sys.Sec.ReadBlock(now, addr)
				if err != nil {
					t.Fatalf("read %#x after drain: %v", addr, err)
				}
				now = done
				if got != want {
					t.Fatalf("mismatch at %#x", addr)
				}
				count++
				if count >= 200 {
					break // spot check; full check is in recovery tests
				}
			}
		})
	}
}

func TestHorusFarCheaperThanBaseline(t *testing.T) {
	results := map[Scheme]Result{}
	for _, scheme := range AllSchemes() {
		sys, h := buildSystem(t, scheme)
		blocks := fillWorstCase(h, 5)
		d := NewDrainer(scheme, sys, 0)
		res, err := d.Drain(blocks)
		if err != nil {
			t.Fatal(err)
		}
		results[scheme] = res
	}
	ns := results[NonSecure]
	lu := results[BaseLU]
	slm := results[HorusSLM]
	dlm := results[HorusDLM]

	// The paper's headline shape: baselines blow up the access count;
	// Horus stays within ~1.3x of non-secure.
	if ratio := float64(lu.TotalMemAccesses()) / float64(ns.TotalMemAccesses()); ratio < 4 {
		t.Errorf("Base-LU access blow-up = %.1fx, want >= 4x", ratio)
	}
	if ratio := float64(slm.TotalMemAccesses()) / float64(ns.TotalMemAccesses()); ratio > 1.5 {
		t.Errorf("Horus-SLM access ratio = %.2fx, want <= 1.5x", ratio)
	}
	if slm.TotalMemAccesses() >= lu.TotalMemAccesses()/3 {
		t.Error("Horus-SLM must reduce accesses by a large factor vs Base-LU")
	}
	if dlm.TotalMemAccesses() >= slm.TotalMemAccesses() {
		t.Error("DLM must write fewer blocks than SLM")
	}
	if dlm.TotalMACs() <= slm.TotalMACs() {
		t.Error("DLM must compute more MACs than SLM (the 1.125x trade-off)")
	}
	if slm.DrainTime >= lu.DrainTime {
		t.Error("Horus must drain faster than Base-LU")
	}
	if ns.DrainTime >= slm.DrainTime {
		// sanity: security cannot be free
		t.Error("non-secure drain should be the fastest")
	}
}

func TestDrainerPanics(t *testing.T) {
	sys, _ := buildSystem(t, HorusSLM)
	for name, fn := range map[string]func(){
		"incomplete system": func() { NewDrainer(NonSecure, &System{}, 0) },
		"unknown scheme":    func() { NewDrainer(Scheme(97), sys, 0) },
		"secure needs sec": func() {
			NewDrainer(BaseLU, &System{Layout: sys.Layout, Enc: sys.Enc, NVM: sys.NVM}, 0)
		},
		"chv overflow": func() {
			d := NewDrainer(HorusSLM, sys, 0)
			many := make([]hierarchy.DirtyBlock, sys.Layout.CHVCapacity+1)
			for i := range many {
				many[i].Addr = uint64(i) * 64
			}
			_, _ = d.Drain(many)
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

func TestPackUnpackAddrs(t *testing.T) {
	addrs := []uint64{0, 64, 1 << 40, 0xDEADBEEF00}
	blk := packAddrs(addrs)
	out := unpackAddrs(blk)
	for i, a := range addrs {
		if out[i] != a {
			t.Errorf("slot %d: got %#x want %#x", i, out[i], a)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("packing 9 addresses did not panic")
		}
	}()
	packAddrs(make([]uint64, 9))
}
