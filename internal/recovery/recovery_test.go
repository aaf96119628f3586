package recovery

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bmt"
	"repro/internal/cme"
	"repro/internal/core"
	"repro/internal/hierarchy"
	"repro/internal/mem"
	"repro/internal/secmem"
	"repro/internal/sim"
)

func testHierarchyConfig() hierarchy.Config {
	return hierarchy.Config{Levels: []hierarchy.LevelConfig{
		{Name: "L1", SizeBytes: 16 << 10, Ways: 2},
		{Name: "L2", SizeBytes: 64 << 10, Ways: 8},
		{Name: "LLC", SizeBytes: 256 << 10, Ways: 16},
	}}
}

func buildSystem(t testing.TB, scheme core.Scheme) (*core.System, *hierarchy.Hierarchy) {
	t.Helper()
	hcfg := testHierarchyConfig()
	h := hierarchy.New(hcfg)
	lay := bmt.NewLayout(bmt.Config{
		DataSize:    256 << 20,
		CHVCapacity: uint64(hcfg.TotalLines()) + 64,
		VaultBlocks: 40000,
	})
	nvm := mem.NewController(mem.DefaultConfig())
	enc := cme.NewEngine(7)
	scfg := secmem.DefaultConfig()
	scfg.Scheme = scheme.RuntimeScheme()
	scfg.CounterCacheBytes = 8 << 10
	scfg.MACCacheBytes = 16 << 10
	scfg.TreeCacheBytes = 8 << 10
	sec := secmem.New(scfg, lay, enc, nvm)
	return &core.System{Layout: lay, Enc: enc, NVM: nvm, Sec: sec}, h
}

// drainAndCrash fills the hierarchy, drains with the scheme, and simulates
// the power loss (volatile caches cleared, hierarchy cleared). It returns
// the golden contents and the persistent register state.
func drainAndCrash(t *testing.T, sys *core.System, h *hierarchy.Hierarchy, scheme core.Scheme, seed int64) (map[uint64]mem.Block, core.PersistentState) {
	t.Helper()
	h.FillAllDirty(hierarchy.FillOptions{
		Pattern:  hierarchy.PatternWorstCaseSparse,
		DataSize: 256 << 20,
		Seed:     seed,
	})
	golden := h.Golden()
	blocks := slices.Clone(h.DirtyBlocks())
	rng := rand.New(rand.NewSource(seed + 1))
	rng.Shuffle(len(blocks), func(i, j int) { blocks[i], blocks[j] = blocks[j], blocks[i] })
	d := core.NewDrainer(scheme, sys, 0)
	res, err := d.Drain(blocks)
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	h.Clear()
	sys.Sec.Crash()
	return golden, res.Persist
}

func TestHorusRecoveryRoundTrip(t *testing.T) {
	for _, scheme := range []core.Scheme{core.HorusSLM, core.HorusDLM} {
		t.Run(scheme.String(), func(t *testing.T) {
			sys, h := buildSystem(t, scheme)
			golden, ps := drainAndCrash(t, sys, h, scheme, 10)

			res, err := RecoverHorus(sys, ps, Options{})
			if err != nil {
				t.Fatalf("recover: %v", err)
			}
			if len(res.Blocks) != len(golden) {
				t.Fatalf("recovered %d blocks, want %d", len(res.Blocks), len(golden))
			}
			for _, b := range res.Blocks {
				want, ok := golden[b.Addr]
				if !ok {
					t.Fatalf("recovered unknown address %#x", b.Addr)
				}
				if b.Data != want {
					t.Fatalf("recovered wrong content at %#x", b.Addr)
				}
				delete(golden, b.Addr)
			}
			if len(golden) != 0 {
				t.Fatalf("%d blocks not recovered", len(golden))
			}
			if res.RecoveryTime <= 0 {
				t.Error("recovery time must be positive")
			}
			if res.Persist.EDC != 0 {
				t.Error("EDC must be cleared after recovery")
			}
			if res.MACCalcs == 0 || res.MemReads.Total() == 0 {
				t.Error("recovery must read and verify")
			}
			// Refill a fresh hierarchy with the recovered blocks.
			h2 := hierarchy.New(testHierarchyConfig())
			RefillHierarchy(h2, res.Blocks)
			if h2.DirtyCount() != len(res.Blocks) {
				t.Error("refill lost blocks")
			}
		})
	}
}

func TestHorusRecoveryReadCounts(t *testing.T) {
	sys, h := buildSystem(t, core.HorusSLM)
	_, ps := drainAndCrash(t, sys, h, core.HorusSLM, 11)
	res, err := RecoverHorus(sys, ps, Options{})
	if err != nil {
		t.Fatal(err)
	}
	n := int64(ps.EDC)
	groups := (n + 7) / 8
	// SLM: n data reads + one addr block and one MAC block per group.
	want := n + 2*groups
	if got := res.MemReads.Get(string(mem.CatRecovery)); got != want {
		t.Errorf("recovery reads = %d, want %d", got, want)
	}
}

func TestHorusDLMRecoveryReadsFewerMACBlocks(t *testing.T) {
	readsFor := func(scheme core.Scheme) int64 {
		sys, h := buildSystem(t, scheme)
		_, ps := drainAndCrash(t, sys, h, scheme, 12)
		res, err := RecoverHorus(sys, ps, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res.MemReads.Total()
	}
	slm, dlm := readsFor(core.HorusSLM), readsFor(core.HorusDLM)
	if dlm >= slm {
		t.Errorf("DLM recovery reads (%d) must be fewer than SLM (%d)", dlm, slm)
	}
}

func TestRecoveryDetectsDataTamper(t *testing.T) {
	sys, h := buildSystem(t, core.HorusSLM)
	_, ps := drainAndCrash(t, sys, h, core.HorusSLM, 13)
	sys.NVM.Store().CorruptByte(sys.Layout.CHVDataAddr(5), 10, 0x40)
	_, err := RecoverHorus(sys, ps, Options{})
	var re *Error
	if !errors.As(err, &re) {
		t.Fatalf("tampered CHV data recovered: err=%v", err)
	}
	if re.Slot != 5 {
		t.Errorf("error slot = %d, want 5", re.Slot)
	}
}

func TestRecoveryDetectsAddressTamper(t *testing.T) {
	sys, h := buildSystem(t, core.HorusSLM)
	_, ps := drainAndCrash(t, sys, h, core.HorusSLM, 14)
	a, _ := sys.Layout.CHVAddrBlockAddr(0)
	sys.NVM.Store().CorruptByte(a, 3, 0x01) // redirect block 0's address
	var re *Error
	if _, err := RecoverHorus(sys, ps, Options{}); !errors.As(err, &re) {
		t.Fatalf("tampered CHV address recovered: err=%v", err)
	}
}

// A flipped domain bit (bit 63) in a stored CHV address entry is absorbed by
// the addr|DrainPadDomain OR feeding the MAC, so the MAC alone cannot object;
// recovery must reject the non-canonical entry explicitly. Found by the
// litmus corruption-coverage sweep.
func TestRecoveryDetectsDomainBitAddressTamper(t *testing.T) {
	sys, h := buildSystem(t, core.HorusSLM)
	_, ps := drainAndCrash(t, sys, h, core.HorusSLM, 14)
	a, _ := sys.Layout.CHVAddrBlockAddr(0)
	sys.NVM.Store().CorruptByte(a, 7, 0x80) // slot 0 is little-endian: byte 7 holds bit 63
	_, err := RecoverHorus(sys, ps, Options{})
	var re *Error
	if !errors.As(err, &re) {
		t.Fatalf("domain-bit address tamper recovered: err=%v", err)
	}
	if !IsDetection(err) {
		t.Fatalf("domain-bit tamper error is not a typed detection: %v", err)
	}
}

func TestRecoveryDetectsMACTamper(t *testing.T) {
	for _, scheme := range []core.Scheme{core.HorusSLM, core.HorusDLM} {
		t.Run(scheme.String(), func(t *testing.T) {
			sys, h := buildSystem(t, scheme)
			_, ps := drainAndCrash(t, sys, h, scheme, 15)
			sys.NVM.Store().CorruptByte(sys.Layout.CHVMACBase, 0, 0x02)
			var re *Error
			if _, err := RecoverHorus(sys, ps, Options{}); !errors.As(err, &re) {
				t.Fatalf("tampered CHV MAC recovered: err=%v", err)
			}
		})
	}
}

func TestRecoveryDetectsSplice(t *testing.T) {
	// Swap two ciphertext blocks within the CHV: position binding via the
	// drain counter must catch it (§IV-C4).
	sys, h := buildSystem(t, core.HorusSLM)
	_, ps := drainAndCrash(t, sys, h, core.HorusSLM, 16)
	a0, a1 := sys.Layout.CHVDataAddr(0), sys.Layout.CHVDataAddr(1)
	b0, b1 := sys.NVM.PeekRead(a0), sys.NVM.PeekRead(a1)
	sys.NVM.Store().WriteBlock(a0, b1)
	sys.NVM.Store().WriteBlock(a1, b0)
	var re *Error
	if _, err := RecoverHorus(sys, ps, Options{}); !errors.As(err, &re) {
		t.Fatalf("spliced CHV content recovered: err=%v", err)
	}
}

func TestRecoveryDetectsCrossEpisodeReplay(t *testing.T) {
	// Drain episode 1, snapshot the CHV; drain episode 2 with different
	// data; replay episode 1's CHV bytes. The drain-counter values differ
	// across episodes, so every MAC must mismatch (§IV-C4).
	sys, h := buildSystem(t, core.HorusSLM)
	h.FillAllDirty(hierarchy.FillOptions{
		Pattern: hierarchy.PatternWorstCaseSparse, DataSize: 256 << 20, Seed: 17,
	})
	blocks := h.DirtyBlocks()
	d := core.NewDrainer(core.HorusSLM, sys, 0)
	if _, err := d.Drain(blocks); err != nil {
		t.Fatal(err)
	}
	// Snapshot the whole CHV region of episode 1.
	lay := sys.Layout
	type saved struct {
		addr uint64
		b    mem.Block
	}
	var snap []saved
	for i := uint64(0); i < uint64(len(blocks)); i++ {
		a := lay.CHVDataAddr(i)
		snap = append(snap, saved{a, sys.NVM.PeekRead(a)})
	}
	for i := uint64(0); i < (uint64(len(blocks))+7)/8; i++ {
		a, _ := lay.CHVAddrBlockAddr(i * 8)
		snap = append(snap, saved{a, sys.NVM.PeekRead(a)})
		m, _ := lay.CHVMACBlockAddr(i * 8)
		snap = append(snap, saved{m, sys.NVM.PeekRead(m)})
	}

	// Episode 2: different content, same drainer (DC persists).
	for i := range blocks {
		blocks[i].Data[0] ^= 0xFF
	}
	res2, err := d.Drain(blocks)
	if err != nil {
		t.Fatal(err)
	}
	// Replay episode 1.
	for _, s := range snap {
		sys.NVM.Store().WriteBlock(s.addr, s.b)
	}
	sys.Sec.Crash()
	var re *Error
	if _, err := RecoverHorus(sys, res2.Persist, Options{}); !errors.As(err, &re) {
		t.Fatalf("replayed previous episode's CHV recovered: err=%v", err)
	}
}

func TestParallelRecoveryFasterAndCorrect(t *testing.T) {
	for _, scheme := range []core.Scheme{core.HorusSLM, core.HorusDLM} {
		t.Run(scheme.String(), func(t *testing.T) {
			sys, h := buildSystem(t, scheme)
			golden, ps := drainAndCrash(t, sys, h, scheme, 40)
			serial, err := RecoverHorus(sys, ps, Options{})
			if err != nil {
				t.Fatal(err)
			}
			sys.Sec.Crash()
			parallel, err := RecoverHorus(sys, ps, Options{BankParallel: true})
			if err != nil {
				t.Fatal(err)
			}
			if parallel.RecoveryTime >= serial.RecoveryTime {
				t.Errorf("parallel recovery (%v) not faster than serial (%v)",
					parallel.RecoveryTime, serial.RecoveryTime)
			}
			// Same blocks either way.
			if len(parallel.Blocks) != len(golden) {
				t.Fatal("parallel recovery lost blocks")
			}
			for _, b := range parallel.Blocks {
				if golden[b.Addr] != b.Data {
					t.Fatalf("parallel recovery corrupted %#x", b.Addr)
				}
			}
		})
	}
}

func TestBaselineRecoveryRoundTrip(t *testing.T) {
	sys, h := buildSystem(t, core.BaseLU)
	golden, ps := drainAndCrash(t, sys, h, core.BaseLU, 18)
	res, err := RecoverBaseline(sys, ps)
	if err != nil {
		t.Fatalf("baseline recovery: %v", err)
	}
	if res.LinesRestored != ps.Vault.Count {
		t.Errorf("restored %d lines, want %d", res.LinesRestored, ps.Vault.Count)
	}
	// Every drained block must now read back and verify through the
	// normal secure read path.
	var now sim.Time
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

func TestBaselineEagerRecoveryNeedsNoVault(t *testing.T) {
	sys, h := buildSystem(t, core.BaseEU)
	golden, ps := drainAndCrash(t, sys, h, core.BaseEU, 19)
	res, err := RecoverBaseline(sys, ps)
	if err != nil {
		t.Fatal(err)
	}
	if res.LinesRestored != 0 {
		t.Error("eager drain should leave an empty vault")
	}
	var now sim.Time
	count := 0
	for addr, want := range golden {
		got, done, err := sys.Sec.ReadBlock(now, addr)
		if err != nil {
			t.Fatalf("post-recovery read %#x: %v", addr, err)
		}
		now = done
		if got != want {
			t.Fatalf("post-recovery mismatch at %#x", addr)
		}
		if count++; count >= 500 {
			break
		}
	}
}

func TestBaselineRecoveryDetectsVaultTamper(t *testing.T) {
	sys, h := buildSystem(t, core.BaseLU)
	_, ps := drainAndCrash(t, sys, h, core.BaseLU, 20)
	if ps.Vault.Count == 0 {
		t.Fatal("expected a non-empty vault")
	}
	sys.NVM.Store().CorruptByte(sys.Layout.VaultAddr(0), 0, 0x01)
	var re *Error
	if _, err := RecoverBaseline(sys, ps); !errors.As(err, &re) {
		t.Fatalf("tampered vault recovered: err=%v", err)
	}
}

func TestSchemeMismatchErrors(t *testing.T) {
	sys, h := buildSystem(t, core.BaseLU)
	_, ps := drainAndCrash(t, sys, h, core.BaseLU, 21)
	if _, err := RecoverHorus(sys, ps, Options{}); err == nil {
		t.Error("RecoverHorus accepted baseline state")
	}
	sys2, h2 := buildSystem(t, core.HorusSLM)
	_, ps2 := drainAndCrash(t, sys2, h2, core.HorusSLM, 22)
	if _, err := RecoverBaseline(sys2, ps2); err == nil {
		t.Error("RecoverBaseline accepted Horus state")
	}
}

// The scheme register is persistent state: after a crash it can hold any
// value, so a mismatch must surface as a typed detection error (classified
// by IsDetection), not an untyped usage error the torture/litmus matrices
// would count as a harness failure.
func TestSchemeMismatchIsTypedDetection(t *testing.T) {
	sys, h := buildSystem(t, core.BaseLU)
	_, ps := drainAndCrash(t, sys, h, core.BaseLU, 23)
	_, err := RecoverHorus(sys, ps, Options{})
	var re *Error
	if !errors.As(err, &re) {
		t.Fatalf("RecoverHorus scheme mismatch not a *recovery.Error: %v", err)
	}
	if !IsDetection(err) {
		t.Errorf("IsDetection(%v) = false, want true", err)
	}

	sys2, h2 := buildSystem(t, core.HorusSLM)
	_, ps2 := drainAndCrash(t, sys2, h2, core.HorusSLM, 24)
	_, err = RecoverBaseline(sys2, ps2)
	if !errors.As(err, &re) {
		t.Fatalf("RecoverBaseline scheme mismatch not a *recovery.Error: %v", err)
	}
	if !IsDetection(err) {
		t.Errorf("IsDetection(%v) = false, want true", err)
	}
	// NonSecure state is rejected by RecoverBaseline the same way.
	ps2.Scheme = core.NonSecure
	if _, err := RecoverBaseline(sys2, ps2); !IsDetection(err) {
		t.Errorf("non-secure scheme mismatch not a detection: %v", err)
	}
}

func TestErrorFormatting(t *testing.T) {
	e := &Error{Slot: 3, Addr: 0x40, Detail: "boom"}
	if e.Error() == "" {
		t.Error("empty error string")
	}
}

// TestIsDetectionTable pins IsDetection's classification across the shapes
// a detection reaches the oracles in: direct, %w-wrapped, errors.Join-ed,
// and untyped errors, which must never count as detections.
func TestIsDetectionTable(t *testing.T) {
	rec := &Error{Slot: 1, Detail: "chv"}
	integ := &secmem.IntegrityError{Kind: secmem.KindTamper, Addr: 0x40, Detail: "mac"}
	plain := errors.New("disk on fire")
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"recovery error", rec, true},
		{"integrity error", integ, true},
		{"wrapped recovery error", fmt.Errorf("restore: %w", rec), true},
		{"wrapped integrity error", fmt.Errorf("probe: %w", integ), true},
		{"doubly wrapped", fmt.Errorf("a: %w", fmt.Errorf("b: %w", integ)), true},
		{"joined with untyped", errors.Join(plain, integ), true},
		{"joined recovery error", errors.Join(rec, plain), true},
		{"untyped", plain, false},
		{"wrapped untyped", fmt.Errorf("x: %w", plain), false},
		{"joined untyped", errors.Join(plain, errors.New("other")), false},
		{"formatted, not wrapped", fmt.Errorf("x: %v", integ), false},
	}
	for _, tc := range cases {
		if got := IsDetection(tc.err); got != tc.want {
			t.Errorf("%s: IsDetection(%v) = %v, want %v", tc.name, tc.err, got, tc.want)
		}
	}
}
