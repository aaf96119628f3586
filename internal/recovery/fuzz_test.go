package recovery

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/hierarchy"
	"repro/internal/mem"
	"repro/internal/secmem"
)

// fuzzFixture drains once and snapshots the post-crash NVM image so each
// fuzz iteration can start from a realistic persistent state without paying
// for a full drain.
type fuzzFixture struct {
	scheme core.Scheme
	ps     core.PersistentState
	base   *mem.Store
	addrs  []uint64
}

func newFuzzFixture(f *testing.F, scheme core.Scheme) *fuzzFixture {
	f.Helper()
	sys, h := buildSystem(f, scheme)
	h.FillAllDirty(hierarchy.FillOptions{
		Pattern:  hierarchy.PatternWorstCaseSparse,
		DataSize: 256 << 20,
		Seed:     23,
	})
	blocks := h.DirtyBlocks()
	d := core.NewDrainer(scheme, sys, 0)
	res, err := d.Drain(blocks)
	if err != nil {
		f.Fatal(err)
	}
	base := sys.NVM.Store().Snapshot()
	return &fuzzFixture{
		scheme: scheme,
		ps:     res.Persist,
		base:   base,
		addrs:  base.AddressesInRange(0, sys.Layout.End),
	}
}

// freshSystem builds a system whose NVM holds a copy of the fixture's
// post-drain image. The layout and engine are rebuilt identically (the
// engine is keyed, so the same key reproduces the same MACs).
func (fx *fuzzFixture) freshSystem(t testing.TB) *core.System {
	sys, _ := buildSystem(t, fx.scheme)
	for _, a := range fx.addrs {
		sys.NVM.Store().WriteBlock(a, fx.base.ReadBlock(a))
	}
	return sys
}

// requireTyped fails the fuzz iteration if err is non-nil but not a typed
// detection error: recovery fed corrupted persistent state must either
// succeed (the mutation happened to be consistent) or detect — never fail
// with an untyped internal error, and never panic (the fuzzer catches
// panics on its own).
func requireTyped(t *testing.T, err error) {
	if err == nil {
		return
	}
	var re *Error
	var ie *secmem.IntegrityError
	if !errors.As(err, &re) && !errors.As(err, &ie) {
		t.Fatalf("recovery failed with untyped error %T: %v", err, err)
	}
	if !IsDetection(err) {
		t.Fatalf("IsDetection rejected a typed detection error: %v", err)
	}
}

// FuzzRecoverHorus mutates the persistent register file (DC, EDC, CHV
// region) and one CHV byte, then runs Horus recovery. The contract under
// fuzz: no panic, no unbounded allocation, and every failure is a typed
// *recovery.Error (or wrapped secmem.IntegrityError).
func FuzzRecoverHorus(f *testing.F) {
	fx := newFuzzFixture(f, core.HorusSLM)
	f.Add(fx.ps.DC, fx.ps.EDC, fx.ps.CHVRegion, uint64(0), uint8(0), uint8(0))     // unmutated
	f.Add(fx.ps.DC, fx.ps.EDC+1, fx.ps.CHVRegion, uint64(0), uint8(0), uint8(0))   // EDC off by one
	f.Add(fx.ps.DC, uint64(1)<<60, fx.ps.CHVRegion, uint64(0), uint8(0), uint8(0)) // absurd EDC
	f.Add(uint64(0), fx.ps.EDC, fx.ps.CHVRegion, uint64(0), uint8(0), uint8(0))    // DC < EDC
	f.Add(fx.ps.DC, fx.ps.EDC, uint64(1)<<40, uint64(0), uint8(0), uint8(0))       // region out of range
	f.Add(fx.ps.DC, fx.ps.EDC, fx.ps.CHVRegion, uint64(5), uint8(3), uint8(0x10))  // flip a CHV byte
	f.Fuzz(func(t *testing.T, dc, edc, region, corruptSlot uint64, corruptOff, corruptMask uint8) {
		sys := fx.freshSystem(t)
		if corruptMask != 0 {
			slot := corruptSlot % sys.Layout.CHVCapacity
			sys.NVM.Store().CorruptByte(sys.Layout.CHVDataAddr(slot), int(corruptOff)%mem.BlockSize, corruptMask)
		}
		ps := fx.ps
		ps.DC, ps.EDC, ps.CHVRegion = dc, edc, region
		res, err := RecoverHorus(sys, ps, Options{})
		requireTyped(t, err)
		if err == nil && uint64(len(res.Blocks)) != edc {
			t.Fatalf("recovered %d blocks for EDC %d", len(res.Blocks), edc)
		}
	})
}

// FuzzRestoreMetadataVault mutates the vault record (count, root, parity
// claim) and one vault byte, then restores the metadata vault. Same
// contract: no panic, typed errors only.
func FuzzRestoreMetadataVault(f *testing.F) {
	fx := newFuzzFixture(f, core.BaseLU)
	if fx.ps.Vault.Count == 0 {
		f.Fatal("fixture drain left an empty vault")
	}
	f.Add(int64(fx.ps.Vault.Count), uint8(0), uint8(0), false, uint64(0), uint8(0), uint8(0)) // unmutated
	f.Add(int64(-1), uint8(0), uint8(0), false, uint64(0), uint8(0), uint8(0))                // negative count
	f.Add(int64(1)<<40, uint8(0), uint8(0), false, uint64(0), uint8(0), uint8(0))             // absurd count
	f.Add(int64(fx.ps.Vault.Count), uint8(0), uint8(1), false, uint64(0), uint8(0), uint8(0)) // root bit flip
	f.Add(int64(fx.ps.Vault.Count), uint8(0), uint8(0), true, uint64(0), uint8(0), uint8(0))  // lying parity bit
	f.Add(int64(fx.ps.Vault.Count), uint8(0), uint8(0), false, uint64(2), uint8(9), uint8(4)) // vault byte flip
	f.Fuzz(func(t *testing.T, count int64, rootOff, rootMask uint8, parity bool, corruptIdx uint64, corruptOff, corruptMask uint8) {
		sys := fx.freshSystem(t)
		if corruptMask != 0 {
			idx := corruptIdx % sys.Layout.VaultBlocks
			sys.NVM.Store().CorruptByte(sys.Layout.VaultAddr(idx), int(corruptOff)%mem.BlockSize, corruptMask)
		}
		vault := fx.ps.Vault
		vault.Count = int(count)
		vault.Parity = parity
		vault.Root[int(rootOff)%len(vault.Root)] ^= rootMask
		res, err := RestoreMetadataVault(sys, vault, fx.scheme.String())
		requireTyped(t, err)
		if err == nil && vault.Count > 0 && res.LinesRestored != vault.Count {
			t.Fatalf("restored %d lines for count %d", res.LinesRestored, vault.Count)
		}
	})
}
