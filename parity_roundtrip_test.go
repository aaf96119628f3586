package horus

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/hierarchy"
	"repro/internal/secmem"
	"repro/internal/sim"
)

// revCHVScheme is a test-only drain design registered through the public
// registry: it drains the dirty set into the CHV in reverse address order.
// Recovery must be order-agnostic (the CHV records addresses alongside
// content), so the round-trip contract below must hold for it exactly as
// for the built-ins.
type revCHVScheme struct{}

func (revCHVScheme) Name() string                       { return "Test-RevCHV" }
func (revCHVScheme) Secure() bool                       { return true }
func (revCHVScheme) UsesCHV() bool                      { return true }
func (revCHVScheme) RuntimeScheme() secmem.UpdateScheme { return secmem.LazyUpdate }
func (revCHVScheme) Drain(d *core.Drainer, blocks []hierarchy.DirtyBlock) (sim.Time, error) {
	rev := make([]hierarchy.DirtyBlock, len(blocks))
	for i, b := range blocks {
		rev[len(blocks)-1-i] = b
	}
	return d.DrainCHV(rev, false), nil
}

// registerRevCHV is shared by tests so -count=2 reruns don't hit the
// duplicate-registration panic.
var registerRevCHV = sync.OnceValue(func() Scheme {
	return RegisterScheme("Test-RevCHV", func() DrainScheme { return revCHVScheme{} })
})

// TestSchemeRegistryRoundTripParity drives every registered scheme —
// including the test-registered one — through the same lifecycle
// (run workload → crash-drain → recover) and asserts each restores the
// pre-crash contents through its own persistence path. The loop iterates
// SchemeNames() so a scheme that registers but breaks the round-trip
// cannot hide.
func TestSchemeRegistryRoundTripParity(t *testing.T) {
	registerRevCHV()

	names := SchemeNames()
	if len(names) < 6 {
		t.Fatalf("registry lists %v, want the 5 built-ins plus Test-RevCHV", names)
	}
	seen := map[string]bool{}
	for _, name := range names {
		seen[name] = true
	}
	if !seen["Test-RevCHV"] {
		t.Fatalf("registry %v is missing the test-registered scheme", names)
	}

	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			scheme, err := LookupScheme(name)
			if err != nil {
				t.Fatal(err)
			}
			cfg := TestConfig()
			ws := NewWorkloadSystem(cfg, scheme, DomainEPD)
			w := UniformWorkload(WorkloadConfig{Ops: 150, WorkingSet: 4 << 10, Seed: 77, PersistPercent: 10})
			if err := ws.Run(w); err != nil {
				t.Fatal(err)
			}
			drained := ws.Machine.DirtyBlocks()
			if len(drained) == 0 {
				t.Fatal("workload left nothing dirty")
			}
			res, image, err := ws.CrashAndDrain()
			if err != nil {
				t.Fatal(err)
			}
			if res.Persist.Scheme != scheme {
				t.Fatalf("persistent state names scheme %v, want %v", res.Persist.Scheme, scheme)
			}
			if _, err := ws.Recover(res.Persist); err != nil {
				t.Fatalf("recover: %v", err)
			}

			switch {
			case scheme.UsesCHV():
				// Recovery refilled the hierarchy; the machine's image must
				// hold every drained block with its pre-crash bytes.
				got := ws.Machine.Image()
				for _, b := range drained {
					g, ok := imageAt(image, b.Addr)
					if !ok {
						t.Fatalf("drained %#x missing from the pre-crash image", b.Addr)
					}
					if v, _ := imageAt(got, b.Addr); v != g {
						t.Errorf("block %#x not restored: got %x want %x", b.Addr, v[:8], g[:8])
					}
				}
			case scheme.Secure():
				// Baselines drained in place: every drained block must read
				// back through the secure controller with a verified MAC.
				for _, b := range drained {
					v, _, err := ws.Core.Sec.ReadBlock(0, b.Addr)
					if err != nil {
						t.Fatalf("verified read of %#x: %v", b.Addr, err)
					}
					if g, _ := imageAt(image, b.Addr); v != g {
						t.Errorf("block %#x not restored: got %x want %x", b.Addr, v[:8], g[:8])
					}
				}
			default:
				// NonSecure drained plaintext in place.
				for _, b := range drained {
					v := ws.Core.NVM.PeekRead(b.Addr)
					if g, _ := imageAt(image, b.Addr); v != g {
						t.Errorf("block %#x not restored: got %x want %x", b.Addr, v[:8], g[:8])
					}
				}
			}
		})
	}
}

// TestRegisteredSchemeInTortureMatrix proves the fault-injection harness
// composes with registry extensions: the test scheme runs through a sampled
// crash column with the same no-silent-corruption contract.
func TestRegisteredSchemeInTortureMatrix(t *testing.T) {
	scheme := registerRevCHV()
	rep, err := RunTortureMatrix(t.Context(), TortureConfig{
		Config:  TestConfig(),
		Schemes: []Scheme{scheme},
		Flavors: []CrashFlavor{CrashCleanCut, CrashBitFlip},
		Stride:  5,
	}, SweepOptions{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) == 0 {
		t.Fatal("no cells for the registered scheme")
	}
	for _, f := range rep.Failures() {
		t.Errorf("contract violation at %s: %s — %s", f.Label(), f.Outcome, f.Detail)
	}
}
