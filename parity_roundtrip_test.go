package horus

import (
	"maps"
	"testing"
)

// TestSchemeRegistryRoundTripParity drives every design in AllSchemes()
// through the same lifecycle (run workload → crash-drain → recover) and
// asserts each restores the pre-crash contents through its own persistence
// path.
func TestSchemeRegistryRoundTripParity(t *testing.T) {
	for _, scheme := range AllSchemes() {
		t.Run(scheme.String(), func(t *testing.T) {
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

// TestShuffledFlushRecovery pins that CHV recovery is order-agnostic: the
// CHV records each block's address alongside its content, so a drain in a
// shuffled flush order must refill exactly the pre-crash hierarchy.
func TestShuffledFlushRecovery(t *testing.T) {
	for _, scheme := range []Scheme{HorusSLM, HorusDLM} {
		t.Run(scheme.String(), func(t *testing.T) {
			// The first CHV address block records the first eight blocks
			// flushed: it must differ between fill order and shuffled order,
			// or the shuffled round trip below proves nothing.
			var firstAddrs [2]Block
			for i, shuffle := range []bool{false, true} {
				cfg := TestConfig()
				cfg.FlushShuffle = shuffle
				sys := NewSystem(cfg, scheme)
				if err := sys.Warmup(); err != nil {
					t.Fatal(err)
				}
				sys.Fill()
				golden := sys.Hierarchy.Golden()
				res, err := sys.Drain()
				if err != nil {
					t.Fatal(err)
				}
				a, _ := sys.Core.Layout.CHVAddrBlockAddrR(res.Persist.CHVRegion, 0)
				firstAddrs[i] = sys.Core.NVM.PeekRead(a)
				sys.Crash()
				if _, err := sys.Recover(res.Persist); err != nil {
					t.Fatalf("shuffle=%v: recover: %v", shuffle, err)
				}
				if got := sys.Hierarchy.Golden(); !maps.Equal(got, golden) {
					t.Errorf("shuffle=%v: refilled hierarchy holds %d blocks, differs from the %d pre-crash blocks",
						shuffle, len(got), len(golden))
				}
			}
			if firstAddrs[0] == firstAddrs[1] {
				t.Fatal("FlushShuffle did not change the drain order")
			}
		})
	}
}
