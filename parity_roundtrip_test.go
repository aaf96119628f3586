package horus

import (
	"cmp"
	"maps"
	"slices"
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

// TestShuffledFlushRecovery pins that CHV recovery is order-agnostic on
// both drain paths: under Config.FlushShuffle, System and WorkloadSystem
// drain in a different order than fill order, and recovery still restores
// every pre-crash block.
func TestShuffledFlushRecovery(t *testing.T) {
	// drainers runs one episode and returns the drain's first CHV address
	// block (it records the first eight blocks flushed) and whether
	// recovery restored the pre-crash contents.
	drainers := []struct {
		name string
		run  func(t *testing.T, cfg Config, scheme Scheme) (first Block, restored bool)
	}{
		{"System", func(t *testing.T, cfg Config, scheme Scheme) (Block, bool) {
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
			first := sys.Core.NVM.PeekRead(a)
			sys.Crash()
			if _, err := sys.Recover(res.Persist); err != nil {
				t.Fatalf("shuffle=%v: recover: %v", cfg.FlushShuffle, err)
			}
			return first, maps.Equal(sys.Hierarchy.Golden(), golden)
		}},
		{"WorkloadSystem", func(t *testing.T, cfg Config, scheme Scheme) (Block, bool) {
			ws := NewWorkloadSystem(cfg, scheme, DomainEPD)
			w := UniformWorkload(WorkloadConfig{Ops: 400, WorkingSet: 16 << 10, Seed: 5, PersistPercent: 10})
			if err := ws.Run(w); err != nil {
				t.Fatal(err)
			}
			res, image, err := ws.CrashAndDrain()
			if err != nil {
				t.Fatal(err)
			}
			a, _ := ws.Core.Layout.CHVAddrBlockAddrR(res.Persist.CHVRegion, 0)
			first := ws.Core.NVM.PeekRead(a)
			if _, err := ws.Recover(res.Persist); err != nil {
				t.Fatalf("shuffle=%v: recover: %v", cfg.FlushShuffle, err)
			}
			// Every pre-crash line, dirty (refilled) or clean (in memory),
			// reads back with its pre-crash bytes.
			for _, b := range image {
				if got, err := ws.Machine.Read(b.Addr); err != nil || got != b.Data {
					return first, false
				}
			}
			return first, true
		}},
	}
	for _, scheme := range []Scheme{HorusSLM, HorusDLM} {
		t.Run(scheme.String(), func(t *testing.T) {
			for _, d := range drainers {
				t.Run(d.name, func(t *testing.T) {
					// The first CHV address block must differ between fill
					// order and shuffled order, or the shuffled round trip
					// proves nothing.
					var firstAddrs [2]Block
					for i, shuffle := range []bool{false, true} {
						cfg := TestConfig()
						cfg.FlushShuffle = shuffle
						first, restored := d.run(t, cfg, scheme)
						firstAddrs[i] = first
						if !restored {
							t.Errorf("shuffle=%v: recovery did not restore the pre-crash contents", shuffle)
						}
					}
					if firstAddrs[0] == firstAddrs[1] {
						t.Fatal("FlushShuffle did not change the drain order")
					}
				})
			}
		})
	}
}

// TestFlushOrder pins the drain-order helper every drain path shares:
// without FlushShuffle it hands back its input itself, with no copy and no
// allocation; with it, a seed-determined permutation in a copy, leaving the
// input in fill order.
func TestFlushOrder(t *testing.T) {
	sys := NewSystem(TestConfig(), NonSecure)
	sys.Fill()
	blocks := sys.Hierarchy.DirtyBlocks()
	orig := slices.Clone(blocks)

	cfg := TestConfig()
	if got := flushOrder(cfg, blocks); len(got) != len(blocks) || &got[0] != &blocks[0] {
		t.Fatal("fill order copied the blocks")
	}
	if n := testing.AllocsPerRun(10, func() { flushOrder(cfg, blocks) }); n != 0 {
		t.Fatalf("fill order allocated %v times", n)
	}

	cfg.FlushShuffle = true
	shuf := flushOrder(cfg, blocks)
	if !slices.Equal(blocks, orig) {
		t.Fatal("shuffle reordered its input")
	}
	if slices.Equal(shuf, orig) {
		t.Fatal("shuffle left the order unchanged")
	}
	byAddr := func(a, b DirtyBlock) int { return cmp.Compare(a.Addr, b.Addr) }
	sorted, want := slices.Clone(shuf), slices.Clone(orig)
	slices.SortFunc(sorted, byAddr)
	slices.SortFunc(want, byAddr)
	if !slices.Equal(sorted, want) {
		t.Fatal("shuffle is not a permutation of its input")
	}
	if !slices.Equal(flushOrder(cfg, blocks), shuf) {
		t.Fatal("shuffle is not determined by the seed")
	}
	cfg.Seed++
	if slices.Equal(flushOrder(cfg, blocks), shuf) {
		t.Fatal("shuffle ignores the seed")
	}
}
