package horus

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"repro/internal/workload"
)

// imageAt looks addr up in an image sorted by ascending address.
func imageAt(image []DirtyBlock, addr uint64) (Block, bool) {
	i, ok := slices.BinarySearchFunc(image, addr, func(b DirtyBlock, a uint64) int { return cmp.Compare(b.Addr, a) })
	if !ok {
		return Block{}, false
	}
	return image[i].Data, true
}

// TestMachineImageInvariant pins what the crash oracle relies on instead of
// a separate golden image. Over the default torture, litmus and fleet
// workloads in every persistence domain, the machine's Image is strictly
// ascending and agrees with a Go-map model of every line written (a line
// never written reads as zero); every DirtyBlocks entry, which the drain
// writes and the oracle checks recovery against, is in it with equal Data;
// and Crash empties it.
func TestMachineImageInvariant(t *testing.T) {
	type named struct {
		name string
		w    *Workload
	}
	wls := []named{
		{"torture", defaultTortureWorkload(1)},
		{"litmus", defaultLitmusWorkload(1)},
	}
	for _, name := range []string{"uniform", "kv", "txlog", "zipf"} {
		w, err := fleetWorkload(name, WorkloadConfig{Ops: 64 + 8*16, WorkingSet: 4 << 10, Seed: 1, PersistPercent: 10})
		if err != nil {
			t.Fatal(err)
		}
		wls = append(wls, named{"fleet-" + name, w})
	}
	for _, wl := range wls {
		for _, domain := range []PersistDomain{DomainADR, DomainADRWPQ, DomainBBB, DomainEPD} {
			t.Run(fmt.Sprintf("%s/%v", wl.name, domain), func(t *testing.T) {
				ws := NewWorkloadSystem(TestConfig(), HorusSLM, domain)
				m := ws.Machine
				model := make(map[uint64]Block)
				for i, op := range wl.w.Ops {
					var err error
					switch op.Kind {
					case workload.OpRead:
						_, err = m.Read(op.Addr)
					case workload.OpWrite:
						var b Block
						binary.LittleEndian.PutUint64(b[:], uint64(i+1))
						err = m.Write(op.Addr, b)
						model[op.Addr] = b
					case workload.OpPersist:
						err = m.Persist(op.Addr)
					}
					if err != nil {
						t.Fatalf("op %d: %v", i, err)
					}
				}
				img := m.Image()
				if len(img) == 0 {
					t.Fatal("empty image after the workload")
				}
				for i, b := range img {
					if i > 0 && img[i-1].Addr >= b.Addr {
						t.Fatalf("image not strictly ascending at %d: %#x after %#x", i, b.Addr, img[i-1].Addr)
					}
					if b.Data != model[b.Addr] {
						t.Fatalf("image line %#x differs from the last write", b.Addr)
					}
				}
				for _, db := range m.DirtyBlocks() {
					if d, ok := imageAt(img, db.Addr); !ok || d != db.Data {
						t.Fatalf("dirty line %#x missing from the image or different", db.Addr)
					}
				}
				m.Crash()
				if n := len(m.Image()); n != 0 {
					t.Fatalf("image holds %d lines after Crash", n)
				}
			})
		}
	}
}
