package runsim

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

// Property: regardless of persistence domain, cache geometry pressure and
// spill traffic, the machine behaves like a flat map from address to
// last-written value.
func TestMachineLinearizesProperty(t *testing.T) {
	domains := []PersistDomain{DomainADR, DomainADRWPQ, DomainBBB, DomainEPD}
	f := func(seed int64, ops []uint16) bool {
		domain := domains[uint64(seed)%uint64(len(domains))]
		m, _, _ := newMachine(t, domain, true)
		rng := rand.New(rand.NewSource(seed))
		golden := make(map[uint64]mem.Block)
		for _, op := range ops {
			addr := (uint64(op) % 512) * 4096 // spans 2MB >> hierarchy
			switch op % 3 {
			case 0:
				var b mem.Block
				b[0] = byte(rng.Uint32()) | 1
				if err := m.Write(addr, b); err != nil {
					return false
				}
				golden[addr] = b
			case 1:
				got, err := m.Read(addr)
				if err != nil {
					return false
				}
				want := golden[addr] // zero block if never written
				if got != want {
					return false
				}
			case 2:
				if err := m.Persist(addr); err != nil {
					return false
				}
			}
		}
		// Final audit.
		for addr, want := range golden {
			got, err := m.Read(addr)
			if err != nil || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: after any operation sequence, in every persistence domain, the
// machine's Image is strictly ascending and holds exactly the cached lines,
// each with its last-written value (a Go-map model of every write); every
// DirtyBlocks entry is in it with equal Data; Crash empties it, and a
// crashed machine fills it again with what its reads return.
func TestDirtyBlocksSubsetOfGoldenProperty(t *testing.T) {
	domains := []PersistDomain{DomainADR, DomainADRWPQ, DomainBBB, DomainEPD}
	f := func(seed uint8, ops []uint16) bool {
		m, _, _ := newMachine(t, domains[int(seed)%len(domains)], seed%2 == 1)
		model := make(map[uint64]mem.Block)
		for i, op := range ops {
			addr := (uint64(op) % 256) * 4096
			switch op % 3 {
			case 0:
				b := mem.Block{0: byte(i + 1), 1: byte(i >> 8)}
				if err := m.Write(addr, b); err != nil {
					return false
				}
				model[addr] = b
			case 1:
				if _, err := m.Read(addr); err != nil {
					return false
				}
			case 2:
				if err := m.Persist(addr); err != nil {
					return false
				}
			}
		}
		if err := checkImage(m, model); err != nil {
			t.Log(err)
			return false
		}
		m.Crash()
		if len(m.Image()) != 0 || len(m.DirtyBlocks()) != 0 {
			t.Log("crash left lines in the image")
			return false
		}
		// No drain ran, so memory holds only the lines written back or
		// persisted: the refilled image must match what the reads return.
		reread := make(map[uint64]mem.Block, len(model))
		for addr := range model {
			b, err := m.Read(addr)
			if err != nil {
				return false
			}
			reread[addr] = b
		}
		if err := checkImage(m, reread); err != nil {
			t.Log("after crash:", err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// checkImage compares the machine's Image with its cache levels, its dirty
// lines and the model of every line written (absent lines read as zero).
func checkImage(m *Machine, model map[uint64]mem.Block) error {
	img := m.Image()
	cached := 0
	for _, c := range m.levels {
		cached += c.CountValid()
	}
	if len(img) != cached {
		return fmt.Errorf("image holds %d lines, hierarchy caches %d", len(img), cached)
	}
	at := make(map[uint64]mem.Block, len(img))
	for i, b := range img {
		if i > 0 && img[i-1].Addr >= b.Addr {
			return fmt.Errorf("image not strictly ascending at %d: %#x after %#x", i, b.Addr, img[i-1].Addr)
		}
		if m.findLevel(b.Addr) < 0 {
			return fmt.Errorf("image line %#x is not cached", b.Addr)
		}
		if b.Data != model[b.Addr] {
			return fmt.Errorf("image line %#x differs from the last write", b.Addr)
		}
		at[b.Addr] = b.Data
	}
	for _, db := range m.DirtyBlocks() {
		if d, ok := at[db.Addr]; !ok || d != db.Data {
			return fmt.Errorf("dirty line %#x missing from the image or different", db.Addr)
		}
	}
	return nil
}
