package secmem

import (
	"math/rand"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

// logicalRead returns the current logical content of a metadata line that
// is present in a cache: its pool slot if dirty, otherwise NVM content.
func (c *Controller) logicalRead(addr uint64) mem.Block {
	ca := c.cacheOfAddr(addr, "reading")
	return c.wayContent(ca, ca.WayOf(addr), addr)
}

// checkInvariant verifies that every persisted (non-dirty-cached) tree and
// counter node matches its parent's logical entry. It walks all NVM blocks
// the test has touched via the golden address list.
func (c *Controller) checkInvariant(t *testing.T, step int) {
	t.Helper()
	lay := c.lay
	for level := 0; level < lay.RootLevel(); level++ {
		for index := uint64(0); index < lay.LevelCount[level]; index++ {
			addr := lay.NodeAddr(level, index)
			var content mem.Block
			if c.cacheFor(level).Contains(addr) {
				content = c.logicalRead(addr)
			} else {
				content = c.nvm.PeekRead(addr)
			}
			if content.IsZero() {
				continue
			}
			// Parent logical entry.
			pLevel, pIndex, slot := lay.Parent(level, index)
			var parent mem.Block
			if pLevel == lay.RootLevel() {
				parent = c.root
			} else if c.cacheFor(pLevel).Contains(lay.NodeAddr(pLevel, pIndex)) {
				parent = c.logicalRead(lay.NodeAddr(pLevel, pIndex))
			} else {
				parent = c.nvm.PeekRead(lay.NodeAddr(pLevel, pIndex))
			}
			expected := entryOf(parent, slot)
			if c.cacheFor(level).IsDirty(addr) {
				continue // dirty lines may be newer than the parent entry
			}
			if expected == zeroMAC {
				t.Fatalf("step %d: node (%d,%d) nonzero but parent entry zero (node dirty=%v, parent cached=%v)",
					step, level, index,
					c.cacheFor(level).IsDirty(addr),
					pLevel != lay.RootLevel() && c.cacheFor(pLevel).Contains(lay.NodeAddr(pLevel, pIndex)))
			}
			if c.eng.NodeMAC(level, index, content) != expected {
				t.Fatalf("step %d: node (%d,%d) MAC mismatch vs parent entry", step, level, index)
			}
		}
	}
}

func TestInvariantUnderChurn(t *testing.T) {
	c, _, _ := testSystem(t, LazyUpdate)
	rng := rand.New(rand.NewSource(5))
	var now sim.Time
	for i := 0; i < 600; i++ {
		addr := uint64(rng.Intn(1<<14)) * 4096
		done, err := c.WriteBlock(now, addr, block(byte(i)))
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		now = done
		if i%25 == 0 {
			c.checkInvariant(t, i)
		}
	}
	c.checkInvariant(t, 600)
}
