package secmem

import (
	"math/rand"
	"testing"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/sim"
)

// slotOps are the operations of a dirty-line-slot run, one per four input
// bytes: the kind, two bytes of page number and the block within the page.
const (
	slotWrite = iota
	slotRewrite
	slotRead
	slotProbe
	slotFlush
	slotCrash
	slotKinds
)

// wbDepthProbe is a fault injector that injects nothing: it records the
// deepest write-back buffer seen at any NVM write, so a run can show that
// it cascaded.
type wbDepthProbe struct {
	c        *Controller
	maxDepth int
}

func (p *wbDepthProbe) OnWrite(uint64, mem.Category) mem.Fault {
	p.maxDepth = max(p.maxDepth, len(p.c.wb))
	return mem.Fault{}
}

func (p *wbDepthProbe) OnStage(string) {}

// slotRun is what a run exercised.
type slotRun struct {
	dirtyEvictions int64
	maxWBDepth     int
}

// runDirtyLineSlots replays data as secure writes, reads, probes, metadata
// flushes and crash-recoveries over 2 KB metadata caches, which overflow
// and, under the lazy scheme, cascade. After every operation it checks the
// slot bookkeeping: every dirty cached line holds a pool slot and every
// clean one none, the live slots and the free list partition the pool, and
// the write-back buffer is empty. Every read returns the last plaintext
// written. At the end a metadata flush (in place when eager, to the vault
// when lazy), a crash and a read-back return every written plaintext.
func runDirtyLineSlots(t *testing.T, eager bool, data []byte) slotRun {
	scheme := LazyUpdate
	if eager {
		scheme = EagerUpdate
	}
	c := probeSystem(scheme)
	wbProbe := &wbDepthProbe{c: c}
	c.nvm.SetFaultInjector(wbProbe)
	golden := map[uint64]mem.Block{}
	var written []uint64
	var now sim.Time

	read := func(op int, addr uint64, probe bool) {
		var got mem.Block
		var err error
		if probe {
			got, err = c.ProbeBlock(addr)
		} else {
			got, now, err = c.ReadBlock(now, addr)
		}
		if want := golden[addr]; err != nil || got != want {
			t.Fatalf("op %d: read of %#x (probe %v) gave %x, %v; want %x", op, addr, probe, got[:8], err, want[:8])
		}
	}
	crash := func() {
		rec, done := c.FlushMetadataCaches(now)
		now = done
		var lines []VaultLine
		if !eager {
			lines = readVaultForTest(c, rec)
		}
		c.Crash()
		c.ReinstallMetadata(lines)
	}

	for op := 0; op+3 < len(data) && op < 4*200; op += 4 {
		addr := (uint64(data[op+1])<<8|uint64(data[op+2]))%(1<<14)*4096 + uint64(data[op+3]%64)*mem.BlockSize
		switch int(data[op]) % slotKinds {
		case slotRewrite:
			if len(written) > 0 {
				addr = written[int(data[op+2])%len(written)]
			}
			fallthrough
		case slotWrite:
			b := mem.Block{0: byte(op), 1: byte(op >> 8), 2: 1}
			var err error
			if now, err = c.WriteBlock(now, addr, b); err != nil {
				t.Fatalf("op %d: write %#x: %v", op, addr, err)
			}
			if _, ok := golden[addr]; !ok {
				written = append(written, addr)
			}
			golden[addr] = b
		case slotRead, slotProbe:
			if len(written) > 0 && data[op+3]&0x80 == 0 {
				addr = written[int(data[op+2])%len(written)]
			}
			read(op, addr, int(data[op])%slotKinds == slotProbe)
		case slotFlush:
			_, now = c.FlushMetadataCaches(now)
		case slotCrash:
			crash()
		}
		checkSlots(t, op, c)
	}
	crash()
	checkSlots(t, len(data), c)
	for _, addr := range written {
		read(len(data), addr, false)
	}
	return slotRun{dirtyEvictions: dirtyEvictionCount(c), maxWBDepth: wbProbe.maxDepth}
}

// checkSlots checks the dirty-line slot bookkeeping between operations.
func checkSlots(t *testing.T, op int, c *Controller) {
	t.Helper()
	if len(c.wb) != 0 {
		t.Fatalf("op %d: write-back buffer holds %d lines between operations", op, len(c.wb))
	}
	owner := make([]int, len(c.pool)) // 0 unseen, 1 live, 2 free
	for _, ca := range []*cache.Cache{c.ctrCache, c.macCache, c.treeCache} {
		for _, addr := range ca.ValidLines() {
			s := ca.Owner(ca.WayOf(addr))
			if dirty := ca.IsDirty(addr); dirty != (s != 0) {
				t.Fatalf("op %d: %s line %#x dirty=%v holds slot %d", op, ca.Name(), addr, dirty, s)
			}
			if s == 0 {
				continue
			}
			if int(s) >= len(owner) || owner[s] != 0 {
				t.Fatalf("op %d: %s line %#x holds slot %d, out of range or shared", op, ca.Name(), addr, s)
			}
			owner[s] = 1
		}
	}
	for _, s := range c.free {
		if s <= 0 || int(s) >= len(owner) || owner[s] != 0 {
			t.Fatalf("op %d: free slot %d is out of range, live or listed twice", op, s)
		}
		owner[s] = 2
	}
	for s := 1; s < len(owner); s++ {
		if owner[s] == 0 {
			t.Fatalf("op %d: pool slot %d is neither live nor free", op, s)
		}
	}
}

// slotSeeds are random op sequences: mostly writes over the whole data
// region, so the metadata caches overflow and cascade, with reads, probes,
// flushes and crashes mixed in.
func slotSeeds() [][]byte {
	var seeds [][]byte
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 4*160)
		rng.Read(data)
		for op := 0; op < len(data); op += 4 {
			if r := rng.Intn(20); r < 12 {
				data[op] = byte(slotWrite)
			} else if r < 19 {
				data[op] = byte(slotRewrite + r%3)
			}
		}
		seeds = append(seeds, data)
	}
	return seeds
}

func FuzzDirtyLineSlots(f *testing.F) {
	for _, data := range slotSeeds() {
		f.Add(false, data)
		f.Add(true, data)
	}
	f.Fuzz(func(t *testing.T, eager bool, data []byte) { runDirtyLineSlots(t, eager, data) })
}

// TestDirtyLineSlotSeedsCascade pins that the fuzz seeds exercise what the
// slot checks guard: dirty evictions under both schemes, and, under the
// lazy scheme, nested eviction cascades through the write-back buffer.
func TestDirtyLineSlotSeedsCascade(t *testing.T) {
	for _, eager := range []bool{false, true} {
		var run slotRun
		for _, data := range slotSeeds() {
			r := runDirtyLineSlots(t, eager, data)
			run.dirtyEvictions += r.dirtyEvictions
			run.maxWBDepth = max(run.maxWBDepth, r.maxWBDepth)
		}
		if run.dirtyEvictions == 0 || (!eager && run.maxWBDepth < 2) {
			t.Fatalf("eager=%v: weak seeds: %d dirty evictions, write-back depth %d", eager, run.dirtyEvictions, run.maxWBDepth)
		}
		t.Logf("eager=%v: %d dirty evictions, write-back depth %d", eager, run.dirtyEvictions, run.maxWBDepth)
	}
}
