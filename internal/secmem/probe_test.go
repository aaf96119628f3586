package secmem

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/bmt"
	"repro/internal/cache"
	"repro/internal/cme"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/timeline"
)

// probeSystem builds a controller with metadata caches small enough (four
// sets of eight ways) that almost every probe misses, evicts a dirty line
// and, under the lazy scheme, cascades into parent updates.
func probeSystem(scheme UpdateScheme) *Controller {
	lay := bmt.NewLayout(bmt.Config{DataSize: 64 << 20, CHVCapacity: 1024, VaultBlocks: 20000})
	cfg := DefaultConfig()
	cfg.Scheme = scheme
	cfg.CounterCacheBytes = 2 << 10
	cfg.MACCacheBytes = 2 << 10
	cfg.TreeCacheBytes = 2 << 10
	return New(cfg, lay, cme.NewEngine(99), mem.NewController(mem.DefaultConfig()))
}

// hookLog is a write hook that logs every write with the content that
// lands and, when every > 0, flips one bit of every every-th write, so
// write-backs made during probing change committed content.
type hookLog struct {
	every int
	n     int
	calls []string
}

func (h *hookLog) OnWrite(addr uint64, cat mem.Category, _, b mem.Block) (mem.Block, bool) {
	h.n++
	if h.every > 0 && h.n%h.every == 0 {
		b[h.n%mem.BlockSize] ^= 1
	}
	h.calls = append(h.calls, fmt.Sprintf("write %#x %s %x", addr, cat, b[:8]))
	return b, true
}

func (h *hookLog) OnStage(stage string) {}

// probeResult is one read's outcome: the block, the typed error, or the
// panic message of an integrity failure met during eviction handling.
type probeResult struct {
	b     mem.Block
	err   error
	panic string
}

func readOnce(read func() (mem.Block, error)) (r probeResult) {
	defer func() {
		if p := recover(); p != nil {
			r.panic = fmt.Sprint(p)
		}
	}()
	r.b, r.err = read()
	return r
}

// sameResult compares two outcomes, errors field for field.
func sameResult(a, b probeResult) bool {
	if a.b != b.b || a.panic != b.panic || (a.err == nil) != (b.err == nil) {
		return false
	}
	if a.err == nil {
		return true
	}
	var ea, eb *IntegrityError
	if !errors.As(a.err, &ea) || !errors.As(b.err, &eb) {
		return a.err.Error() == b.err.Error()
	}
	return *ea == *eb
}

// storeImage is the NVM store's content and per-block wear, sorted by
// address.
func storeImage(nvm *mem.Controller) string {
	var addrs []uint64
	img := map[uint64]mem.Block{}
	nvm.Store().Each(func(a uint64, b mem.Block) { addrs = append(addrs, a); img[a] = b })
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	var buf bytes.Buffer
	for _, a := range addrs {
		b := img[a]
		fmt.Fprintf(&buf, "%#x wear=%d %x\n", a, nvm.WearOf(a), b[:])
	}
	fmt.Fprintf(&buf, "%+v\n", nvm.WearStats())
	return buf.String()
}

// timingImage is everything a probe must leave alone: bank, bus and engine
// occupancy (published as gauges), access, MAC and AES counters, level
// fetches, attached metrics, timeline events and observer calls.
func timingImage(c *Controller, reg *obs.Registry, rec *timeline.Recorder, obsCalls int) string {
	c.nvm.PublishMetrics("probe", 1)
	c.PublishMetrics("probe", 1)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		panic(err)
	}
	fmt.Fprintf(&buf, "memLastDone=%d enginesLastDone=%d\n", c.nvm.LastDone(), c.EnginesLastDone())
	fmt.Fprintf(&buf, "reads=%v writes=%v\n", c.nvm.Reads(), c.nvm.Writes())
	fmt.Fprintf(&buf, "macs=%v aes=%d levels=%v\n", c.macCalcs, c.aesOps, c.levelFetches)
	for _, e := range []*sim.Engine{c.aes, c.mac} {
		fmt.Fprintf(&buf, "%s ops=%d busy=%d wait=%d\n", e.Name(), e.Ops(), e.BusyTime(), e.WaitTime())
	}
	fmt.Fprintf(&buf, "timeline=%d observer=%d\n", rec.Len(), obsCalls)
	return buf.String()
}

type countObserver struct{ n *int }

func (o countObserver) OnAccess(string, sim.Time, uint64, string) { *o.n++ }

// TestProbeBlockMatchesReadBlock is the differential check behind the crash
// oracles' functional probe sweep. Two controllers replay the same write
// history; one then reads an address sequence through the timed ReadBlock,
// the other probes it through ProbeBlock. Every functional outcome must
// agree — blocks, typed errors, NVM content and wear, hook calls, cache
// contents with their dirty bits and LRU state, the dirty lines' content and
// the root — while the probe side's timing state must not move at all.
func TestProbeBlockMatchesReadBlock(t *testing.T) {
	var probes, detections, panics int
	var dirtyEvictions int64
	for _, scheme := range []UpdateScheme{LazyUpdate, EagerUpdate} {
		for _, variant := range []string{"clean", "tamper", "faulty-writebacks"} {
			for seed := int64(1); seed <= 6; seed++ {
				name := fmt.Sprintf("%v/%s/seed%d", scheme, variant, seed)
				timed, probed := probeSystem(scheme), probeSystem(scheme)
				rng := rand.New(rand.NewSource(seed))
				var written []uint64
				var now sim.Time
				for i := 0; i < 400; i++ {
					addr := uint64(rng.Intn(1<<14)) * 4096
					if i%5 == 0 && len(written) > 0 {
						addr = written[rng.Intn(len(written))] // rewrite: counters advance
					}
					b := mem.Block{0: byte(i), 1: byte(i >> 8), 9: byte(seed)}
					t1, err1 := timed.WriteBlock(now, addr, b)
					t2, err2 := probed.WriteBlock(now, addr, b)
					if err1 != nil || err2 != nil || t1 != t2 {
						t.Fatalf("%s: write history diverged: %v %v %v %v", name, t1, t2, err1, err2)
					}
					now = t1
					written = append(written, addr)
				}
				if variant == "tamper" {
					addrs := timed.nvm.Store().AddressesInRange(0, ^uint64(0)>>1)
					for k := 0; k < 3; k++ {
						a := addrs[rng.Intn(len(addrs))]
						off, mask := rng.Intn(mem.BlockSize), byte(1)<<rng.Intn(8)
						timed.nvm.Store().CorruptByte(a, off, mask)
						probed.nvm.Store().CorruptByte(a, off, mask)
					}
				}
				hooksT, hooksP := &hookLog{}, &hookLog{}
				if variant == "faulty-writebacks" {
					hooksT.every, hooksP.every = 5, 5
				}
				timed.nvm.SetWriteHook(hooksT)
				probed.nvm.SetWriteHook(hooksP)

				reg := obs.NewRegistry()
				rec := timeline.NewRecorder(0)
				probed.nvm.Attach(probe.Probe{Metrics: reg, Timeline: rec})
				probed.Attach(probe.Probe{Metrics: reg, Timeline: rec})
				var obsCalls int
				probed.nvm.SetObserver(countObserver{&obsCalls})
				before := timingImage(probed, reg, rec, obsCalls)
				evBefore := dirtyEvictionCount(probed)

				for i := 0; i < 300; i++ {
					addr := written[rng.Intn(len(written))]
					if i%7 == 0 {
						addr = uint64(rng.Intn(1<<14)) * 4096 // mostly never written
					}
					rt := readOnce(func() (mem.Block, error) {
						b, done, err := timed.ReadBlock(now, addr)
						now = done
						return b, err
					})
					rp := readOnce(func() (mem.Block, error) { return probed.ProbeBlock(addr) })
					probes++
					if !sameResult(rt, rp) {
						t.Fatalf("%s probe %d of %#x: ReadBlock gave (%v, %v, %q), ProbeBlock gave (%v, %v, %q)",
							name, i, addr, rt.b, rt.err, rt.panic, rp.b, rp.err, rp.panic)
					}
					if probed.functional {
						t.Fatalf("%s: ProbeBlock left the controller in functional mode", name)
					}
					if rp.err != nil {
						detections++
					}
					if rp.panic != "" {
						panics++
						break // the controller is mid-cascade; stop both sides here
					}
				}
				dirtyEvictions += dirtyEvictionCount(probed) - evBefore

				if got, want := storeImage(probed.nvm), storeImage(timed.nvm); got != want {
					t.Fatalf("%s: NVM content or wear diverged", name)
				}
				if !reflect.DeepEqual(hooksP.calls, hooksT.calls) {
					t.Fatalf("%s: write-hook calls diverged (%d vs %d)", name, len(hooksP.calls), len(hooksT.calls))
				}
				for _, st := range []struct {
					what          string
					probed, timed any
				}{
					{"counter cache", probed.ctrCache, timed.ctrCache},
					{"MAC cache", probed.macCache, timed.macCache},
					{"tree cache", probed.treeCache, timed.treeCache},
					{"dirty-line content", dirtyImage(probed), dirtyImage(timed)},
					{"root register", probed.root, timed.root},
				} {
					if !reflect.DeepEqual(st.probed, st.timed) {
						t.Fatalf("%s: %s diverged", name, st.what)
					}
				}
				if after := timingImage(probed, reg, rec, obsCalls); after != before {
					t.Fatalf("%s: ProbeBlock moved timing state:\nbefore:\n%s\nafter:\n%s", name, before, after)
				}
			}
		}
	}
	// The comparison is only as strong as what it exercised.
	if dirtyEvictions == 0 || detections == 0 {
		t.Fatalf("weak run: %d probes, %d dirty evictions, %d detections, %d eviction panics",
			probes, dirtyEvictions, detections, panics)
	}
	t.Logf("%d probes, %d dirty evictions, %d detections, %d eviction panics", probes, dirtyEvictions, detections, panics)
}

// dirtyLine is one dirty metadata line's logical content, and whether it
// sits in the write-back buffer.
type dirtyLine struct {
	content  mem.Block
	evicting bool
}

// dirtyImage is every dirty line's content and write-back-buffer flag:
// the cached dirty lines read through their pool slots plus the write-back
// buffer's entries, independent of which pool slots the history handed
// out.
func dirtyImage(c *Controller) map[uint64]dirtyLine {
	out := map[uint64]dirtyLine{}
	for _, ca := range []*cache.Cache{c.ctrCache, c.macCache, c.treeCache} {
		ca.EachDirty(func(addr uint64, owner int32) { out[addr] = dirtyLine{content: c.pool[owner]} })
	}
	for _, w := range c.wb {
		out[w.addr] = dirtyLine{content: w.content, evicting: true}
	}
	return out
}

func dirtyEvictionCount(c *Controller) int64 {
	ctr, mac, tree := c.CacheStats()
	return ctr.DirtyEvictions + mac.DirtyEvictions + tree.DirtyEvictions
}
