package horus

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/litmus"
	"repro/internal/mem"
)

// smallLitmusWorkload keeps test-suite litmus runs fast: a stream the size
// of the torture matrix's, so recording and materialisation stay cheap.
func smallLitmusWorkload(seed int64) *Workload {
	return UniformWorkload(WorkloadConfig{
		Ops:            120,
		WorkingSet:     4 << 10,
		Seed:           seed,
		PersistPercent: 10,
	})
}

func testLitmusConfig(schemes ...Scheme) LitmusConfig {
	return LitmusConfig{
		Config:        TestConfig(),
		Schemes:       schemes,
		NewWorkload:   smallLitmusWorkload,
		MaxOrderings:  16,
		MaxEpochs:     3,
		Corrupt:       []CorruptionModel{litmus.SingleBit, litmus.Rollback},
		CorruptTrials: 2,
	}
}

// TestLitmusContract runs the reordering sweep and coverage sweep over all
// four secure schemes and asserts the never-silent contract: every
// admissible ordering recovers, partially recovers, or detects — and every
// scheme's completed drain restores exactly.
func TestLitmusContract(t *testing.T) {
	lc := testLitmusConfig() // all four secure schemes
	rep, err := RunLitmus(context.Background(), lc, SweepOptions{Parallel: 4})
	if err != nil {
		t.Fatalf("RunLitmus: %v", err)
	}
	if fails := rep.Failures(); len(fails) > 0 {
		for _, f := range fails {
			t.Errorf("contract violation: %s", f)
		}
	}
	if rep.Witness != nil {
		t.Errorf("witness on a passing run: %+v", rep.Witness)
	}
	restored := map[Scheme]bool{}
	cells := map[Scheme]int{}
	for _, c := range rep.Cells {
		cells[c.Scheme]++
		if c.Outcome == OutcomeRestored {
			restored[c.Scheme] = true
		}
	}
	for _, s := range []Scheme{BaseLU, BaseEU, HorusSLM, HorusDLM} {
		if cells[s] == 0 {
			t.Errorf("%v: no ordering cells ran", s)
		}
		// The complete final-epoch ordering is the control: it must restore.
		if !restored[s] {
			t.Errorf("%v: no ordering restored exactly (complete-drain control missing)", s)
		}
		if rep.Steps[s] == 0 || rep.Epochs[s] == 0 {
			t.Errorf("%v: steps=%d epochs=%d recorded", s, rep.Steps[s], rep.Epochs[s])
		}
	}
	if len(rep.Coverage) == 0 {
		t.Error("coverage sweep produced no cells")
	}
	for _, c := range rep.Coverage {
		if c.Detected+c.Silent+c.Masked+c.Internal != c.Trials {
			t.Errorf("%v/%v/%s: verdicts do not sum to trials: %+v", c.Scheme, c.Model, c.Target, c)
		}
		// Unkeyed corruption (single-bit here) must never be silent.
		if c.Model == litmus.SingleBit && c.Silent > 0 {
			t.Errorf("%v/%s: %d single-bit corruptions silently accepted", c.Scheme, c.Target, c.Silent)
		}
	}
}

// TestLitmusParallelDeterminism pins the engine guarantee the CLI documents:
// -parallel 1 and -parallel 8 produce byte-identical reports.
func TestLitmusParallelDeterminism(t *testing.T) {
	lc := testLitmusConfig(BaseLU, HorusSLM)
	a, err := RunLitmus(context.Background(), lc, SweepOptions{Parallel: 1})
	if err != nil {
		t.Fatalf("parallel=1: %v", err)
	}
	b, err := RunLitmus(context.Background(), lc, SweepOptions{Parallel: 8})
	if err != nil {
		t.Fatalf("parallel=8: %v", err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("reports differ across parallelism:\n p1: %+v\n p8: %+v", a, b)
	}
}

// TestLitmusSampledOrderingBudget asserts the sampled generator reaches the
// distinct-ordering target on the bulk drain epoch.
func TestLitmusSampledOrderingBudget(t *testing.T) {
	lc := LitmusConfig{
		Config:       TestConfig(),
		Schemes:      []Scheme{HorusSLM},
		MaxOrderings: 128,
		MaxEpochs:    1, // epoch 0 is the bulk CHV stream
	}
	rep, err := RunLitmus(context.Background(), lc, SweepOptions{Parallel: 8})
	if err != nil {
		t.Fatalf("RunLitmus: %v", err)
	}
	if len(rep.Cells) < 100 {
		t.Fatalf("bulk epoch explored %d distinct orderings, want >= 100", len(rep.Cells))
	}
	if !rep.Ok() {
		t.Fatalf("bulk epoch violations: %v", rep.Failures())
	}
}

// litmusFuzzFixture records one episode per scheme once per process; fuzz
// executions only materialise and classify.
var litmusFuzzFixture struct {
	sync.Once
	eps map[Scheme]*litmusEpisode
	cfg Config
	err error
}

func litmusFixture(t testing.TB) (map[Scheme]*litmusEpisode, Config) {
	f := &litmusFuzzFixture
	f.Do(func() {
		f.cfg = TestConfig()
		f.cfg.Metrics = nil
		f.eps = map[Scheme]*litmusEpisode{}
		w := smallLitmusWorkload(f.cfg.Seed)
		for _, s := range []Scheme{BaseLU, HorusSLM} {
			ep, err := recordLitmusEpisode(f.cfg, s, w)
			if err != nil {
				f.err = err
				return
			}
			f.eps[s] = ep
		}
	})
	if f.err != nil {
		t.Fatalf("recording litmus fixture: %v", f.err)
	}
	return f.eps, f.cfg
}

// FuzzLitmusOrdering drives arbitrary seeds through the sampler and the
// recovery oracle: any admissible ordering of any epoch must classify as
// restored, partial or detected — never panic, never silently corrupt.
func FuzzLitmusOrdering(f *testing.F) {
	f.Add(uint64(1), uint8(0), false)
	f.Add(uint64(42), uint8(1), true)
	f.Add(uint64(0xdeadbeef), uint8(2), false)
	f.Fuzz(func(t *testing.T, seed uint64, epochPick uint8, horusScheme bool) {
		eps, cfg := litmusFixture(t)
		scheme := BaseLU
		if horusScheme {
			scheme = HorusSLM
		}
		ep := eps[scheme]
		ei := int(epochPick) % len(ep.epochs)
		e := ep.epochs[ei]
		o := litmus.SampleOrdering(ep.writes[e.Lo:e.Hi], seed)
		out, detail, _ := ep.classifyOrdering(cfg, ei, o)
		if !out.OK() {
			t.Fatalf("%v epoch %d seed %#x: %v (%s) applied=%v", scheme, ei, seed, out, detail, o.Applied)
		}
	})
}

// refMaterialize is the materialiser as first written, kept as the
// reference for the recycled one: a fresh store reserved as the recorder
// reserves base, the pre-drain image copied in block by block, then every
// write before epoch ei and the applied subset of epoch ei replayed.
func (ep *litmusEpisode) refMaterialize(cfg Config, ei int, applied []int) *core.System {
	sys, _ := newCoreSystem(cfg, ep.scheme, true)
	st := sys.NVM.Store()
	st.Reserve(ep.base.Cap())
	ep.pre.Each(func(a uint64, b mem.Block) { st.WriteBlock(a, b) })
	e := ep.epochs[ei]
	for _, w := range ep.writes[:e.Lo] {
		st.WriteBlock(w.Addr, w.Data)
	}
	for _, i := range applied {
		w := ep.writes[e.Lo+i]
		st.WriteBlock(w.Addr, w.Data)
	}
	sys.Sec.Crash()
	sys.Sec.RestoreRoot(ep.snaps[ei].Root)
	return sys
}

// diffImages describes the first difference between two NVM images —
// populated count, table capacity, Each order and content, wear — or
// returns "" when they are identical.
func diffImages(got, want *mem.Controller) string {
	gs, ws := got.Store(), want.Store()
	if gs.Populated() != ws.Populated() || gs.Cap() != ws.Cap() {
		return fmt.Sprintf("Populated/Cap %d/%d, want %d/%d", gs.Populated(), gs.Cap(), ws.Populated(), ws.Cap())
	}
	type blk struct {
		a uint64
		b mem.Block
	}
	var ga, wa []blk
	gs.Each(func(a uint64, b mem.Block) { ga = append(ga, blk{a, b}) })
	ws.Each(func(a uint64, b mem.Block) { wa = append(wa, blk{a, b}) })
	for i := range wa {
		if ga[i] != wa[i] {
			return fmt.Sprintf("Each position %d: block %#x (content equal: %v), want %#x", i, ga[i].a, ga[i].b == wa[i].b, wa[i].a)
		}
	}
	if g, w := got.WearStats(), want.WearStats(); g != w {
		return fmt.Sprintf("wear %+v, want %+v", g, w)
	}
	return ""
}

// TestLitmusMaterializeMatchesReference checks the recycled materialiser
// against refMaterialize on every secure scheme: several orderings of each
// epoch and the complete image must match in content, populated count,
// table capacity, Each order and wear. One store serves every cell,
// including after it comes back from a recovery and a coverage corruption
// (wear and extra content to undo) and after it grew past base's size (the
// reallocation path).
func TestLitmusMaterializeMatchesReference(t *testing.T) {
	cfg := TestConfig()
	// The default workload, not the small one: its drain populates enough
	// blocks past the pre-drain image that base's table is larger than
	// pre's, so slot layout (not just content) is under test.
	w := defaultLitmusWorkload(cfg.Seed)
	for _, s := range []Scheme{BaseLU, BaseEU, HorusSLM, HorusDLM} {
		ep, err := recordLitmusEpisode(cfg, s, w)
		if err != nil {
			t.Fatal(err)
		}
		if ep.base.Cap() == ep.pre.Cap() {
			t.Fatalf("%v: base and pre tables have the same capacity %d; slot layout is untested", s, ep.base.Cap())
		}
		var store *mem.Store
		check := func(label string, got, want *core.System) {
			t.Helper()
			if store == nil {
				store = got.NVM.Store()
			} else if got.NVM.Store() != store {
				t.Fatalf("%v %s: cell got a new store instead of the recycled one", s, label)
			}
			if d := diffImages(got.NVM, want.NVM); d != "" {
				t.Fatalf("%v %s: %s", s, label, d)
			}
			ep.release(got)
		}
		orderings := func(ei int) []litmus.Ordering {
			e := ep.epochs[ei]
			ords := litmus.Orderings(ep.writes[e.Lo:e.Hi], litmus.Options{Seed: uint64(ei) + 1, MaxOrderings: 4})
			return ords[:min(len(ords), 4)]
		}
		for ei := range ep.epochs {
			for _, o := range orderings(ei) {
				check(fmt.Sprintf("epoch %d %s%v", ei, o.Kind, o.Applied), ep.materialize(cfg, ei, o.Applied), ep.refMaterialize(cfg, ei, o.Applied))
			}
		}
		last := len(ep.epochs) - 1
		all := make([]int, ep.epochs[last].Size())
		for i := range all {
			all[i] = i
		}
		check("complete", ep.crashed(cfg, ep.complete, last), ep.refMaterialize(cfg, last, all))

		// Recovery writes (and wears) the store; a corruption changes one
		// victim. Both must be gone from the next cell's image.
		addrs := ep.probeAddrs()
		ref, err := ep.referenceProbe(cfg, addrs)
		if err != nil {
			t.Fatal(err)
		}
		var pool []uint64
		for _, region := range coverageRegions {
			if pool = ep.victimPool(region, false); len(pool) > 0 {
				break
			}
		}
		if verdict, detail, _ := ep.coverageTrial(cfg, litmus.SingleBit, pool[0], 3, ref, addrs); verdict == "silent" || verdict == "internal" {
			t.Fatalf("%v: single-bit trial on %#x: %s (%s)", s, pool[0], verdict, detail)
		}
		if len(ep.spare) != 1 || ep.spare[0] != store {
			t.Fatalf("%v: %d spare stores after the coverage trial, want the one recycled store", s, len(ep.spare))
		}
		if store.Cap() != ep.base.Cap() {
			t.Fatalf("%v: the coverage trial's recovery grew the recycled store from %d to %d blocks", s, ep.base.Cap(), store.Cap())
		}
		if d := diffImages(storeController(store), ep.refMaterialize(cfg, last, all).NVM); d == "" {
			t.Fatalf("%v: recovery and corruption left the recycled store unchanged", s)
		}
		for _, o := range orderings(0) {
			check(fmt.Sprintf("after recovery: epoch 0 %s%v", o.Kind, o.Applied), ep.materialize(cfg, 0, o.Applied), ep.refMaterialize(cfg, 0, o.Applied))
		}

		// Grow the recycled store's table past base's capacity.
		sys := ep.materialize(cfg, last, nil)
		st := sys.NVM.Store()
		for i := 0; st.Cap() <= ep.base.Cap(); i++ {
			st.WriteBlock(1<<40+uint64(i)*mem.BlockSize, mem.Block{0: 1})
		}
		ep.release(sys)
		for _, o := range orderings(last) {
			check(fmt.Sprintf("after growth: epoch %d %s%v", last, o.Kind, o.Applied), ep.materialize(cfg, last, o.Applied), ep.refMaterialize(cfg, last, o.Applied))
		}
	}
}

// TestLitmusCompleteImageIsDrainedStore checks on every secure scheme that
// the complete crash image (base plus every recorded write) holds exactly
// what the drain left in NVM: the same populated blocks with the same
// content. The probe address set, the victim pools and base's sizing all
// read the complete image on the strength of it.
func TestLitmusCompleteImageIsDrainedStore(t *testing.T) {
	cfg := TestConfig()
	w := defaultLitmusWorkload(cfg.Seed)
	for _, s := range []Scheme{BaseLU, BaseEU, HorusSLM, HorusDLM} {
		ep, err := recordLitmusEpisode(cfg, s, w)
		if err != nil {
			t.Fatal(err)
		}
		ws := NewWorkloadSystem(cfg, s, DomainEPD)
		if err := ws.Run(w); err != nil {
			t.Fatal(err)
		}
		if _, err := ws.drainer.Drain(ws.Machine.DirtyBlocks()); err != nil {
			t.Fatal(err)
		}
		drained := ws.Core.NVM.Store()
		if g, w := ep.complete.Populated(), drained.Populated(); g != w {
			t.Fatalf("%v: complete image populates %d blocks, the drained store %d", s, g, w)
		}
		blocks := make(map[uint64]mem.Block, drained.Populated())
		drained.Each(func(a uint64, b mem.Block) { blocks[a] = b })
		ep.complete.Each(func(a uint64, b mem.Block) {
			if want, ok := blocks[a]; !ok || b != want {
				t.Errorf("%v: block %#x: in drained store %v, content equal %v", s, a, ok, b == want)
			}
		})
	}
}

// storeController wraps a bare store in a controller so diffImages can read
// its wear.
func storeController(st *mem.Store) *mem.Controller {
	c := mem.NewController(TestConfig().Mem)
	c.UseStore(st)
	return c
}
