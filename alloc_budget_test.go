package horus

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"testing"

	"repro/internal/litmus"
)

// countMallocs returns the number of heap objects allocated while fn runs.
func countMallocs(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// allocBudgetSink keeps the crypto loop's MACs live.
var allocBudgetSink byte

// TestHotPathAllocBudgets is the allocation gate over the hot-path episodes:
// a drain per scheme, the 4k secure-write loop, the 8k encrypt+MAC loop, a
// thinned torture matrix and the timeline consumers (AnalyzeTimeline plus a
// Chrome export of a recorded Base-LU drain, 169,384 events), all at
// TestConfig with Shards 1. Object counts are deterministic up to a few
// objects of runtime noise and do not depend on the host, so the ceilings
// are tight where wall time could not be.
//
// Each ceiling is the count measured with go1.24 on linux/amd64 plus 10%,
// rounded down. Measured without -race / with -race: drains 39/39
// (NonSecure), 95/95 (Base-LU), 90/90 (Base-EU), 63/64 (Horus-SLM), 73/71
// (Horus-DLM); secure writes 66/66; encrypt+MAC 0/0; torture smoke
// ~35,050/~36,900; analyze+chrome 59-63/59-63 (3,632,419 when the
// consumers still allocated per event). A change that raises a count past
// its ceiling must either remove the allocations or re-measure and say why.
func TestHotPathAllocBudgets(t *testing.T) {
	cfg := TestConfig()
	cfg.Shards = 1
	drains := map[Scheme]uint64{NonSecure: 42, BaseLU: 104, BaseEU: 99, HorusSLM: 69, HorusDLM: 80}
	type episode struct {
		name    string
		ceiling uint64
		run     func() uint64
	}
	var eps []episode
	for _, s := range AllSchemes() {
		s := s
		eps = append(eps, episode{fmt.Sprintf("drain/%v", s), drains[s],
			func() uint64 { return drainMallocs(t, s, 1) }})
	}
	eps = append(eps,
		episode{"secure-write-4k", 72, func() uint64 {
			sys := NewSystem(cfg, BaseLU)
			return countMallocs(func() {
				for i := 0; i < 4096; i++ {
					addr := (uint64(i) * 4096) % cfg.DataSize
					if _, err := sys.Core.Sec.WriteBlock(0, addr, [64]byte{0: byte(i)}); err != nil {
						t.Fatal(err)
					}
				}
			})
		}},
		episode{"encrypt-mac-8k", 0, func() uint64 {
			eng := NewSystem(cfg, HorusSLM).Core.Enc
			// The counter is process-wide, and a GC cycle that the set-up
			// starts wakes the runtime's unique-map cleanup goroutine,
			// which allocates two objects. Finish that cycle first so it
			// cannot land inside the loop, which allocates nothing and so
			// starts no cycle of its own.
			runtime.GC()
			return countMallocs(func() {
				for i := 0; i < 8192; i++ {
					addr := uint64(i) * 64
					ct := eng.Encrypt(addr, uint64(i), [64]byte{0: byte(i)})
					mac := eng.DataMAC(addr, uint64(i), ct)
					allocBudgetSink ^= mac[0]
				}
			})
		}},
		episode{"torture-smoke", 38_550, func() uint64 {
			return countMallocs(func() {
				rep, err := RunTortureMatrix(context.Background(),
					TortureConfig{Config: cfg, Stride: 5, MaxPoints: 8}, SweepOptions{Parallel: 1})
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Ok() {
					t.Fatalf("torture smoke has %d failing cells", len(rep.Failures()))
				}
			})
		}},
		episode{"analyze+chrome/base-lu", 69, func() uint64 {
			cfg := cfg
			cfg.Timeline = NewTimelineRecorder(0)
			if _, err := RunDrain(cfg, BaseLU); err != nil {
				t.Fatal(err)
			}
			rec := cfg.Timeline.Recording()
			return countMallocs(func() {
				AnalyzeTimeline(rec)
				if err := WriteChromeTrace(io.Discard, rec); err != nil {
					t.Fatal(err)
				}
			})
		}},
	)
	for _, ep := range eps {
		if got := ep.run(); got > ep.ceiling {
			t.Errorf("%s allocates %d objects, budget %d", ep.name, got, ep.ceiling)
		}
	}
}

// countBytes returns the number of heap bytes allocated while fn runs.
func countBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestRecoveryRefillByteBudget gates the bytes, not objects, that one
// TestConfig Horus-SLM drain, crash and recovery allocate (Shards 1). The
// object count cannot see the regression it guards against: a hierarchy
// that regrows its dirty-line table on every refill allocates a few large
// arrays per growth step, not many small objects.
//
// The ceiling is the bytes measured with go1.24 on linux/amd64 plus 10%,
// rounded down: 1,238,776 without -race, 1,244,024 with it (2,598,472
// when the hierarchy was a Go map rebuilt from empty by every refill and
// the drain copied its blocks).
func TestRecoveryRefillByteBudget(t *testing.T) {
	const ceiling = 1_362_653
	cfg := TestConfig()
	cfg.Shards = 1
	sys := NewSystem(cfg, HorusSLM)
	if err := sys.Warmup(); err != nil {
		t.Fatal(err)
	}
	sys.Fill()
	var err error
	got := countBytes(func() {
		var res Result
		if res, err = sys.Drain(); err != nil {
			return
		}
		sys.Crash()
		_, err = sys.Recover(res.Persist)
	})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Hierarchy.DirtyCount() != sys.Hierarchy.Config().TotalLines() {
		t.Fatalf("recovery refilled %d of %d lines", sys.Hierarchy.DirtyCount(), sys.Hierarchy.Config().TotalLines())
	}
	t.Logf("drain+crash+recover allocates %d bytes", got)
	if got > ceiling {
		t.Errorf("drain+crash+recover allocates %d bytes, budget %d", got, ceiling)
	}
}

// TestLitmusOracleByteBudget gates the bytes a small litmus run allocates:
// one scheme (Horus-SLM) on the default litmus workload, two epochs, eight
// orderings per epoch and the single-bit coverage sweep, serially. Every
// ordering cell and coverage trial starts from a crash image; copying a
// prebuilt image into a recycled store allocates nothing per cell, where
// reserving and replaying a fresh store per cell allocated a
// final-image-sized table each time.
//
// The ceiling is the bytes measured with go1.24 on linux/amd64 plus 10%,
// rounded down: 14,872,264 without -race, 15,042,872 with it (33,522,680
// and 34,091,200 with a fresh store reserved per cell).
func TestLitmusOracleByteBudget(t *testing.T) {
	const ceiling = 16_359_490
	cfg := TestConfig()
	cfg.Shards = 1
	lc := LitmusConfig{
		Config:       cfg,
		Schemes:      []Scheme{HorusSLM},
		MaxEpochs:    2,
		MaxOrderings: 8,
		Corrupt:      []CorruptionModel{litmus.SingleBit},
	}
	var rep *LitmusReport
	var err error
	got := countBytes(func() {
		rep, err = RunLitmus(context.Background(), lc, SweepOptions{Parallel: 1})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("litmus run has failures: %v", rep.Failures())
	}
	t.Logf("litmus run allocates %d bytes (%d ordering cells, %d coverage cells)", got, len(rep.Cells), len(rep.Coverage))
	if got > ceiling {
		t.Errorf("litmus run allocates %d bytes, budget %d", got, ceiling)
	}
}

// TestNewSystemStoreByteBudget gates the bytes one DefaultConfig NewSystem
// build allocates for Horus-SLM and Base-LU. Almost all of it is the NVM
// store, reserved once from drainFootprint: dense block, address and wear
// arrays sized to exactly the footprint plus a 12-byte-per-slot address
// index. It builds machines only and runs no paper-scale drain.
//
// The ceilings are the bytes measured with go1.24 on linux/amd64 plus 10%,
// rounded down: 49,330,576 (Horus-SLM) and 137,509,360 (Base-LU) without
// -race, 49,337,872 and 137,511,024 with it (84,285,776 and 168,171,904 when
// every store slot was an 80-byte table entry at a 3/4 load limit rounded up
// to a power of two).
func TestNewSystemStoreByteBudget(t *testing.T) {
	for s, ceiling := range map[Scheme]uint64{HorusSLM: 54_263_633, BaseLU: 151_260_296} {
		if got := countBytes(func() { NewSystem(DefaultConfig(), s) }); got > ceiling {
			t.Errorf("%v: NewSystem(DefaultConfig()) allocates %d bytes, budget %d", s, got, ceiling)
		}
	}
}
