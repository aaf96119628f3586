package timeline

import (
	"fmt"
	"io"
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// drainLikeRecording synthesises an n-event episode shaped like a drain:
// 16 banks behind one command bus, a pipelined AES engine and a MAC unit,
// each operation ready when an earlier one completes, so the recording has
// queueing waits, engine tails, idle gaps and completion-time ties.
func drainLikeRecording(n int) *Recording {
	type track struct {
		name, kind, op, label string
		service, ii           sim.Time
	}
	tracks := []track{
		{name: "membus", kind: "bus", op: "write", label: "data", service: 5_000},
		{name: "aes", kind: "aes", op: "aes", label: "otp", service: 40_000, ii: 4_000},
		{name: "mac", kind: "mac", op: "mac", label: "chv-data-mac", service: 160_000, ii: 82_000},
	}
	for i := 0; i < 16; i++ {
		tracks = append(tracks, track{name: fmt.Sprintf("bank%02d", i), kind: "bank",
			op: "write", label: "chv-data", service: 500_000})
	}
	stages := []string{"drain:blocks", "drain:chv-stream", "drain:vault"}

	rng := rand.New(rand.NewSource(7))
	r := NewRecorder(-1)
	r.BeginEpisode("synthetic-drain")
	free := make([]sim.Time, len(tracks))
	done := make([]sim.Time, 0, n)
	var total sim.Time
	for i := 0; i < n; i++ {
		ti := rng.Intn(len(tracks))
		tr := tracks[ti]
		var ready sim.Time
		if len(done) > 0 {
			ready = done[len(done)-1-rng.Intn(min(len(done), 8))]
		}
		start := sim.MaxTime(ready, free[ti])
		end, fin := start+tr.service, start+tr.service
		if tr.ii > 0 {
			end = start + tr.ii
		}
		free[ti] = end
		done = append(done, fin)
		total = sim.MaxTime(total, fin)
		r.SetStage(stages[i*len(stages)/n])
		r.SetOp(tr.op, tr.label)
		r.OnReserve(tr.name, tr.kind, ready, start, end, fin)
	}
	r.EndEpisode(total + 1_000_000)
	return r.Recording()
}

// analyzeSink keeps benchmark results live.
var analyzeSink Attribution

func BenchmarkAnalyze(b *testing.B) {
	rec := drainLikeRecording(100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analyzeSink = Analyze(rec)
	}
}

func BenchmarkWriteChromeTrace(b *testing.B) {
	rec := drainLikeRecording(100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteChromeTrace(io.Discard, rec); err != nil {
			b.Fatal(err)
		}
	}
}

// TestWriteChromeTraceAllocsFlat keeps per-event allocation out of the
// exporter: beyond the Analyze it runs, exporting 100x the events allocates
// nothing more. Analyze itself may add only the reallocations of its growing
// walk slice (at least 1.25x each, so about 21 for 100x the steps).
func TestWriteChromeTraceAllocsFlat(t *testing.T) {
	allocs := func(n int) (export, analyze float64) {
		rec := drainLikeRecording(n)
		export = testing.AllocsPerRun(3, func() {
			if err := WriteChromeTrace(io.Discard, rec); err != nil {
				t.Fatal(err)
			}
		})
		analyze = testing.AllocsPerRun(3, func() { analyzeSink = Analyze(rec) })
		return export, analyze
	}
	smallExport, smallAnalyze := allocs(1_000)
	largeExport, largeAnalyze := allocs(100_000)
	t.Logf("allocations per export (of which Analyze): %.0f (%.0f) at 1k events, %.0f (%.0f) at 100k",
		smallExport, smallAnalyze, largeExport, largeAnalyze)
	if largeExport-largeAnalyze > smallExport-smallAnalyze+2 {
		t.Errorf("encoding 100k events allocates %.0f objects, 1k events %.0f: allocation grows with the event count",
			largeExport-largeAnalyze, smallExport-smallAnalyze)
	}
	if largeAnalyze > smallAnalyze+24 {
		t.Errorf("Analyze allocates %.0f objects for 100k events, %.0f for 1k", largeAnalyze, smallAnalyze)
	}
}
