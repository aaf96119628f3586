package timeline_test

import (
	"context"
	"crypto/sha256"
	"reflect"
	"testing"

	horus "repro"
	"repro/internal/sim"
	"repro/internal/timeline"
)

// refKeyTies counts the events that can bind the critical path and repeat
// another such event's (Done, Ready, Kind, Track, Start, Op, Label). Kind
// stands in for the reference's kind priority, so this may undercount ties
// between two unknown kinds, which the simulator does not record.
func refKeyTies(rec *timeline.Recording) int {
	type key struct {
		done, ready, start     sim.Time
		kind, track, op, label string
	}
	seen := map[key]bool{}
	ties := 0
	for _, e := range rec.Events {
		if e.Done <= e.Ready || e.Done > rec.Total {
			continue
		}
		k := key{e.Done, e.Ready, e.Start, e.Kind, e.Track, e.Op, e.Label}
		if seen[k] {
			ties++
		}
		seen[k] = true
	}
	return ties
}

// TestFig11GridMatchesReference runs the TestConfig Fig. 11 grid with
// recovery and a timeline recorder attached, then checks every drain and
// recovery-path recording against the reference consumers: equal
// attributions and a byte-identical Chrome trace of the whole grid.
func TestFig11GridMatchesReference(t *testing.T) {
	cfg := horus.TestConfig()
	cfg.Timeline = horus.NewTimelineRecorder(0)
	var pts []horus.DrainPoint
	for _, s := range horus.AllSchemes() {
		pts = append(pts, horus.DrainPoint{Config: cfg, Scheme: s, Recover: true})
	}
	prs, err := horus.RunDrainGrid(context.Background(), pts, horus.SweepOptions{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	var recs []*timeline.Recording
	for _, pr := range prs {
		if pr.Err != nil {
			t.Fatalf("%v: %v", pr.Point.Scheme, pr.Err)
		}
		recs = append(recs, pr.Timeline)
		if r := pr.Recovery; r != nil {
			if r.Baseline != nil && r.Baseline.Timeline != nil {
				recs = append(recs, r.Baseline.Timeline)
			}
			if r.Horus != nil && r.Horus.Timeline != nil {
				recs = append(recs, r.Horus.Timeline)
			}
		}
	}
	if len(recs) != 10 {
		t.Fatalf("grid produced %d recordings, want 5 drains and 5 recovery paths", len(recs))
	}
	for _, rec := range recs {
		if len(rec.Events) == 0 {
			t.Fatalf("%s: empty recording", rec.Episode)
		}
		if n := refKeyTies(rec); n != 0 {
			t.Errorf("%s: %d candidate events tie on the reference key; the reference's pick among them is arbitrary", rec.Episode, n)
		}
		if got, want := timeline.Analyze(rec), timeline.RefAnalyze(rec); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: attribution differs from the reference", rec.Episode)
		}
	}
	got, want := sha256.New(), sha256.New()
	if err := timeline.WriteChromeTrace(got, recs...); err != nil {
		t.Fatal(err)
	}
	if err := timeline.RefWriteChromeTrace(want, recs...); err != nil {
		t.Fatal(err)
	}
	if g, w := got.Sum(nil), want.Sum(nil); !reflect.DeepEqual(g, w) {
		t.Errorf("grid Chrome trace differs from the reference: sha256 %x, want %x", g, w)
	}
}
