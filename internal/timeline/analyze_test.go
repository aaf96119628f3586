package timeline

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// recWith builds a recording directly, bypassing the recorder.
func recWith(total sim.Time, events ...Event) *Recording {
	return &Recording{Episode: "test", Total: total, Events: events}
}

// checkTiling asserts the attribution steps tile [0, Total) exactly and the
// shares sum to Total — the invariant that makes "attribution == measured
// drain time" hold for every episode.
func checkTiling(t *testing.T, att Attribution) {
	t.Helper()
	var cursor sim.Time
	for i, s := range att.Steps {
		if s.From != cursor {
			t.Fatalf("step %d starts at %d, want %d (gap or overlap)", i, s.From, cursor)
		}
		if s.To <= s.From {
			t.Fatalf("step %d is empty or reversed: [%d,%d)", i, s.From, s.To)
		}
		cursor = s.To
	}
	if cursor != att.Total {
		t.Fatalf("steps end at %d, want total %d", cursor, att.Total)
	}
	if got := att.AttributedTotal(); got != att.Total {
		t.Fatalf("shares sum to %d, want total %d", got, att.Total)
	}
}

func TestAnalyzeSingleChain(t *testing.T) {
	// aes [0,40) -> mac [40,120) -> bank write [120,620).
	att := Analyze(recWith(620,
		Event{Track: "aes", Kind: "aes", Op: "aes", Ready: 0, Start: 0, End: 4, Done: 40},
		Event{Track: "mac", Kind: "mac", Op: "mac", Ready: 40, Start: 40, End: 122, Done: 120},
		Event{Track: "bank00", Kind: "bank", Op: "write", Ready: 120, Start: 120, End: 620, Done: 620},
	))
	checkTiling(t, att)
	if got := att.Share("bank").Service; got != 500 {
		t.Errorf("bank service = %d, want 500", got)
	}
	if got := att.Share("mac").Service; got != 80 {
		t.Errorf("mac service = %d, want 80", got)
	}
	if got := att.Share("aes").Service; got != 40 {
		t.Errorf("aes service = %d, want 40", got)
	}
	if idle := att.Share("idle").Total(); idle != 0 {
		t.Errorf("idle = %d, want 0", idle)
	}
}

func TestAnalyzeWaitAttribution(t *testing.T) {
	// Two bank ops: the second is ready at 0 but queues until 100.
	att := Analyze(recWith(200,
		Event{Track: "bank00", Kind: "bank", Ready: 0, Start: 0, End: 100, Done: 100},
		Event{Track: "bank00", Kind: "bank", Ready: 0, Start: 100, End: 200, Done: 200},
	))
	checkTiling(t, att)
	sh := att.Share("bank")
	if sh.Service != 100 || sh.Wait != 100 {
		t.Errorf("bank service/wait = %d/%d, want 100/100", sh.Service, sh.Wait)
	}
}

func TestAnalyzeIdleGap(t *testing.T) {
	// Event completes at 100; episode measured to 150 (engine tail etc.).
	att := Analyze(recWith(150,
		Event{Track: "bank00", Kind: "bank", Ready: 0, Start: 0, End: 100, Done: 100},
	))
	checkTiling(t, att)
	if idle := att.Share("idle").Total(); idle != 50 {
		t.Errorf("idle = %d, want 50", idle)
	}
	// Idle sorts last in the shares.
	if last := att.Shares[len(att.Shares)-1].Resource; last != "idle" {
		t.Errorf("last share = %q, want idle", last)
	}
}

func TestAnalyzeTieBreaksDeterministic(t *testing.T) {
	mac := Event{Track: "mac", Kind: "mac", Op: "mac", Stage: "drain:a", Ready: 0, Start: 0, End: 82, Done: 100}
	macB := mac
	macB.Stage = "drain:b"
	for _, c := range []struct {
		x, y         Event
		track, stage string
	}{
		// Two events complete at 100; the one with the smaller Ready binds
		// (chains furthest back).
		{Event{Track: "bank00", Kind: "bank", Ready: 20, Start: 20, End: 100, Done: 100},
			Event{Track: "bank01", Kind: "bank", Ready: 0, Start: 0, End: 100, Done: 100}, "bank01", ""},
		// Equal but for their stage: the smaller stage binds.
		{mac, macB, "mac", "drain:a"},
	} {
		a := Analyze(recWith(100, c.x, c.y))
		b := Analyze(recWith(100, c.y, c.x))
		checkTiling(t, a)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("input order changed the attribution:\n%+v\n%+v", a, b)
		}
		if last := a.Steps[len(a.Steps)-1]; last.Track != c.track || last.Stage != c.stage {
			t.Errorf("binding track/stage = %q/%q, want %q/%q", last.Track, last.Stage, c.track, c.stage)
		}
	}
}

func TestAnalyzeZeroProgressEventsIgnored(t *testing.T) {
	// A combinational issue (done == ready) must not stall the walk.
	att := Analyze(recWith(100,
		Event{Track: "xor", Kind: "aes", Ready: 100, Start: 100, End: 100, Done: 100},
		Event{Track: "bank00", Kind: "bank", Ready: 0, Start: 0, End: 100, Done: 100},
	))
	checkTiling(t, att)
	if att.Share("bank").Service != 100 {
		t.Errorf("bank service = %d, want 100", att.Share("bank").Service)
	}
}

func TestAnalyzeEmptyAndNil(t *testing.T) {
	if att := Analyze(nil); len(att.Steps) != 0 || att.Total != 0 {
		t.Error("nil recording produced steps")
	}
	att := Analyze(recWith(100))
	checkTiling(t, att)
	if att.Share("idle").Total() != 100 {
		t.Error("eventless recording should be all idle")
	}
}

func TestAnalyzeEngineOverlappingTails(t *testing.T) {
	// Pipelined MAC: issue slots [0,82) and [82,164), completions at 160
	// and 242. In-flight tails overlap; the walk must still tile exactly.
	att := Analyze(recWith(242,
		Event{Track: "mac", Kind: "mac", Ready: 0, Start: 0, End: 82, Done: 160},
		Event{Track: "mac", Kind: "mac", Ready: 0, Start: 82, End: 164, Done: 242},
	))
	checkTiling(t, att)
	sh := att.Share("mac")
	if sh.Service+sh.Wait != 242 {
		t.Errorf("mac total = %d, want 242", sh.Service+sh.Wait)
	}
}

func TestPublishEmitsCriticalPathCounters(t *testing.T) {
	att := Analyze(recWith(150,
		Event{Track: "bank00", Kind: "bank", Ready: 0, Start: 50, End: 100, Done: 100},
	))
	checkTiling(t, att)
	reg := obs.NewRegistry()
	att.Publish(reg, "scheme", "Horus-SLM")
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`horus_critical_path_ps{phase="service",resource="bank",scheme="Horus-SLM"} 50`,
		`horus_critical_path_ps{phase="wait",resource="bank",scheme="Horus-SLM"} 50`,
		`horus_critical_path_ps{phase="idle",resource="idle",scheme="Horus-SLM"} 50`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in exposition:\n%s", want, out)
		}
	}
	att.Publish(nil) // nil-safe
}
