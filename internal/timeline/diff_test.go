package timeline

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/sim"
)

// Strings for random recordings: plain simulator names plus every quoting
// case the exporter must reproduce (quotes, backslashes, non-ASCII, control
// bytes, invalid UTF-8 at either end, the empty string).
var (
	diffTracks = []string{"bank00", "bank01", "membus", "aes", "mac",
		`bank"q"`, `back\slash`, "bänk", "ctl\x01\n", "\xffbad", "bad\xe2\x82", ""}
	diffKinds  = []string{"bank", "bus", "aes", "mac", "pmu", "x\"y", ""}
	diffOps    = []string{"", "read", "write", "mac", "é", "\xe2\x82"}
	diffLabels = []string{"", "data", "chv-data", "\x82tail", "tab\t"}
	diffStages = []string{"", "drain:blocks", "drain:chv-stream", "ünï"}
)

// refKey is the seven-field tie key of the reference analyzer.
type refKey struct {
	done, ready      sim.Time
	prio             int
	track, op, label string
	start            sim.Time
}

// randRecording draws a recording whose times sit on a coarse grid, so
// Done, Ready and kind priority tie often. With noTies it keeps at most one
// event per seven-field reference key, which makes the reference analyzer's
// choice independent of its sort's handling of equal elements.
func randRecording(rng *rand.Rand, noTies bool) *Recording {
	pick := func(s []string) string { return s[rng.Intn(len(s))] }
	rec := &Recording{Dropped: int64(rng.Intn(3))}
	if rng.Intn(5) > 0 {
		rec.Episode = pick([]string{"Horus-SLM", "Base-LU", `ep"\`, "épisode"})
	}
	seen := map[refKey]bool{}
	n := rng.Intn(120)
	var maxDone sim.Time
	for i := 0; i < n; i++ {
		ready := sim.Time(rng.Intn(40) * 50)
		start := ready + sim.Time(rng.Intn(4)*50)
		end := start + sim.Time(rng.Intn(4)*25)
		done := end + sim.Time(rng.Intn(3)*25)
		if rng.Intn(8) == 0 {
			done = ready // zero progress
		}
		e := Event{Track: pick(diffTracks), Kind: pick(diffKinds), Op: pick(diffOps),
			Label: pick(diffLabels), Stage: pick(diffStages),
			Ready: ready, Start: start, End: end, Done: done}
		k := refKey{e.Done, e.Ready, kindPriority(e.Kind), e.Track, e.Op, e.Label, e.Start}
		if noTies && seen[k] {
			continue
		}
		seen[k] = true
		rec.Events = append(rec.Events, e)
		maxDone = sim.MaxTime(maxDone, done)
	}
	switch rng.Intn(6) {
	case 0:
		rec.Total = 0
	case 1:
		rec.Total = maxDone / 2 // clips late events
	default:
		rec.Total = maxDone + sim.Time(rng.Intn(3)*100)
	}
	return rec
}

// TestAnalyzeMatchesReference compares Analyze with the reference analyzer
// on random recordings without seven-field ties.
func TestAnalyzeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	if got, want := Analyze(nil), refAnalyze(nil); !reflect.DeepEqual(got, want) {
		t.Fatalf("nil recording: got %+v, want %+v", got, want)
	}
	for i := 0; i < 400; i++ {
		rec := randRecording(rng, true)
		got, want := Analyze(rec), refAnalyze(rec)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("recording %d (%d events): attribution differs\n got %+v\nwant %+v", i, len(rec.Events), got, want)
		}
	}
}

// TestWriteChromeTraceMatchesReference compares the exporter's bytes with
// the reference exporter's, over batches of random recordings with nil
// entries and unnamed episodes mixed in.
func TestWriteChromeTraceMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 300; i++ {
		var recs []*Recording
		for j := rng.Intn(4); j >= 0; j-- {
			if rng.Intn(6) == 0 {
				recs = append(recs, nil)
				continue
			}
			recs = append(recs, randRecording(rng, true))
		}
		var got, want bytes.Buffer
		if err := WriteChromeTrace(&got, recs...); err != nil {
			t.Fatal(err)
		}
		if err := refWriteChromeTrace(&want, recs...); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("batch %d: Chrome trace differs\n--- got ---\n%s\n--- want ---\n%s", i, got.Bytes(), want.Bytes())
		}
	}
	var got, want bytes.Buffer
	if err := WriteChromeTrace(&got); err != nil {
		t.Fatal(err)
	}
	if err := refWriteChromeTrace(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("empty export differs: %q vs %q", got.Bytes(), want.Bytes())
	}
}

// TestAppendQuotedJoin checks the spliced quoting against strconv on the
// joined string, including halves that end or start mid UTF-8 sequence.
func TestAppendQuotedJoin(t *testing.T) {
	parts := append(append([]string{}, diffOps...), diffLabels...)
	parts = append(parts, diffTracks...)
	for _, x := range parts {
		for _, y := range parts {
			got := string(appendQuotedJoin([]byte("prefix"), x, y))
			if want := "prefix" + fmt.Sprintf("%q", x+" "+y); got != want {
				t.Errorf("appendQuotedJoin(%q, %q) = %s, want %s", x, y, got, want)
			}
		}
	}
}

// TestAppendQuote checks the printable-ASCII fast path against strconv on
// every single byte and on the random-recording strings.
func TestAppendQuote(t *testing.T) {
	strs := append(append(append([]string{}, diffTracks...), diffKinds...), diffStages...)
	for c := 0; c < 256; c++ {
		strs = append(strs, string([]byte{byte(c)}), "ab"+string([]byte{byte(c)})+"cd")
	}
	for _, s := range strs {
		if got, want := string(appendQuote([]byte("x"), s)), "x"+strconv.Quote(s); got != want {
			t.Errorf("appendQuote(%q) = %s, want %s", s, got, want)
		}
	}
}

// TestAnalyzeOrderIndependent pins the total tie order: permuting a
// recording's events never changes its attribution, even when events tie on
// Done, Ready, kind priority, Track, Start, Op and Label and differ only in
// Stage, End or Kind (two unknown kinds share a priority), or are exact
// duplicates.
func TestAnalyzeOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 300; i++ {
		rec := randRecording(rng, false)
		// Clone some events with one of the untied fields changed.
		for j, n := 0, len(rec.Events); j < n; j++ {
			if rng.Intn(3) > 0 {
				continue
			}
			e := rec.Events[j]
			switch rng.Intn(4) {
			case 0:
				e.Stage = diffStages[rng.Intn(len(diffStages))]
			case 1:
				e.End += 25
			case 2:
				if kindPriority(e.Kind) == 4 {
					e.Kind = diffKinds[4+rng.Intn(3)]
				}
			}
			rec.Events = append(rec.Events, e)
		}
		want := Analyze(rec)
		for p := 0; p < 4; p++ {
			perm := &Recording{Episode: rec.Episode, Total: rec.Total, Dropped: rec.Dropped,
				Events: append([]Event(nil), rec.Events...)}
			rng.Shuffle(len(perm.Events), func(a, b int) {
				perm.Events[a], perm.Events[b] = perm.Events[b], perm.Events[a]
			})
			if got := Analyze(perm); !reflect.DeepEqual(got, want) {
				t.Fatalf("recording %d, permutation %d: attribution depends on record order\n got %+v\nwant %+v",
					i, p, got, want)
			}
		}
	}
}
