package timeline

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The Chrome exporter's golden file pins its exact bytes. Regenerate after
// an intentional format change with:
//
//	go test ./internal/timeline -run Golden -update
var update = flag.Bool("update", false, "rewrite golden files with the current output")

// chromeEvent mirrors the trace-event fields the tests inspect.
type chromeEvent struct {
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Args map[string]any `json:"args"`
}

type chromeTrace struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
}

func TestWriteChromeTraceParsesAndNonOverlapping(t *testing.T) {
	r := NewRecorder(0)
	r.BeginEpisode("Horus-SLM")
	r.SetOp("write", "chv-data")
	r.OnReserve("membus", "bus", 0, 0, 5, 5)
	r.OnReserve("bank00", "bank", 5, 5, 505, 505)
	r.OnReserve("membus", "bus", 0, 5, 10, 10)
	r.OnReserve("bank01", "bank", 10, 10, 510, 510)
	r.SetOp("mac", "chv-data-mac")
	r.OnReserve("mac", "mac", 0, 0, 82, 160)
	r.EndEpisode(510)

	var b strings.Builder
	if err := WriteChromeTrace(&b, r.Recording()); err != nil {
		t.Fatal(err)
	}

	var tr chromeTrace
	if err := json.Unmarshal([]byte(b.String()), &tr); err != nil {
		t.Fatalf("trace does not parse as JSON: %v\noutput:\n%s", err, b.String())
	}

	var procName string
	threads := map[int]string{}
	type ival struct{ start, end int64 }
	perThread := map[int][]ival{}
	critical := 0
	for _, e := range tr.TraceEvents {
		switch e.Ph {
		case "M":
			name, _ := e.Args["name"].(string)
			if e.Name == "process_name" {
				procName = name
			} else if e.Name == "thread_name" {
				threads[e.Tid] = name
			}
		case "X":
			if e.Cat == "critical-path" {
				critical++
				continue
			}
			s := int64(e.Args["start_ps"].(float64))
			d := int64(e.Args["end_ps"].(float64))
			perThread[e.Tid] = append(perThread[e.Tid], ival{s, d})
		default:
			t.Errorf("unexpected phase %q", e.Ph)
		}
	}
	if procName != "Horus-SLM" {
		t.Errorf("process name %q, want Horus-SLM", procName)
	}
	if threads[0] != "critical-path" {
		t.Errorf("tid 0 named %q, want critical-path", threads[0])
	}
	if critical == 0 {
		t.Error("no critical-path slices emitted")
	}
	for tid, ivs := range perThread {
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
		for i := 1; i < len(ivs); i++ {
			if ivs[i].start < ivs[i-1].end {
				t.Errorf("thread %d (%s): [%d,%d) overlaps [%d,%d)", tid, threads[tid],
					ivs[i].start, ivs[i].end, ivs[i-1].start, ivs[i-1].end)
			}
		}
	}
}

func TestWriteChromeTraceMultipleRecordings(t *testing.T) {
	mk := func(ep string) *Recording {
		r := NewRecorder(0)
		r.BeginEpisode(ep)
		r.OnReserve("bank00", "bank", 0, 0, 10, 10)
		r.EndEpisode(10)
		return r.Recording()
	}
	var b strings.Builder
	if err := WriteChromeTrace(&b, mk("a"), nil, mk("b")); err != nil {
		t.Fatal(err)
	}
	var tr chromeTrace
	if err := json.Unmarshal([]byte(b.String()), &tr); err != nil {
		t.Fatal(err)
	}
	pids := map[int]string{}
	for _, e := range tr.TraceEvents {
		if e.Ph == "M" && e.Name == "process_name" {
			pids[e.Pid], _ = e.Args["name"].(string)
		}
	}
	if len(pids) != 2 || pids[1] != "a" || pids[2] != "b" {
		t.Errorf("pids = %v, want {1:a, 2:b}", pids)
	}
}

func TestUsec(t *testing.T) {
	for _, c := range []struct {
		ps   int64
		want string
	}{
		{0, "0.000000"},
		{1, "0.000001"},
		{1_000_000, "1.000000"},
		{222_765_432_100, "222765.432100"},
		{-5, "-0.000005"},
	} {
		if got := usec(c.ps); got != c.want {
			t.Errorf("usec(%d) = %q, want %q", c.ps, got, c.want)
		}
	}
}

// goldenChromeRecordings is a small fixed export: two episodes around a nil
// recording (skipped, so pids stay dense), the second unnamed. Track, op,
// label, stage and kind strings carry every escaping case: quotes,
// backslashes, non-ASCII, control bytes and invalid UTF-8. (Strings are
// quoted with strconv, so the last two come out as Go's \x01 and \xff
// escapes, which JSON does not accept; simulator names are plain ASCII.)
// The first episode has queued waits, a pipelined engine tail, a custom
// kind and a trailing idle gap, so every critical-path phase appears.
func goldenChromeRecordings() []*Recording {
	a := NewRecorder(0)
	a.BeginEpisode(`Horus-"SLM"\é`)
	a.SetStage("drain:blocks")
	a.SetOp("write", "chv-data")
	a.OnReserve("bank00", "bank", 0, 0, 500, 500)
	a.OnReserve("bank00", "bank", 0, 500, 1000, 1000)
	a.OnReserve("bank\"01\"", "bank", 0, 0, 500, 500)
	a.SetOp("", "bus\tlabel")
	a.OnReserve("membus", "bus", 0, 0, 120, 120)
	a.SetStage("drain:chv\x01stream")
	a.SetOp("aes", "")
	a.OnReserve("aes", "aes", 1000, 1000, 1082, 1160)
	a.OnReserve("aes", "aes", 1082, 1082, 1164, 1242)
	a.SetOp("mac", "ünïcode\n")
	a.OnReserve("mac", "mac", 1160, 1300, 1460, 1460)
	a.SetOp("", "")
	a.OnReserve("pmu\xff", "pmu", 1460, 1460, 1500, 1500)
	a.EndEpisode(2_000_123_456)

	b := NewRecorder(0)
	b.BeginEpisode("")
	b.SetOp("read", "counter")
	b.OnReserve("bank02", "bank", 0, 7, 1_234_567, 1_234_567)
	b.EndEpisode(1_234_567)
	return []*Recording{a.Recording(), nil, b.Recording()}
}

func TestGoldenChromeTrace(t *testing.T) {
	var b bytes.Buffer
	if err := WriteChromeTrace(&b, goldenChromeRecordings()...); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "chrome.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		t.Errorf("Chrome trace differs from golden file (rerun with -update if intentional)\n--- got ---\n%s\n--- want ---\n%s",
			b.Bytes(), want)
	}
}
