package trace

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/mem"
)

func TestRecorderCapturesAccesses(t *testing.T) {
	c := mem.NewController(mem.DefaultConfig())
	r := NewRecorder(0)
	c.SetObserver(r)
	c.Write(0, 0x1000, mem.Block{}, mem.CatData)
	c.Read(0, 0x1000, mem.CatCounter)
	if r.Len() != 2 {
		t.Fatalf("recorded %d events, want 2", r.Len())
	}
	ev := r.Events()
	if ev[0].Kind != KindWrite || ev[0].Addr != 0x1000 || ev[0].Category != "data" {
		t.Errorf("first event wrong: %+v", ev[0])
	}
	if ev[1].Kind != KindRead || ev[1].Category != "counter" {
		t.Errorf("second event wrong: %+v", ev[1])
	}
	if ev[0].Seq >= ev[1].Seq {
		t.Error("sequence not monotonic")
	}
	if ev[0].Time <= 0 {
		t.Error("completion time missing")
	}
}

func TestRecorderLimitAndDropCount(t *testing.T) {
	c := mem.NewController(mem.DefaultConfig())
	r := NewRecorder(3)
	c.SetObserver(r)
	for i := 0; i < 10; i++ {
		c.Write(0, uint64(i)*64, mem.Block{}, mem.CatData)
	}
	if r.Len() != 3 {
		t.Errorf("retained %d, want 3", r.Len())
	}
	if r.Dropped() != 7 {
		t.Errorf("dropped %d, want 7", r.Dropped())
	}
}

func TestWriteCSV(t *testing.T) {
	r := NewRecorder(0)
	r.OnAccess("write", 505000, 0x40, "chv-data")
	r.OnAccess("read", 660000, 0x80, "recovery")
	var b strings.Builder
	if err := r.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("csv lines = %d, want 4 (header + 2 + summary)", len(lines))
	}
	if lines[0] != "seq,time_ps,kind,addr,category" {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "write") || !strings.Contains(lines[1], "0x40") || !strings.Contains(lines[1], "chv-data") {
		t.Errorf("row = %q", lines[1])
	}
	if lines[3] != "# events=2 dropped=0" {
		t.Errorf("summary row = %q, want \"# events=2 dropped=0\"", lines[3])
	}
}

func TestWriteCSVSummaryRecordsDropped(t *testing.T) {
	r := NewRecorder(1)
	r.OnAccess("write", 1, 0, "data")
	r.OnAccess("write", 2, 64, "data")
	r.OnAccess("write", 3, 128, "data")
	var b strings.Builder
	if err := r.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(strings.TrimSpace(b.String()), "# events=1 dropped=2") {
		t.Errorf("missing drop count in summary: %q", b.String())
	}
}

func TestWriteJSONL(t *testing.T) {
	r := NewRecorder(2)
	r.OnAccess("write", 505000, 0x40, "chv-data")
	r.OnAccess("read", 660000, 0x80, "recovery")
	r.OnAccess("read", 700000, 0xC0, "recovery") // dropped
	var b strings.Builder
	if err := r.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("jsonl lines = %d, want 3 (2 events + summary)", len(lines))
	}
	var ev struct {
		Seq      int64  `json:"seq"`
		TimePs   int64  `json:"time_ps"`
		Kind     string `json:"kind"`
		Addr     string `json:"addr"`
		Category string `json:"category"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatalf("line 0 not valid JSON: %v", err)
	}
	if ev.Seq != 1 || ev.TimePs != 505000 || ev.Kind != "write" || ev.Addr != "0x40" || ev.Category != "chv-data" {
		t.Errorf("first event = %+v", ev)
	}
	var sum struct {
		Summary bool  `json:"summary"`
		Events  int   `json:"events"`
		Dropped int64 `json:"dropped"`
	}
	if err := json.Unmarshal([]byte(lines[2]), &sum); err != nil {
		t.Fatalf("summary not valid JSON: %v", err)
	}
	if !sum.Summary || sum.Events != 2 || sum.Dropped != 1 {
		t.Errorf("summary = %+v, want {true 2 1}", sum)
	}
}

func TestReset(t *testing.T) {
	r := NewRecorder(1)
	r.OnAccess("write", 1, 0, "data")
	r.OnAccess("write", 2, 0, "data")
	r.Reset()
	if r.Len() != 0 || r.Dropped() != 0 {
		t.Error("Reset incomplete")
	}
	r.OnAccess("read", 3, 0, "data")
	if r.Events()[0].Seq != 1 {
		t.Error("sequence not restarted")
	}
}

func TestObserverClearable(t *testing.T) {
	c := mem.NewController(mem.DefaultConfig())
	r := NewRecorder(0)
	c.SetObserver(r)
	c.Write(0, 0, mem.Block{}, mem.CatData)
	c.SetObserver(nil)
	c.Write(0, 64, mem.Block{}, mem.CatData)
	if r.Len() != 1 {
		t.Error("observer kept recording after removal")
	}
}
