package probe

import (
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/evlog"
	"repro/internal/obs/timeseries"
	"repro/internal/timeline"
)

func TestProbeForkOfZeroIsZero(t *testing.T) {
	if q := (Probe{}).Fork("point", "x"); q != (Probe{}) {
		t.Fatalf("Fork of the zero probe = %+v, want the zero probe", q)
	}
	// Each sink forks on its own: nil ones stay nil beside a set one.
	q := Probe{Timeseries: timeseries.New(0, 0)}.Fork()
	if q.Metrics != nil || q.Timeline != nil || q.Evlog != nil || q.Timeseries == nil {
		t.Fatalf("Fork of a sampler-only probe = %+v, want a sampler alone", q)
	}
}

func TestProbeForkKeepsShape(t *testing.T) {
	p := Probe{
		Metrics:    obs.NewRegistry(),
		Timeline:   timeline.NewRecorder(123),
		Timeseries: timeseries.New(7_000, 17),
		Evlog:      evlog.New(9),
	}
	q := p.Fork("point", "Base-LU")
	if q.Metrics == nil || q.Metrics == p.Metrics {
		t.Error("Fork must make a fresh registry")
	}
	if q.Timeline == nil || q.Timeline == p.Timeline || q.Timeline.Limit() != 123 {
		t.Errorf("forked recorder limit %d, want a fresh recorder with limit 123", q.Timeline.Limit())
	}
	if q.Timeseries == nil || q.Timeseries == p.Timeseries {
		t.Fatal("Fork must make a fresh sampler")
	}
	if w, c := q.Timeseries.WindowPs(), q.Timeseries.Capacity(); w != 7_000 || c != 17 {
		t.Errorf("forked sampler window %d capacity %d, want 7000 and 17", w, c)
	}
	q.Timeseries.Counter("probe_test_ts", "scheme", "x").Record(0, 1)
	labels := q.Timeseries.Snapshot().Series[0].Labels
	if want := map[string]string{"point": "Base-LU", "scheme": "x"}; !reflect.DeepEqual(labels, want) {
		t.Errorf("forked series labels %v, want %v", labels, want)
	}
	if q.Evlog == nil || q.Evlog == p.Evlog || q.Evlog.Limit() != 9 {
		t.Errorf("forked log limit %d, want a fresh log with limit 9", q.Evlog.Limit())
	}
}

// record is episode i's telemetry: a counter and a gauge every episode
// shares, a histogram shared by alternate episodes, one series per
// episode and one series every episode extends, later in sim time.
func record(p Probe, i int) {
	p.Metrics.SetHelp("probe_test_total", "Test counter.")
	p.Metrics.Counter("probe_test_total").Add(int64(i + 1))
	p.Metrics.Gauge("probe_test_last").Set(float64(i))
	p.Metrics.Histogram("probe_test_hist", obs.LatencyBuckets, "parity", strconv.Itoa(i%2)).Observe(float64(1_000 * i))
	t0 := int64(i) * 100_000
	for k := int64(0); k < 30; k++ {
		p.Timeseries.Counter("probe_test_ts", "ep", strconv.Itoa(i)).Record(t0+k*2_000, 1)
		p.Timeseries.Gauge("probe_test_shared").Record(t0+k*2_000, float64(i*100)+float64(k))
	}
	p.Timeline.OnReserve("bank00", "bank", 0, 0, 1, 1)
	p.Evlog.Append(evlog.Record{Check: "probe-test"})
}

// render is the metrics' Prometheus text followed by the series' JSON.
func render(t *testing.T, p Probe) string {
	t.Helper()
	var b strings.Builder
	if err := p.Metrics.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if err := p.Timeseries.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestProbeMergeInOrderEqualsSequentialRecording(t *testing.T) {
	const n = 5
	newSink := func() Probe {
		return Probe{
			Metrics:    obs.NewRegistry(),
			Timeline:   timeline.NewRecorder(0),
			Timeseries: timeseries.New(5_000, 0),
			Evlog:      evlog.New(0),
		}
	}
	merged := newSink()
	forks := make([]Probe, n)
	for i := range forks {
		forks[i] = merged.Fork()
	}
	// Episodes finish in any order; only the merge order matters.
	for i := n - 1; i >= 0; i-- {
		record(forks[i], i)
	}
	for _, q := range forks {
		merged.Merge(q)
	}

	seq := newSink()
	for i := 0; i < n; i++ {
		record(seq, i)
	}
	if got, want := render(t, merged), render(t, seq); got != want {
		t.Errorf("merged output differs from sequential recording:\n--- merged ---\n%s\n--- sequential ---\n%s", got, want)
	}
	// Timelines and flight records describe one episode each: they stay
	// with the fork.
	if merged.Timeline.Len() != 0 || merged.Evlog.Len() != 0 {
		t.Errorf("Merge moved %d timeline events and %d records into the caller's sinks, want none",
			merged.Timeline.Len(), merged.Evlog.Len())
	}
}
