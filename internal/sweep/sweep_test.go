package sweep

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/evlog"
	"repro/internal/obs/timeseries"
	"repro/internal/probe"
	"repro/internal/timeline"
)

// grid builds n episodes whose value is a deterministic function of the
// episode seed, exercising the seed-derivation contract.
func grid(n int) []Episode {
	eps := make([]Episode, n)
	for i := 0; i < n; i++ {
		eps[i] = Episode{
			Label: fmt.Sprintf("ep-%d", i),
			Run: func(ctx context.Context, env Env) (any, error) {
				rng := rand.New(rand.NewSource(env.Seed))
				sum := int64(0)
				for j := 0; j < 100; j++ {
					sum += rng.Int63n(1000)
				}
				env.Metrics.Counter("sweep_test_total").Add(sum)
				env.Metrics.Gauge("sweep_test_last", "ep", fmt.Sprint(env.Index)).Set(float64(sum))
				return sum, nil
			},
		}
	}
	return eps
}

func values(t *testing.T, results []Result) []int64 {
	t.Helper()
	out := make([]int64, len(results))
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("episode %d: %v", i, r.Err)
		}
		out[i] = r.Value.(int64)
	}
	return out
}

func TestSweepParallelMatchesSequential(t *testing.T) {
	const n = 24
	run := func(workers int) ([]int64, string) {
		sink := obs.NewRegistry()
		r := New(Options{Parallel: workers, BaseSeed: 42, Probe: probe.Probe{Metrics: sink}})
		results, err := r.Run(context.Background(), grid(n))
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := sink.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return values(t, results), b.String()
	}
	seqVals, seqProm := run(1)
	parVals, parProm := run(8)
	for i := range seqVals {
		if seqVals[i] != parVals[i] {
			t.Errorf("episode %d: sequential %d != parallel %d", i, seqVals[i], parVals[i])
		}
	}
	if seqProm != parProm {
		t.Errorf("merged metrics differ between 1 and 8 workers:\n--- seq ---\n%s\n--- par ---\n%s", seqProm, parProm)
	}
}

func TestSweepDeriveSeedStableAndDistinct(t *testing.T) {
	seen := map[int64]int{}
	for i := 0; i < 1000; i++ {
		s := DeriveSeed(7, i)
		if s2 := DeriveSeed(7, i); s2 != s {
			t.Fatalf("DeriveSeed not stable at %d: %d vs %d", i, s, s2)
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("seed collision between episodes %d and %d", prev, i)
		}
		seen[s] = i
	}
	if DeriveSeed(7, 0) == DeriveSeed(8, 0) {
		t.Error("different base seeds should derive different episode seeds")
	}
}

func TestSweepCollectsErrorsAndKeepsPartialResults(t *testing.T) {
	boom := errors.New("boom")
	eps := []Episode{
		{Label: "ok-0", Run: func(ctx context.Context, env Env) (any, error) { return 1, nil }},
		{Label: "fail", Run: func(ctx context.Context, env Env) (any, error) { return nil, boom }},
		{Label: "panic", Run: func(ctx context.Context, env Env) (any, error) { panic("kaboom") }},
		{Label: "ok-3", Run: func(ctx context.Context, env Env) (any, error) { return 4, nil }},
	}
	results, err := New(Options{Parallel: 2}).Run(context.Background(), eps)
	if err == nil {
		t.Fatal("sweep with failures must return an aggregate error")
	}
	var serr *Error
	if !errors.As(err, &serr) {
		t.Fatalf("error is %T, want *Error", err)
	}
	if len(serr.Failed) != 2 || serr.Total != 4 {
		t.Fatalf("aggregate = %d/%d failed, want 2/4", len(serr.Failed), serr.Total)
	}
	if !errors.Is(err, boom) {
		t.Error("aggregate error must unwrap to the episode error")
	}
	if results[0].Value.(int) != 1 || results[3].Value.(int) != 4 {
		t.Error("successful episodes lost alongside failures")
	}
	var perr *PanicError
	if !errors.As(results[2].Err, &perr) {
		t.Fatalf("panic not captured: %v", results[2].Err)
	}
	if perr.Value != "kaboom" || perr.Stack == "" {
		t.Errorf("panic detail wrong: %+v", perr.Value)
	}
}

func TestSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	block := make(chan struct{})
	eps := make([]Episode, 8)
	for i := range eps {
		eps[i] = Episode{Label: fmt.Sprintf("ep-%d", i), Run: func(ctx context.Context, env Env) (any, error) {
			ran.Add(1)
			<-block
			return nil, ctx.Err()
		}}
	}
	go func() {
		for ran.Load() < 2 {
			time.Sleep(time.Millisecond)
		}
		cancel()
		close(block)
	}()
	results, err := New(Options{Parallel: 2}).Run(ctx, eps)
	if err == nil {
		t.Fatal("cancelled sweep must report an error")
	}
	var notStarted int
	for _, r := range results {
		if r.Err != nil && errors.Is(r.Err, context.Canceled) {
			notStarted++
		}
	}
	if notStarted == 0 {
		t.Error("cancellation should surface context.Canceled on unfinished episodes")
	}
}

func TestSweepTimeout(t *testing.T) {
	eps := []Episode{
		{Label: "slow", Run: func(ctx context.Context, env Env) (any, error) {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(10 * time.Second):
				return nil, errors.New("timeout did not fire")
			}
		}},
		{Label: "queued", Run: func(ctx context.Context, env Env) (any, error) { return 1, nil }},
	}
	start := time.Now()
	_, err := New(Options{Parallel: 1, Timeout: 20 * time.Millisecond}).Run(context.Background(), eps)
	if err == nil {
		t.Fatal("timed-out sweep must report an error")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("error should unwrap to DeadlineExceeded: %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Error("timeout did not bound the sweep")
	}
}

func TestSweepDefaultWorkerCount(t *testing.T) {
	if w := New(Options{}).Workers(); w < 1 {
		t.Errorf("default workers = %d, want >= 1 (GOMAXPROCS)", w)
	}
	if w := New(Options{Parallel: 3}).Workers(); w != 3 {
		t.Errorf("workers = %d, want 3", w)
	}
}

func TestSweepNoMetricsSinkSkipsRegistries(t *testing.T) {
	results, err := New(Options{Parallel: 2}).Run(context.Background(), []Episode{
		{Label: "a", Run: func(ctx context.Context, env Env) (any, error) {
			if env.Probe != (probe.Probe{}) {
				return nil, errors.New("episode sinks allocated without a probe")
			}
			// Nil sinks must still be safe to instrument against.
			env.Metrics.Counter("x").Add(1)
			env.Timeseries.Counter("x").Record(0, 1)
			env.Timeline.SetStage("x")
			env.Evlog.SetStage("x")
			return nil, nil
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Probe != (probe.Probe{}) {
		t.Error("result should carry the zero probe when the runner has none")
	}
}

func TestSweepResultKeepsOnlyMergedSinks(t *testing.T) {
	sink := probe.Probe{
		Metrics:    obs.NewRegistry(),
		Timeline:   timeline.NewRecorder(0),
		Timeseries: timeseries.New(0, 0),
		Evlog:      evlog.New(0),
	}
	results, err := New(Options{Parallel: 1, Probe: sink}).Run(context.Background(), []Episode{
		{Label: "a", Run: func(ctx context.Context, env Env) (any, error) {
			if env.Metrics == nil || env.Timeline == nil || env.Timeseries == nil || env.Evlog == nil {
				return nil, fmt.Errorf("episode probe %+v lacks a sink the runner has", env.Probe)
			}
			return nil, nil
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := results[0]
	if r.Metrics == nil || r.Timeseries == nil || r.Timeline != nil || r.Evlog != nil {
		t.Errorf("result probe %+v, want the episode's registry and sampler alone", r.Probe)
	}
}

func TestProgressCallback(t *testing.T) {
	const n = 9
	episodes := make([]Episode, n)
	for i := range episodes {
		i := i
		episodes[i] = Episode{
			Label: fmt.Sprintf("ep%d", i),
			Run:   func(ctx context.Context, env Env) (any, error) { return i, nil },
		}
	}
	var mu sync.Mutex
	var events []ProgressEvent
	r := New(Options{
		Parallel: 4,
		Progress: func(ev ProgressEvent) {
			// Serialized by contract: no locking needed for the slice
			// append itself, but the test reads it later from the main
			// goroutine, so guard anyway.
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		},
	})
	if _, err := r.Run(context.Background(), episodes); err != nil {
		t.Fatal(err)
	}
	if len(events) != n {
		t.Fatalf("got %d progress events, want %d", len(events), n)
	}
	seen := map[int]bool{}
	for i, ev := range events {
		if ev.Done != i+1 {
			t.Fatalf("event %d: Done=%d, want %d (monotonic completion count)", i, ev.Done, i+1)
		}
		if ev.Total != n {
			t.Fatalf("event %d: Total=%d, want %d", i, ev.Total, n)
		}
		if seen[ev.Index] {
			t.Fatalf("episode %d reported twice", ev.Index)
		}
		seen[ev.Index] = true
		if ev.Err != nil {
			t.Fatalf("event %d: unexpected error %v", i, ev.Err)
		}
	}
	last := events[n-1]
	if last.Done != last.Total {
		t.Fatalf("last event Done=%d Total=%d", last.Done, last.Total)
	}
	if last.ETA() != 0 {
		t.Fatalf("ETA after completion = %v, want 0", last.ETA())
	}
}

func TestProgressReportsEpisodeErrors(t *testing.T) {
	boom := errors.New("boom")
	episodes := []Episode{
		{Label: "ok", Run: func(ctx context.Context, env Env) (any, error) { return nil, nil }},
		{Label: "bad", Run: func(ctx context.Context, env Env) (any, error) { return nil, boom }},
	}
	var withErr int
	r := New(Options{Parallel: 1, Progress: func(ev ProgressEvent) {
		if ev.Err != nil {
			withErr++
		}
	}})
	if _, err := r.Run(context.Background(), episodes); err == nil {
		t.Fatal("expected sweep error")
	}
	if withErr != 1 {
		t.Fatalf("progress events with errors = %d, want 1", withErr)
	}
}
