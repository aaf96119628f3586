// Package sweep is the episode engine behind the experiment layer: it runs
// a grid of independent simulation episodes (build → warmup → fill → drain
// [→ recover]) on a bounded worker pool with context cancellation, a
// whole-sweep timeout, per-episode panic capture and per-episode error
// collection, and merges per-episode telemetry (metrics and time series)
// into the caller's sinks deterministically.
//
// Determinism contract: episodes share no mutable state, every episode
// derives its RNG seed from (BaseSeed, episode index) — never from a
// shared stream — and results and telemetry merges are ordered by episode
// index regardless of scheduling. Consequently a sweep run with one worker
// and with N workers produces bit-identical results and merged telemetry.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"repro/internal/probe"
	"repro/internal/sim"
)

// Env is the per-episode environment the runner supplies to Run.
type Env struct {
	// Index is the episode's position in the grid.
	Index int
	// Seed is the deterministic per-episode seed, DeriveSeed(BaseSeed,
	// Index). Episodes that need randomness must use it (or a value derived
	// from it) so parallel scheduling cannot perturb results.
	Seed int64
	// Probe holds fresh sinks for this episode alone: Options.Probe forked
	// with the label ("point", Episode.Label), so a nil sink stays nil.
	// After the sweep the runner merges every episode's metrics and time
	// series into Options.Probe in index order, so aggregation is lossless
	// and deterministic even though episodes finish out of order.
	probe.Probe
}

// Episode is one unit of work in a sweep.
type Episode struct {
	// Label names the episode in errors and reports, e.g.
	// "llc=8MB/Horus-SLM".
	Label string
	// Run executes the episode. It must not touch state shared with other
	// episodes; everything it needs arrives via the closure or Env.
	Run func(ctx context.Context, env Env) (any, error)
}

// Result reports one episode.
type Result struct {
	Index   int
	Label   string
	Value   any           // Run's return value (nil on error)
	Err     error         // Run's error, a *PanicError, or the context error
	Elapsed time.Duration // wall-clock execution time (not simulated time)
	// Probe holds this episode's registry and sampler, the sinks merged
	// into Options.Probe. Its recorder and flight log stay with the
	// episode, which returns any recording it keeps in Value, so finished
	// episodes' event buffers are not held until the sweep ends.
	probe.Probe
}

// Options configures a Runner.
type Options struct {
	// Parallel bounds the worker pool; <= 0 means GOMAXPROCS.
	Parallel int
	// Timeout, when positive, bounds the whole sweep; episodes not finished
	// (or not started) when it expires report context.DeadlineExceeded.
	Timeout time.Duration
	// BaseSeed is the root of the per-episode seed derivation.
	BaseSeed int64
	// Probe holds the caller's sinks. Each episode runs against its own
	// fork; every episode's metrics and time series merge back in episode
	// order after the sweep completes.
	probe.Probe
	// Progress, when non-nil, is called once per finished episode (in
	// completion order, serialized — implementations need no locking).
	// It runs on worker goroutines between episodes: keep it cheap and
	// never touch episode state from it. Progress is wall-clock-side
	// telemetry only; it cannot perturb simulated results.
	Progress func(ProgressEvent)
}

// ProgressEvent reports one finished episode to Options.Progress.
type ProgressEvent struct {
	// Done counts finished episodes including this one; Total is the
	// sweep size, so Done == Total marks the last event.
	Done, Total int
	// Index and Label identify the episode that just finished.
	Index int
	Label string
	// Err is the episode's error, if any.
	Err error
	// Elapsed is wall-clock time since the sweep started.
	Elapsed time.Duration
}

// EpisodesPerSec returns the observed completion rate (0 before any time
// has elapsed).
func (e ProgressEvent) EpisodesPerSec() float64 {
	if e.Elapsed <= 0 {
		return 0
	}
	return float64(e.Done) / e.Elapsed.Seconds()
}

// ETA estimates the remaining wall-clock time from the observed rate
// (zero when unknowable).
func (e ProgressEvent) ETA() time.Duration {
	rate := e.EpisodesPerSec()
	if rate <= 0 || e.Done >= e.Total {
		return 0
	}
	return time.Duration(float64(e.Total-e.Done) / rate * float64(time.Second))
}

// Runner executes episode grids.
type Runner struct {
	opts Options
}

// New returns a runner over the options.
func New(opts Options) *Runner { return &Runner{opts: opts} }

// Workers resolves the effective worker-pool size.
func (r *Runner) Workers() int {
	if r.opts.Parallel > 0 {
		return r.opts.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

// Run executes the episodes and returns one Result per episode, in episode
// order. It never aborts on an episode failure: every episode either runs
// to completion, fails with its own error, or is skipped on cancellation.
// The returned error is nil when every episode succeeded, and otherwise an
// *Error aggregating the per-episode failures — completed results are still
// returned alongside it.
func (r *Runner) Run(ctx context.Context, episodes []Episode) ([]Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if r.opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.opts.Timeout)
		defer cancel()
	}

	results := make([]Result, len(episodes))
	started := make([]bool, len(episodes))

	workers := r.Workers()
	if workers > len(episodes) {
		workers = len(episodes)
	}

	// Feed indices to the pool; stop dispatching once the context dies.
	idx := make(chan int)
	go func() {
		defer close(idx)
		for i := range episodes {
			select {
			case idx <- i:
			case <-ctx.Done():
				return
			}
		}
	}()

	// Progress reporting: completion-ordered, serialized under its own
	// mutex so callbacks never run concurrently with each other.
	sweepStart := time.Now()
	var progressMu sync.Mutex
	completed := 0
	report := func(res Result) {
		if r.opts.Progress == nil {
			return
		}
		progressMu.Lock()
		completed++
		ev := ProgressEvent{
			Done:    completed,
			Total:   len(episodes),
			Index:   res.Index,
			Label:   res.Label,
			Err:     res.Err,
			Elapsed: time.Since(sweepStart),
		}
		r.opts.Progress(ev)
		progressMu.Unlock()
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				started[i] = true
				results[i] = r.runOne(ctx, i, episodes[i])
				report(results[i])
			}
		}()
	}
	wg.Wait()

	// Episodes the pool never picked up report why.
	for i := range results {
		if !started[i] {
			err := context.Cause(ctx)
			if err == nil {
				err = ctx.Err()
			}
			results[i] = Result{Index: i, Label: episodes[i].Label, Err: fmt.Errorf("sweep: episode not started: %w", err)}
		}
	}

	// Deterministic post-hoc aggregation: merge in episode order.
	for i := range results {
		r.opts.Probe.Merge(results[i].Probe)
	}

	var failed []Result
	for _, res := range results {
		if res.Err != nil {
			failed = append(failed, res)
		}
	}
	if len(failed) > 0 {
		return results, &Error{Failed: failed, Total: len(results)}
	}
	return results, nil
}

// runOne executes a single episode, capturing panics as errors.
func (r *Runner) runOne(ctx context.Context, i int, ep Episode) (res Result) {
	env := Env{Index: i, Seed: DeriveSeed(r.opts.BaseSeed, i), Probe: r.opts.Probe.Fork("point", ep.Label)}
	res = Result{Index: i, Label: ep.Label, Probe: probe.Probe{Metrics: env.Metrics, Timeseries: env.Timeseries}}
	start := time.Now()
	defer func() {
		res.Elapsed = time.Since(start)
		if p := recover(); p != nil {
			res.Value = nil
			res.Err = &PanicError{Value: p, Stack: string(debug.Stack())}
		}
	}()
	if err := ctx.Err(); err != nil {
		res.Err = err
		return res
	}
	if ep.Run == nil {
		res.Err = errors.New("sweep: episode has no Run function")
		return res
	}
	res.Value, res.Err = ep.Run(ctx, env)
	return res
}

// DeriveSeed maps (base seed, episode index) to an independent, stable
// per-episode seed via a splitmix64 round. Unlike splitting a shared RNG
// stream, the derivation depends only on the index, so any scheduling order
// yields the same seed for the same episode.
func DeriveSeed(base int64, index int) int64 {
	return int64(sim.SplitMix64(uint64(base) + sim.SplitMixGamma*uint64(index)))
}

// PanicError wraps a panic captured inside an episode so one crashing
// configuration cannot take down the rest of a sweep.
type PanicError struct {
	Value any
	Stack string
}

// Error describes the panic (the stack is available via the Stack field).
func (e *PanicError) Error() string {
	return fmt.Sprintf("episode panicked: %v", e.Value)
}

// Error aggregates the failures of a sweep; the successful episodes'
// results are returned alongside it.
type Error struct {
	Failed []Result // failed episodes, in episode order
	Total  int      // total episodes in the sweep
}

// Error lists every failed episode.
func (e *Error) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sweep: %d/%d episodes failed", len(e.Failed), e.Total)
	for _, f := range e.Failed {
		fmt.Fprintf(&b, "; #%d %s: %v", f.Index, f.Label, f.Err)
	}
	return b.String()
}

// Unwrap exposes the individual episode errors to errors.Is/As.
func (e *Error) Unwrap() []error {
	errs := make([]error, len(e.Failed))
	for i, f := range e.Failed {
		errs[i] = f.Err
	}
	return errs
}
