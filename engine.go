package horus

import (
	"context"
	"time"

	"repro/internal/probe"
	"repro/internal/sweep"
)

// SweepOptions configures how experiment grids execute. The zero value is
// the library's historical behavior apart from scheduling: episodes may run
// on all cores. Results are independent of Parallel by construction — every
// episode builds its own System against its own fork of the telemetry
// sinks, and the engine merges them back in episode order — so -parallel N
// output is byte-identical to sequential output.
type SweepOptions struct {
	// Parallel bounds the episode worker pool; <= 0 means GOMAXPROCS.
	Parallel int
	// Timeout bounds the whole grid; 0 means no timeout. Episodes not
	// finished when it expires report context.DeadlineExceeded.
	Timeout time.Duration
	// Progress, when non-nil, is called once per finished episode
	// (serialized, completion order) with done/total counts and wall-clock
	// pacing. It feeds the -progress stderr line and the -serve SSE
	// stream; it is wall-clock-side only and cannot perturb simulated
	// results.
	Progress func(SweepProgress)
}

// DrainPoint is one (config, scheme) episode of an experiment grid.
//
// Episodes use Config.Seed for fill/flush randomness — drain sets rely on an
// identical fill across schemes — while the engine's derived per-episode
// seed remains available to custom episodes via EpisodeEnv.Seed.
type DrainPoint struct {
	// Label names the point in errors and progress reports; empty defaults
	// to the scheme name.
	Label  string
	Config Config
	Scheme Scheme
	// Recover additionally crashes the machine after the drain and runs
	// verified recovery (Fig. 16 and the recovery round trips).
	Recover bool
}

// PointResult is one grid episode's outcome. Err is per-episode: a failing
// point never discards its siblings' results.
type PointResult struct {
	Point    DrainPoint
	Result   Result
	Recovery *RecoveryReport // non-nil when Point.Recover and recovery ran
	// Timeline is the episode's drain recording, non-nil when the grid's
	// Config.Timeline (that of points[0]) requested tracing.
	Timeline *TimelineRecording
	Err      error
}

// pointValue is the episode payload threaded through the engine.
type pointValue struct {
	res Result
	rec *RecoveryReport
	tl  *TimelineRecording
}

// RunDrainGrid executes the points through the episode engine: a bounded
// worker pool (SweepOptions.Parallel), context cancellation, per-episode
// panic capture, and deterministic telemetry aggregation.
//
// Telemetry: episodes never share a sink. The engine forks the probe of
// points[0].Config — normally the one probe every point inherited from the
// base Config — per episode, runs each point against its fork (time series
// labelled with the point), and merges every episode's metrics and time
// series back into it in episode order.
//
// Errors are collected per episode: the returned slice always has one entry
// per point (completed points carry their Result even when others failed),
// and the returned error, when non-nil, is a *SweepError aggregating every
// failed point.
func RunDrainGrid(ctx context.Context, points []DrainPoint, opts SweepOptions) ([]PointResult, error) {
	var base Config
	if len(points) > 0 {
		base = points[0].Config
	}

	eps := make([]sweep.Episode, len(points))
	for i := range points {
		pt := points[i] // capture per iteration: episodes run concurrently
		label := pt.Label
		if label == "" {
			label = pt.Scheme.String()
		}
		eps[i] = sweep.Episode{Label: label, Run: func(ctx context.Context, env sweep.Env) (any, error) {
			return runPointEpisode(ctx, pt, env)
		}}
	}

	results, err := runEpisodes(ctx, base.Seed, base.Probe, opts, eps)

	out := make([]PointResult, len(points))
	for i, r := range results {
		out[i] = PointResult{Point: points[i], Err: r.Err}
		if v, ok := r.Value.(pointValue); ok {
			out[i].Result = v.res
			out[i].Recovery = v.rec
			out[i].Timeline = v.tl
		}
	}
	return out, err
}

// runPointEpisode is the canonical build → warmup → fill → drain
// [→ crash → recover] episode body. The context is checked between phases:
// the simulator itself is synchronous, so cancellation takes effect at
// phase boundaries.
func runPointEpisode(ctx context.Context, pt DrainPoint, env sweep.Env) (pointValue, error) {
	cfg := pt.Config
	cfg.Probe = env.Probe

	sys := NewSystem(cfg, pt.Scheme)
	if err := sys.Warmup(); err != nil {
		return pointValue{}, err
	}
	if err := ctx.Err(); err != nil {
		return pointValue{}, err
	}
	sys.Fill()
	res, err := sys.Drain()
	if err != nil {
		return pointValue{}, err
	}
	val := pointValue{res: res}
	if cfg.Timeline != nil {
		val.tl = cfg.Timeline.Recording()
		AnalyzeTimeline(val.tl).Publish(cfg.Metrics, "scheme", pt.Scheme.String())
	}
	if !pt.Recover {
		return val, nil
	}
	if err := ctx.Err(); err != nil {
		return val, err
	}
	sys.Crash()
	rec, err := sys.Recover(res.Persist)
	if err != nil {
		return val, err
	}
	val.rec = &rec
	return val, nil
}

// runEpisodes runs episodes on the engine under opts: the one place every
// runner (drain grids, ablations, torture, litmus, fleet) builds its worker
// pool. seed is the base of the per-episode seeds; p is forked per episode
// and merged back in episode order (the zero Probe records nothing).
func runEpisodes(ctx context.Context, seed int64, p probe.Probe, opts SweepOptions, eps []sweep.Episode) ([]sweep.Result, error) {
	runner := sweep.New(sweep.Options{
		Parallel: opts.Parallel,
		Timeout:  opts.Timeout,
		BaseSeed: seed,
		Probe:    p,
		Progress: opts.Progress,
	})
	return runner.Run(ctx, eps)
}
