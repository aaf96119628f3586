package cliutil

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"

	horus "repro"
	"repro/internal/report"
)

// Exit statuses of every horus command: the cross-CLI exit-code contract
// the CI jobs and the ops runbooks depend on.
//
//	0 — run completed and every contract held
//	1 — oracle violation or fatal error (bad flags, harness failure)
//	2 — SLO violation (the run itself was sound, an objective was missed)
const (
	ExitOK   = 0
	ExitFail = 1
	ExitSLO  = 2
)

// Env is what Main hands a command's run function: the shared flag groups,
// parsed, and the run's telemetry sinks.
type Env struct {
	Metrics   *MetricsFlags
	Telemetry *TelemetryFlags

	shards      *int
	reg         *horus.MetricsRegistry
	ctx         context.Context
	stopSignals context.CancelFunc
	metricsDone bool
	finished    bool
}

// Main runs one horus command and exits. It registers the flags every
// command shares (-metrics, -pprof, the telemetry group with -progress when
// progress is set, -shards) next to the command's own, parses them, and
// calls run under -pprof. A run error is fatal: Main prints "name: err" and
// exits ExitFail without writing -metrics or -ts. Otherwise it finishes the
// telemetry (Env.Finish) and exits with run's status. The profiles are
// written on every exit path.
func Main(name string, progress bool, run func(*Env) (int, error)) {
	env := &Env{Metrics: AddMetricsFlags()}
	pf := AddProfileFlags()
	env.Telemetry = AddTelemetryFlags(progress)
	env.shards = AddShardsFlag()
	flag.Parse()
	status, err := env.run(pf, run)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		status = ExitFail
	}
	os.Exit(status)
}

func (e *Env) run(pf *ProfileFlags, run func(*Env) (int, error)) (int, error) {
	if err := pf.Start(); err != nil {
		return ExitFail, err
	}
	defer pf.Stop()
	defer func() {
		if e.stopSignals != nil {
			e.stopSignals()
		}
	}()
	if e.Metrics.Enabled() || e.Telemetry.ServeAddr != "" {
		// -serve gets a registry too, so a scraper sees real counters on
		// /metrics without a -metrics file; otherwise instrumentation stays
		// disabled.
		e.reg = horus.NewMetricsRegistry()
	}
	status, err := run(e)
	if err != nil {
		return ExitFail, err
	}
	return status, e.Finish()
}

// Config attaches the shared sinks to base — the -shards width, the metrics
// registry (present under -metrics or -serve) and the shared time-series
// sampler (present under -ts or -serve) — and starts the -serve server.
// Call it once.
func (e *Env) Config(base horus.Config) (horus.Config, error) {
	base.Shards = *e.shards
	base.Metrics = e.reg
	base.Timeseries = e.Telemetry.Sampler()
	return base, e.Telemetry.StartServer(e.reg)
}

// RequireTimeseries makes sure cfg records time series, for commands whose
// SLOs read them: it keeps the shared sampler when -ts or -serve set one,
// else attaches a private sampler that is never exported.
func (e *Env) RequireTimeseries(cfg *horus.Config) {
	if cfg.Timeseries == nil {
		cfg.Timeseries = horus.NewTimeseriesSampler(e.Telemetry.WindowNs*1000, e.Telemetry.Capacity)
	}
}

// Context returns the run's context, cancelled on SIGINT so sweeps stop
// cleanly. The handler is installed on the first call; a command that
// never asks keeps the default SIGINT behaviour.
func (e *Env) Context() context.Context {
	if e.ctx == nil {
		e.ctx, e.stopSignals = signal.NotifyContext(context.Background(), os.Interrupt)
	}
	return e.ctx
}

// PrintSpans prints a blank line and the lifecycle span tree when -metrics
// was given.
func (e *Env) PrintSpans() {
	if e.Metrics.Enabled() {
		fmt.Println()
		report.SpanTree(e.reg).Fprint(os.Stdout)
	}
}

// WriteMetrics writes the -metrics snapshot and prints "<label> <format>
// snapshot to <path>". It runs once: later calls, the one in Finish
// included, do nothing. A command calls it where its report wants the
// line; otherwise Finish prints it with the label "metrics:".
func (e *Env) WriteMetrics(label string) error {
	if e.metricsDone || !e.Metrics.Enabled() {
		return nil
	}
	e.metricsDone = true
	if err := e.Metrics.Write(e.reg); err != nil {
		return err
	}
	fmt.Printf("%s %s snapshot to %s\n", label, e.Metrics.Format, e.Metrics.Path)
	return nil
}

// Finish is the shared epilogue: it writes -metrics (unless WriteMetrics
// already did) and -ts, then honours -serve-linger and closes the server.
// Main calls it after run; a command calls it itself when something must
// follow the shutdown, such as a verdict on stderr. It runs once.
func (e *Env) Finish() error {
	if e.finished {
		return nil
	}
	e.finished = true
	if err := e.WriteMetrics("metrics:"); err != nil {
		return err
	}
	if err := e.Telemetry.WriteTimeseries(); err != nil {
		return err
	}
	e.Telemetry.Shutdown()
	return nil
}

// OracleConfig builds a crash-oracle command's config: the -scale base with
// -seed applied and the shared sinks attached (Config), plus a time-series
// sampler even without -ts or -serve, since the no-silent SLO reads it. It
// parses -scheme too; "secure" gives nil, the harness's secure default.
func (e *Env) OracleConfig(scale string, seed int64, schemes string) (horus.Config, []horus.Scheme, error) {
	base, err := ParseScale(scale)
	if err != nil {
		return horus.Config{}, nil, err
	}
	base.Seed = seed
	cfg, err := e.Config(base)
	if err != nil {
		return cfg, nil, err
	}
	e.RequireTimeseries(&cfg)
	if strings.EqualFold(schemes, "secure") {
		return cfg, nil, nil
	}
	list, err := ParseSchemes(schemes)
	return cfg, list, err
}

// OracleExit is the crash-oracle commands' tail: it writes -metrics,
// evaluates rules over cfg's series (printing the SLO table on a breach)
// and finishes the telemetry. The no-silent SLO is stricter than the
// report's own verdict: it also fails a run that recorded no data. If the
// run broke its contract (!ok) or an SLO, fail prints the violations and
// the status is ExitFail; else it prints okLine, ExitOK.
func (e *Env) OracleExit(cfg horus.Config, rules []horus.SLORule, ok bool, fail func(), okLine string) (int, error) {
	if err := e.WriteMetrics("metrics:"); err != nil {
		return ExitFail, err
	}
	slo := horus.EvaluateSLO(rules, cfg.Timeseries.Snapshot())
	if !slo.Ok() {
		fmt.Println()
		slo.Table().Fprint(os.Stdout)
	}
	if err := e.Finish(); err != nil {
		return ExitFail, err
	}
	if !ok || !slo.Ok() {
		fail()
		return ExitFail, nil
	}
	fmt.Println(okLine)
	return ExitOK, nil
}

// WriteFile creates path, hands it to write and closes it, returning the
// first error.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
