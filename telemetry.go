package horus

import (
	"repro/internal/energy"
	"repro/internal/obs/serve"
	"repro/internal/obs/slo"
	"repro/internal/obs/timeseries"
	"repro/internal/sweep"
)

// Live-telemetry re-exports: the windowed sim-time sampler
// (internal/obs/timeseries), the monitoring HTTP server
// (internal/obs/serve) and the SLO engine (internal/obs/slo). See
// DESIGN.md §12.
type (
	// TimeseriesSampler records windowed time series over the simulated
	// clock; attach one via Config.Timeseries. Nil-safe everywhere: a
	// nil sampler costs one pointer check per event.
	TimeseriesSampler = timeseries.Sampler
	// TimeseriesSeries is one named series handle.
	TimeseriesSeries = timeseries.Series
	// TimeseriesSnapshot is the exported state of a sampler
	// (/timeseries.json's document).
	TimeseriesSnapshot = timeseries.Snapshot
	// SeriesSnapshot is one exported series.
	SeriesSnapshot = timeseries.SeriesSnapshot
	// TimeseriesPoint is one windowed sample (sim-time ps, value).
	TimeseriesPoint = timeseries.Point

	// MonitorServer serves /metrics, /healthz, /timeseries.json and the
	// SSE /progress stream over a registry and a sampler.
	MonitorServer = serve.Server
	// MonitorProgressEvent is the wire form of one /progress SSE event.
	MonitorProgressEvent = serve.ProgressEvent

	// SLORule is one declarative objective over a recorded series.
	SLORule = slo.Rule
	// SLOReport aggregates rule verdicts; Table() renders the violating
	// (scheme, point) cells, Ok() gates the CLI exit code.
	SLOReport = slo.Report
	// SLOVerdict is one rule × series outcome.
	SLOVerdict = slo.Verdict

	// SweepProgress reports one finished episode to
	// SweepOptions.Progress (done/total, label, elapsed; EpisodesPerSec
	// and ETA derive the stderr/SSE fields).
	SweepProgress = sweep.ProgressEvent
)

// SLO predicate operators.
const (
	SLOFinalAtMost = slo.FinalAtMost
	SLOMaxAtMost   = slo.MaxAtMost
	SLOAlwaysZero  = slo.AlwaysZero
)

// NewTimeseriesSampler returns a sampler with windowPs-wide initial
// buckets (<= 0 selects the 1 ns default) coarsening beyond capacity
// points per series (<= 0 selects 512).
func NewTimeseriesSampler(windowPs int64, capacity int) *TimeseriesSampler {
	return timeseries.New(windowPs, capacity)
}

// NewMonitorServer returns a monitoring server over the given (possibly
// nil) registry and sampler.
func NewMonitorServer(reg *MetricsRegistry, ts *TimeseriesSampler) *MonitorServer {
	return serve.New(reg, ts)
}

// EvaluateSLO applies the rules to a sampler snapshot.
func EvaluateSLO(rules []SLORule, snap TimeseriesSnapshot) *SLOReport {
	return slo.Evaluate(rules, snap)
}

// BatteryBudgetJoules converts a provisioned back-up volume (Table III)
// into the drain's hold-up energy budget. tech is resolved by name
// ("supercap" or "li-thin", case-insensitive); unknown names return false.
func BatteryBudgetJoules(volCm3 float64, tech string) (float64, bool) {
	t, ok := energy.TechByName(tech)
	if !ok {
		return 0, false
	}
	return energy.BudgetJoules(volCm3, t), true
}

// DrainSLORules builds the battery-race objectives for a drain whose
// episodes recorded time series under budgetJ joules of hold-up energy
// (Config.BatteryJoules):
//
//   - drain-energy-budget: the final energy-drawdown point of every
//     scheme/point series must not exceed the budget (Table II vs III).
//   - drain-energy-frac: the budget-fraction series must never exceed 1.
//   - drain-deadline: the drain must finish before processor draw alone
//     (Config.Energy power) exhausts the budget.
//
// Evaluate them with EvaluateSLO over Config.Timeseries.Snapshot().
func DrainSLORules(cfg Config, budgetJ float64) []SLORule {
	deadline := energy.DrainDeadline(cfg.Energy, budgetJ)
	return []SLORule{
		{
			Name: "drain-energy-budget", Series: "horus_ts_energy_j",
			Op: SLOFinalAtMost, Threshold: budgetJ, RequireData: true,
			Description: "total drain energy must fit the battery's hold-up budget (Tables II/III)",
		},
		{
			Name: "drain-energy-frac", Series: "horus_ts_energy_budget_frac",
			Op: SLOMaxAtMost, Threshold: 1.0,
			Description: "energy drawdown must never exceed the battery budget mid-drain",
		},
		{
			Name: "drain-deadline", Series: "horus_ts_drain_time_ps",
			Op: SLOFinalAtMost, Threshold: float64(deadline), RequireData: true,
			Description: "drain must complete before processor draw alone exhausts the battery",
		},
	}
}

// noSilentRule is a crash oracle's recoverability objective over its
// silent series (recordSilent): every sample must be zero, and a run that
// recorded none fails too.
func noSilentRule(name, series, description string) SLORule {
	return SLORule{Name: name, Series: series, Op: SLOAlwaysZero, RequireData: true, Description: description}
}

// TortureSLORules builds the torture-matrix objective: the
// silent-corruption counter series must be zero at every point, for every
// (scheme, fault) cell.
func TortureSLORules() []SLORule {
	return []SLORule{noSilentRule("no-silent-corruption", "horus_ts_torture_silent_total",
		"recovery must never accept corrupted data as valid (torture matrix)")}
}

// LitmusSLORules builds the persistency-litmus objective: the per-ordering
// silent-corruption series must be zero at every point, for every scheme.
func LitmusSLORules() []SLORule {
	return []SLORule{noSilentRule("no-silent-reordering", "horus_ts_litmus_silent_total",
		"no admissible write reordering may recover to silently wrong data (litmus sweep)")}
}
