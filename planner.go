package horus

import (
	"context"
	"fmt"

	"repro/internal/energy"
	"repro/internal/mem"
	"repro/internal/sim"
)

// BatteryPlan is a closed-form estimate of an EPD platform's worst-case
// draining episode: the sizing exercise the paper argues every secure EPD
// deployment must do (§I, §V-G). Estimates are analytic — no simulation —
// and validated against the simulator to within tens of percent
// (TestPlannerTracksSimulation); use RunDrain for exact numbers.
type BatteryPlan struct {
	Scheme Scheme
	Blocks int // worst-case dirty lines (total hierarchy capacity)

	// Estimated draining traffic.
	Writes int64
	Reads  int64
	MACs   int64

	// DrainTime is the bandwidth-bound hold-up estimate.
	DrainTime Time
	// EnergyJ and the battery volumes follow Table II/III's model.
	EnergyJ     float64
	SuperCapCm3 float64
	LiThinCm3   float64
}

// Per-block traffic constants for the baselines in the paper's worst-case
// regime (spacing = memory/cache capacity, Table I metadata caches),
// calibrated once against the simulator. The Horus schemes need no
// calibration — their costs are exact by construction.
const (
	planLUWritesPerBlock = 4.6
	planLUReadsPerBlock  = 5.2
	planLUMACsPerBlock   = 7.8
	planEUWritesPerBlock = 4.55
	planEUReadsPerBlock  = 3.5
	planEUMACsPerBlock   = 11.5
	// planChainInflation covers dependency-chain overhead above the pure
	// bandwidth bound observed in simulation.
	planChainInflation = 1.25
)

// PlanBattery computes the worst-case draining estimate for a scheme under
// the given configuration.
func PlanBattery(cfg Config, scheme Scheme) BatteryPlan {
	h := cfg.hierarchyConfig()
	n := int64(h.TotalLines())
	metaLines := int64((cfg.Sec.CounterCacheBytes + cfg.Sec.MACCacheBytes + cfg.Sec.TreeCacheBytes) / mem.BlockSize)

	p := BatteryPlan{Scheme: scheme, Blocks: int(n)}
	switch scheme {
	case NonSecure:
		p.Writes = n
	case HorusSLM:
		p.Writes = n + (n+7)/8 + (n+7)/8 + metaLines
		p.MACs = n + metaLines + metaLines/7
	case HorusDLM:
		p.Writes = n + (n+7)/8 + (n+63)/64 + metaLines
		p.MACs = n + (n+7)/8 + metaLines + metaLines/7
	case BaseLU:
		p.Writes = int64(planLUWritesPerBlock * float64(n))
		p.Reads = int64(planLUReadsPerBlock * float64(n))
		p.MACs = int64(planLUMACsPerBlock * float64(n))
	case BaseEU:
		p.Writes = int64(planEUWritesPerBlock * float64(n))
		p.Reads = int64(planEUReadsPerBlock * float64(n))
		p.MACs = int64(planEUMACsPerBlock * float64(n))
	}

	// Bandwidth bound: banks, bus and the MAC engine are the candidate
	// bottlenecks; dependency chains inflate the winner.
	mcfg := cfg.Mem
	bankTime := (sim.Time(p.Writes)*mcfg.WriteLatency + sim.Time(p.Reads)*mcfg.ReadLatency) / sim.Time(mcfg.Banks)
	busTime := sim.Time(p.Writes+p.Reads) * mcfg.BusSlot
	clk := sim.NewClock(cfg.Sec.ClockHz)
	macTime := sim.Time(p.MACs) * clk.Cycles(cfg.Sec.MACIICycle)
	bound := sim.MaxTime(bankTime, sim.MaxTime(busTime, macTime))
	p.DrainTime = sim.Time(float64(bound) * planChainInflation)

	b := energy.Estimate(cfg.Energy, p.DrainTime, p.Writes, p.Reads)
	p.EnergyJ = b.Total()
	p.SuperCapCm3 = energy.Volume(p.EnergyJ, energy.SuperCap)
	p.LiThinCm3 = energy.Volume(p.EnergyJ, energy.LiThin)
	return p
}

// PlanValidation pairs a closed-form battery plan with the simulated
// draining episode it estimates, and the hold-up estimate error.
type PlanValidation struct {
	Scheme    Scheme
	Plan      BatteryPlan
	Simulated Result
	// ErrorPct is (estimate - simulated)/simulated hold-up, in percent.
	ErrorPct float64
}

// ValidatePlans simulates a draining episode per scheme and compares it to
// PlanBattery's closed-form estimate: one grid point per scheme, run on the
// engine's worker pool. On failure it returns the validations that
// completed alongside the aggregate error.
func ValidatePlans(ctx context.Context, cfg Config, schemes []Scheme, opts SweepOptions) ([]PlanValidation, error) {
	points := make([]DrainPoint, len(schemes))
	for i, s := range schemes {
		points[i] = DrainPoint{Label: "validate/" + s.String(), Config: cfg, Scheme: s}
	}
	prs, err := RunDrainGrid(ctx, points, opts)
	var out []PlanValidation
	for i, pr := range prs {
		if pr.Err != nil {
			continue
		}
		p := PlanBattery(cfg, schemes[i])
		out = append(out, PlanValidation{
			Scheme:    schemes[i],
			Plan:      p,
			Simulated: pr.Result,
			ErrorPct:  100 * (float64(p.DrainTime) - float64(pr.Result.DrainTime)) / float64(pr.Result.DrainTime),
		})
	}
	if err != nil {
		return out, fmt.Errorf("horus: plan validation: %w", err)
	}
	return out, nil
}
