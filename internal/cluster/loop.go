package cluster

import (
	"container/heap"
	"fmt"
	"sort"
	"strconv"

	"repro/internal/obs/timeseries"
	"repro/internal/sim"
)

// MachineRun is one machine's measured episode: how long its drain takes,
// how much energy the drain draws, and how long its verified recovery
// takes. The root package measures these independently per machine (on
// the sweep worker pool); the event loop plays fleet contention out from
// the measurements, so the loop itself never simulates.
type MachineRun struct {
	// DrainPs is the machine's measured drain time.
	DrainPs int64
	// DrainEnergyJ is the drain's total energy (Table II model).
	DrainEnergyJ float64
	// RecoverPs is the measured verified-recovery time.
	RecoverPs int64
	// Outcome labels the machine's oracle verdict ("restored", "partial",
	// "detected", ...); the loop only forwards it into reports.
	Outcome string
}

// PowerW returns the drain's average power draw — the admission currency
// of the rack power budget. Zero for a zero-length drain.
func (r MachineRun) PowerW() float64 {
	if r.DrainPs <= 0 {
		return 0
	}
	return r.DrainEnergyJ / (sim.Time(r.DrainPs)).Seconds()
}

// LoopConfig bounds the fleet-level contention the loop plays out.
type LoopConfig struct {
	// RackPowerW caps the summed average drain power concurrently drawn
	// per rack (the shared hold-up supply's sustained output). Machines
	// past the cap queue in ID order. <= 0 means uncapped. A machine
	// whose own draw exceeds the cap is still admitted when its rack is
	// otherwise idle — the alternative is deadlock, and a real battery
	// sags rather than refuses.
	RackPowerW float64
	// RackBatteryJ is the rack's shared hold-up energy budget; the loop
	// only accounts against it (RackEnergyJ, BatteryExceeded) — the SLO
	// layer turns the overdraft into a failing exit code.
	RackBatteryJ float64
	// RecoverySlots caps concurrent verified recoveries fleet-wide (the
	// recovery storm's admission control: key-server or attestation
	// bandwidth). <= 0 means uncapped.
	RecoverySlots int
}

// Phase is one state of a machine's outage lifecycle.
type Phase int

const (
	// PhaseServe: powered, serving traffic.
	PhaseServe Phase = iota
	// PhaseDrainWait: power lost, queued for the rack power budget.
	PhaseDrainWait
	// PhaseDrain: draining the persistence domain on battery.
	PhaseDrain
	// PhaseDown: drained, waiting for power to return.
	PhaseDown
	// PhaseRecoverWait: powered again, queued for a recovery slot.
	PhaseRecoverWait
	// PhaseRecover: running verified recovery.
	PhaseRecover
)

func (p Phase) String() string {
	switch p {
	case PhaseServe:
		return "serve"
	case PhaseDrainWait:
		return "drain-wait"
	case PhaseDrain:
		return "drain"
	case PhaseDown:
		return "down"
	case PhaseRecoverWait:
		return "recover-wait"
	case PhaseRecover:
		return "recover"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// Interval is one half-open [StartPs, EndPs) span of a machine phase.
type Interval struct {
	Phase   Phase
	StartPs int64
	EndPs   int64
}

// MachineTimeline is one machine's full phase history.
type MachineTimeline struct {
	Machine   int
	Intervals []Interval
}

// Cycle is one machine's passage through one outage: power cut, drain
// queued and executed, dark wait, recovery queued and executed.
type Cycle struct {
	Machine int
	Outage  int
	// Instants on the fleet clock; RestorePs is the outage's, duplicated
	// here so latencies are self-contained.
	OutageAtPs, DrainStartPs, DrainEndPs int64
	RestorePs                            int64
	RecoverStartPs, RecoverEndPs         int64
}

// DrainLatencyPs is power-cut to drain-complete: queueing under the rack
// power budget plus the measured drain.
func (c Cycle) DrainLatencyPs() int64 { return c.DrainEndPs - c.OutageAtPs }

// RecoverLatencyPs is power-back to service-restored: for a blip this
// includes the remaining drain tail, which is exactly the operator-visible
// time-to-service.
func (c Cycle) RecoverLatencyPs() int64 { return c.RecoverEndPs - c.RestorePs }

// StormStat summarises one outage end to end.
type StormStat struct {
	Outage Outage
	// Machines is how many machines the outage actually caught serving;
	// Skipped counts rack members that were still mid-cycle from an
	// earlier outage (nothing new to drain).
	Machines, Skipped int
	// RestorePs is when power returned.
	RestorePs int64
	// DrainMakespanPs is power-cut to last drain complete across the
	// outage's machines (the battery must carry the rack this long).
	DrainMakespanPs int64
	// StormPs is the recovery storm: power-back to the last machine back
	// in service.
	StormPs int64
	// PeakDrains is the maximum number of this outage's machines draining
	// at once (what the rack power budget admitted).
	PeakDrains int
}

// FleetResult is the event loop's verdict.
type FleetResult struct {
	Config LoopConfig
	// Cycles, ordered by (outage, machine).
	Cycles []Cycle
	// Storms, one per scheduled outage in schedule order.
	Storms []StormStat
	// Timelines, one per machine in ID order.
	Timelines []MachineTimeline
	// RackEnergyJ is the cumulative drain energy drawn per rack.
	RackEnergyJ []float64
	// BatteryExceeded lists the racks whose drains overdrew
	// LoopConfig.RackBatteryJ, ascending. Empty when no budget was set.
	BatteryExceeded []int
	// EndPs is the instant the last event settled.
	EndPs int64
}

// event kinds, in tie-break-relevant order of insertion: all outage and
// restore events enter the heap before the loop starts, so at an equal
// instant an outage precedes its own zero-duration restore, and both
// precede any drain/recover completion scheduled later.
const (
	evOutage = iota
	evRestore
	evDrainDone
	evRecoverDone
)

type event struct {
	t    int64
	seq  int
	kind int
	idx  int // outage index (evOutage/evRestore) or machine ID
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// machineState is the loop's per-machine mutable state.
type machineState struct {
	phase     Phase
	phaseFrom int64
	outage    int  // current cycle's outage index, -1 when serving
	powerBack bool // restore fired while still draining (blip)
	cycle     Cycle
	intervals []Interval
}

// Run plays the schedule out over the fleet under a shared clock: at each
// outage the affected racks' serving machines queue for the rack power
// budget and drain for their measured durations; at power restore the
// drained machines queue for fleet-wide recovery slots and recover for
// their measured durations. Every decision iterates machines in ID order
// and racks ascending, and event ties break by insertion order, so the
// result is a pure function of (fleet, cfg, runs, schedule).
//
// ts, when non-nil, receives the fleet-level series on the shared fleet
// clock: machines up / draining / recovering, per-rack energy drawdown,
// and per-outage storm duration.
func Run(f *Fleet, cfg LoopConfig, runs []MachineRun, sched Schedule, ts *timeseries.Sampler) (*FleetResult, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	if len(runs) != len(f.Machines) {
		return nil, &ConfigError{Field: "runs", Detail: fmt.Sprintf("%d runs for %d machines", len(runs), len(f.Machines))}
	}
	for i, r := range runs {
		if r.DrainPs < 0 || r.RecoverPs < 0 || r.DrainEnergyJ < 0 {
			return nil, &ConfigError{Field: fmt.Sprintf("runs[%d]", i), Detail: "measured durations and energy must be >= 0"}
		}
	}
	if err := sched.Validate(f.Racks); err != nil {
		return nil, err
	}

	res := &FleetResult{
		Config:      cfg,
		Storms:      make([]StormStat, len(sched)),
		Timelines:   make([]MachineTimeline, len(f.Machines)),
		RackEnergyJ: make([]float64, f.Racks),
	}
	for i, o := range sched {
		res.Storms[i].Outage = o
		res.Storms[i].RestorePs = o.AtPs + o.DurationPs
	}

	ms := make([]machineState, len(f.Machines))
	for i := range ms {
		ms[i] = machineState{phase: PhaseServe, outage: -1}
	}
	setPhase := func(id int, p Phase, now int64) {
		st := &ms[id]
		if now > st.phaseFrom {
			st.intervals = append(st.intervals, Interval{Phase: st.phase, StartPs: st.phaseFrom, EndPs: now})
		}
		st.phase = p
		st.phaseFrom = now
	}

	var (
		h          eventHeap
		seq        int
		up         = len(f.Machines)
		draining   = 0
		recovering = 0
		// rack drain admission: FIFO queues and admitted power per rack.
		drainQ    = make([][]int, f.Racks)
		rackPower = make([]float64, f.Racks)
		rackBusy  = make([]int, f.Racks) // admitted drains per rack
		// fleet recovery admission.
		recoverQ []int
		// storm bookkeeping: machines of each outage not yet back serving.
		remaining = make([]int, len(sched))
		restored  = make([]bool, len(sched)) // restore event fired
	)
	push := func(t int64, kind, idx int) {
		heap.Push(&h, event{t: t, seq: seq, kind: kind, idx: idx})
		seq++
	}
	for i, o := range sched {
		push(o.AtPs, evOutage, i)
		push(o.AtPs+o.DurationPs, evRestore, i)
	}

	gUp := ts.Gauge("horus_fleet_ts_up")
	gDrain := ts.Gauge("horus_fleet_ts_draining")
	gRecover := ts.Gauge("horus_fleet_ts_recovering")
	sample := func(now int64) {
		gUp.Record(now, float64(up))
		gDrain.Record(now, float64(draining))
		gRecover.Record(now, float64(recovering))
	}

	admitDrains := func(rack int, now int64) {
		for len(drainQ[rack]) > 0 {
			id := drainQ[rack][0]
			w := runs[id].PowerW()
			if cfg.RackPowerW > 0 && rackBusy[rack] > 0 && rackPower[rack]+w > cfg.RackPowerW {
				return
			}
			drainQ[rack] = drainQ[rack][1:]
			st := &ms[id]
			setPhase(id, PhaseDrain, now)
			st.cycle.DrainStartPs = now
			rackPower[rack] += w
			rackBusy[rack]++
			draining++
			s := &res.Storms[st.outage]
			if n := activeOfOutage(ms, st.outage); n > s.PeakDrains {
				s.PeakDrains = n
			}
			push(now+runs[id].DrainPs, evDrainDone, id)
		}
	}
	admitRecoveries := func(now int64) {
		for len(recoverQ) > 0 && (cfg.RecoverySlots <= 0 || recovering < cfg.RecoverySlots) {
			id := recoverQ[0]
			recoverQ = recoverQ[1:]
			st := &ms[id]
			setPhase(id, PhaseRecover, now)
			st.cycle.RecoverStartPs = now
			recovering++
			push(now+runs[id].RecoverPs, evRecoverDone, id)
		}
	}
	finishStorm := func(oi int, now int64) {
		if !restored[oi] || remaining[oi] != 0 {
			return
		}
		s := &res.Storms[oi]
		s.StormPs = now - s.RestorePs
		if s.StormPs < 0 {
			s.StormPs = 0
		}
		ts.Gauge("horus_fleet_ts_storm_ps", "outage", strconv.Itoa(oi)).Record(now, float64(s.StormPs))
	}

	for h.Len() > 0 {
		e := heap.Pop(&h).(event)
		now := e.t
		if now > res.EndPs {
			res.EndPs = now
		}
		switch e.kind {
		case evOutage:
			o := sched[e.idx]
			racks := o.Racks
			if len(racks) == 0 {
				racks = make([]int, f.Racks)
				for r := range racks {
					racks[r] = r
				}
			}
			for _, r := range racks {
				for _, id := range f.RackMembers(r) {
					st := &ms[id]
					if st.phase != PhaseServe {
						res.Storms[e.idx].Skipped++
						continue
					}
					setPhase(id, PhaseDrainWait, now)
					st.outage = e.idx
					st.powerBack = false
					st.cycle = Cycle{Machine: id, Outage: e.idx, OutageAtPs: now,
						RestorePs: o.AtPs + o.DurationPs}
					drainQ[r] = append(drainQ[r], id)
					res.Storms[e.idx].Machines++
					remaining[e.idx]++
					up--
				}
			}
			for _, r := range racks {
				admitDrains(r, now)
			}
		case evRestore:
			restored[e.idx] = true
			for id := range ms {
				st := &ms[id]
				if st.outage != e.idx {
					continue
				}
				switch st.phase {
				case PhaseDown:
					setPhase(id, PhaseRecoverWait, now)
					recoverQ = append(recoverQ, id)
				case PhaseDrainWait, PhaseDrain:
					st.powerBack = true // blip: recover as soon as the drain lands
				}
			}
			admitRecoveries(now)
			finishStorm(e.idx, now)
		case evDrainDone:
			id := e.idx
			st := &ms[id]
			rack := f.Machines[id].Rack
			rackPower[rack] -= runs[id].PowerW()
			rackBusy[rack]--
			draining--
			st.cycle.DrainEndPs = now
			res.RackEnergyJ[rack] += runs[id].DrainEnergyJ
			ts.Gauge("horus_fleet_ts_rack_energy_j", "rack", strconv.Itoa(rack)).
				Record(now, res.RackEnergyJ[rack])
			if s := &res.Storms[st.outage]; now-s.Outage.AtPs > s.DrainMakespanPs {
				s.DrainMakespanPs = now - s.Outage.AtPs
			}
			if st.powerBack {
				setPhase(id, PhaseRecoverWait, now)
				recoverQ = append(recoverQ, id)
				admitRecoveries(now)
			} else {
				setPhase(id, PhaseDown, now)
			}
			admitDrains(rack, now)
		case evRecoverDone:
			id := e.idx
			st := &ms[id]
			recovering--
			st.cycle.RecoverEndPs = now
			res.Cycles = append(res.Cycles, st.cycle)
			oi := st.outage
			remaining[oi]--
			setPhase(id, PhaseServe, now)
			st.outage = -1
			st.powerBack = false
			up++
			admitRecoveries(now)
			finishStorm(oi, now)
		}
		sample(now)
	}

	// Close the open tail interval of every machine and fix the ordering
	// of the cycle list ((outage, machine), not completion order).
	for id := range ms {
		st := &ms[id]
		// Always appended, even zero-length, so the terminal phase is
		// visible to the oracle (a machine whose recovery lands on the very
		// last event still ends in a Serve interval).
		st.intervals = append(st.intervals,
			Interval{Phase: st.phase, StartPs: st.phaseFrom, EndPs: res.EndPs})
		res.Timelines[id] = MachineTimeline{Machine: id, Intervals: st.intervals}
	}
	sort.SliceStable(res.Cycles, func(i, j int) bool {
		if res.Cycles[i].Outage != res.Cycles[j].Outage {
			return res.Cycles[i].Outage < res.Cycles[j].Outage
		}
		return res.Cycles[i].Machine < res.Cycles[j].Machine
	})
	if cfg.RackBatteryJ > 0 {
		for r, e := range res.RackEnergyJ {
			if e > cfg.RackBatteryJ {
				res.BatteryExceeded = append(res.BatteryExceeded, r)
			}
		}
	}
	return res, nil
}

// activeOfOutage counts the machines of outage oi currently draining.
func activeOfOutage(ms []machineState, oi int) int {
	n := 0
	for i := range ms {
		if ms[i].outage == oi && ms[i].phase == PhaseDrain {
			n++
		}
	}
	return n
}
