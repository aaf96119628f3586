package sim

// Resource models a single-server resource such as a memory bank or a
// command bus: at most one operation occupies it at a time. Reservations
// are gap-filling (see timeline): an operation ready early may use an idle
// interval left by earlier-issued but later-scheduled work, as a queued
// memory controller would.
type Resource struct {
	name string
	kind string // attribution class reported to the tracer
	tl   timeline
	tr   Tracer

	ops  int64
	busy Time // total occupied time, for utilisation reporting
	wait Time // total queueing delay (start - ready) across operations
}

// NewResource returns an idle resource with the given diagnostic name.
func NewResource(name string) *Resource {
	return &Resource{name: name}
}

// Acquire reserves the resource for dur starting no earlier than ready and
// returns the start and completion times of the reservation.
func (r *Resource) Acquire(ready, dur Time) (start, done Time) {
	start = r.tl.reserve(ready, dur)
	done = start + dur
	r.ops++
	r.busy += dur
	r.wait += start - ready
	if r.tr != nil {
		r.tr.OnReserve(r.name, r.kind, ready, start, done, done)
	}
	return start, done
}

// FreeAt returns the time after the last reservation (interior idle gaps
// may still exist before it).
func (r *Resource) FreeAt() Time { return r.tl.freeAt() }

// Ops returns the number of operations served.
func (r *Resource) Ops() int64 { return r.ops }

// BusyTime returns the cumulative occupied duration.
func (r *Resource) BusyTime() Time { return r.busy }

// WaitTime returns the cumulative queueing delay (time operations spent
// between becoming ready and acquiring the resource).
func (r *Resource) WaitTime() Time { return r.wait }

// Name returns the diagnostic name.
func (r *Resource) Name() string { return r.name }

// Reset returns the resource to the idle state and clears statistics.
func (r *Resource) Reset() {
	r.tl.reset()
	r.ops = 0
	r.busy = 0
	r.wait = 0
}

// Engine models a pipelined functional unit, e.g. an AES or MAC engine.
// A new operation can be issued every initiation interval (II); each
// operation completes latency after it issues. Issue slots are gap-filling,
// like Resource.
type Engine struct {
	name    string
	kind    string // attribution class reported to the tracer
	latency Time
	ii      Time

	tl       timeline
	tr       Tracer
	ops      int64
	lastDone Time
	busy     Time // issue-slot occupancy (II per op)
	wait     Time // total structural-hazard delay (start - ready)
}

// NewEngine returns a pipelined engine with the given per-operation latency
// and initiation interval. An II of zero means fully combinational issue
// (no structural hazard); latency must be non-negative.
func NewEngine(name string, latency, ii Time) *Engine {
	if latency < 0 || ii < 0 {
		panic("sim: engine latency and II must be non-negative")
	}
	return &Engine{name: name, latency: latency, ii: ii}
}

// Issue starts one operation no earlier than ready, respecting the
// initiation interval, and returns its completion time.
func (e *Engine) Issue(ready Time) (done Time) {
	var start Time
	if e.ii == 0 {
		start = ready
	} else {
		start = e.tl.reserve(ready, e.ii)
	}
	done = start + e.latency
	e.ops++
	e.busy += e.ii
	e.wait += start - ready
	if done > e.lastDone {
		e.lastDone = done
	}
	if e.tr != nil {
		e.tr.OnReserve(e.name, e.kind, ready, start, start+e.ii, done)
	}
	return done
}

// Ops returns the number of operations issued.
func (e *Engine) Ops() int64 { return e.ops }

// LastDone returns the completion time of the latest-finishing operation.
func (e *Engine) LastDone() Time { return e.lastDone }

// BusyTime returns the cumulative issue-slot occupancy (one initiation
// interval per issued operation; zero for combinational engines).
func (e *Engine) BusyTime() Time { return e.busy }

// WaitTime returns the cumulative structural-hazard delay operations spent
// waiting for an issue slot.
func (e *Engine) WaitTime() Time { return e.wait }

// Name returns the diagnostic name.
func (e *Engine) Name() string { return e.name }

// Reset returns the engine to the idle state and clears statistics.
func (e *Engine) Reset() {
	e.tl.reset()
	e.ops = 0
	e.lastDone = 0
	e.busy = 0
	e.wait = 0
}
