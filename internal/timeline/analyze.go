package timeline

import (
	"cmp"
	"slices"
	"sort"

	"repro/internal/obs"
	"repro/internal/sim"
)

// kindPriority orders the attribution classes the way the paper discusses
// them: memory banks, command bus, then the crypto engines. Unknown kinds
// (custom schemes may add resources) sort after the known ones, by name.
func kindPriority(kind string) int {
	switch kind {
	case "bank":
		return 0
	case "bus":
		return 1
	case "aes":
		return 2
	case "mac":
		return 3
	}
	return 4
}

// pathKey is Analyze's sort key for one event that can bind the critical
// path: the leading fields of the tie order, plus the event's index in the
// recording for the rest.
type pathKey struct {
	done, ready sim.Time
	prio, idx   int32
}

// pathSpan is one critical-path interval found by the walk: the binding
// event's index (-1 for idle) and whether the interval is its wait.
type pathSpan struct {
	from, to sim.Time
	idx      int32
	wait     bool
}

// sameBinding reports whether two binding events (indices, -1 for idle)
// render as the same step: same resource, track, op, label and stage.
func sameBinding(evs []Event, a, b int32) bool {
	if a == b {
		return true
	}
	if a < 0 || b < 0 {
		return false
	}
	x, y := &evs[a], &evs[b]
	return x.Kind == y.Kind && x.Track == y.Track && x.Op == y.Op && x.Label == y.Label && x.Stage == y.Stage
}

// sortTracks orders track names by kind priority, then kind, then name.
func sortTracks(names []string, kindOf map[string]string) {
	sort.Slice(names, func(i, j int) bool {
		ki, kj := kindOf[names[i]], kindOf[names[j]]
		if p, q := kindPriority(ki), kindPriority(kj); p != q {
			return p < q
		}
		if ki != kj {
			return ki < kj
		}
		return names[i] < names[j]
	})
}

// ResourceShare is the critical-path time bound by one resource class.
type ResourceShare struct {
	// Resource is the attribution class: "bank", "bus", "aes", "mac", or
	// "idle" for spans where no recorded operation was in flight.
	Resource string
	// Service is critical-path time the binding operation spent occupying
	// (or in flight on) the resource.
	Service sim.Time
	// Wait is critical-path time the binding operation spent queued for the
	// resource (contention / structural hazard).
	Wait sim.Time
}

// Total returns service plus wait.
func (s ResourceShare) Total() sim.Time { return s.Service + s.Wait }

// PathStep is one interval of the critical path, in forward time order.
type PathStep struct {
	// From/To bound the attributed interval [From, To).
	From, To sim.Time
	// Resource is the attribution class ("idle" for gaps).
	Resource string
	// Phase is "service", "wait" or "idle".
	Phase string
	// Track/Op/Label/Stage describe the binding event (empty for idle).
	Track, Op, Label, Stage string
}

// Attribution is the critical-path decomposition of one episode: the steps
// tile [0, Total) exactly, so the shares (including idle) always sum to the
// episode's measured drain time.
type Attribution struct {
	Episode string
	Total   sim.Time
	// Dropped is carried over from the recording: a non-zero value means
	// events were lost to the recorder limit and the attribution is a lower
	// bound on resource-bound time (the gaps surface as idle).
	Dropped int64
	Shares  []ResourceShare
	Steps   []PathStep
}

// AttributedTotal sums the shares; by construction it equals Total.
func (a Attribution) AttributedTotal() sim.Time {
	var t sim.Time
	for _, s := range a.Shares {
		t += s.Total()
	}
	return t
}

// Share returns the share of one resource class (zero if absent).
func (a Attribution) Share(resource string) ResourceShare {
	for _, s := range a.Shares {
		if s.Resource == resource {
			return s
		}
	}
	return ResourceShare{Resource: resource}
}

// Analyze walks the recording's interval set backwards from the episode end
// and attributes each picosecond to its binding resource.
//
// The walk exploits the structure of reservation-list scheduling: the drain
// code threads each operation's predecessor completion time through as the
// next operation's ready time, so an event's [Ready, Done) span covers both
// its wait for the resource and its service, and its Ready points at the
// dependency that bound it before that. Starting from the episode end, the
// analyzer repeatedly picks the latest-completing event at or before the
// cursor: the interval down to the event's completion (if any) is idle, the
// event's [Start, Done) is service on its resource, [Ready, Start) is wait
// for it, and the cursor continues from Ready. Every interval of [0, Total)
// is attributed exactly once, which is what guarantees the per-scheme
// attribution totals equal the measured drain time.
//
// Ties (several events completing at the same instant) break under a total
// key — smallest Ready first, then kind priority, Track, Start, Op, Label,
// Stage, End and Kind — so the attribution depends only on the set of events,
// never on their record order: it is byte-identical regardless of episode
// scheduling (the -parallel determinism contract) and of how shard
// recordings were merged. Events equal on every field are interchangeable.
//
// The sort orders a compact index of the candidate events rather than the
// 112-byte events themselves, and touches an event only when Done, Ready
// and kind priority all tie.
func Analyze(rec *Recording) Attribution {
	att := Attribution{}
	if rec == nil {
		return att
	}
	att.Episode = rec.Episode
	att.Total = rec.Total
	att.Dropped = rec.Dropped
	if rec.Total <= 0 {
		return att
	}

	evs := rec.Events
	// Zero-progress events (Done <= Ready, e.g. issues on a combinational
	// engine) can never bind the critical path and would stall the walk.
	keys := make([]pathKey, 0, len(evs))
	for i := range evs {
		if e := &evs[i]; e.Done > e.Ready && e.Done <= rec.Total {
			keys = append(keys, pathKey{done: e.Done, ready: e.Ready,
				prio: int32(kindPriority(e.Kind)), idx: int32(i)})
		}
	}
	slices.SortFunc(keys, func(a, b pathKey) int {
		if c := cmp.Compare(a.done, b.done); c != 0 {
			return c
		}
		if c := cmp.Compare(a.ready, b.ready); c != 0 {
			return c
		}
		if c := cmp.Compare(a.prio, b.prio); c != 0 {
			return c
		}
		x, y := &evs[a.idx], &evs[b.idx]
		if c := cmp.Compare(x.Track, y.Track); c != 0 {
			return c
		}
		if c := cmp.Compare(x.Start, y.Start); c != 0 {
			return c
		}
		if c := cmp.Compare(x.Op, y.Op); c != 0 {
			return c
		}
		if c := cmp.Compare(x.Label, y.Label); c != 0 {
			return c
		}
		if c := cmp.Compare(x.Stage, y.Stage); c != 0 {
			return c
		}
		if c := cmp.Compare(x.End, y.End); c != 0 {
			return c
		}
		if c := cmp.Compare(x.Kind, y.Kind); c != 0 {
			return c
		}
		return cmp.Compare(a.idx, b.idx)
	})

	// The walk runs back in time, merging each interval into the later one
	// beside it when both have the same binding attributes and phase.
	var spans []pathSpan
	add := func(sp pathSpan) {
		if sp.to <= sp.from {
			return
		}
		if n := len(spans); n > 0 {
			p := &spans[n-1]
			if p.from == sp.to && p.wait == sp.wait && sameBinding(evs, p.idx, sp.idx) {
				p.from = sp.from
				return
			}
		}
		spans = append(spans, sp)
	}

	// The cursor only moves back, so each search covers the keys below the
	// previous one's result.
	cursor, hi := rec.Total, len(keys)
	for cursor > 0 {
		// First key completing at or after the cursor: if it completes
		// exactly at the cursor it binds (smallest Ready, so it chains the
		// path furthest back); otherwise the key before it is the latest
		// completion before the cursor.
		lo := sort.Search(hi, func(i int) bool { return keys[i].done >= cursor })
		hi = lo
		if lo == len(keys) || keys[lo].done != cursor {
			if lo == 0 {
				add(pathSpan{from: 0, to: cursor, idx: -1})
				break
			}
			done := keys[lo-1].done
			add(pathSpan{from: done, to: cursor, idx: -1})
			cursor = done
			continue
		}
		idx := keys[lo].idx
		ev := &evs[idx]
		start := ev.Start
		if start > cursor {
			start = cursor
		}
		add(pathSpan{from: start, to: cursor, idx: idx})
		add(pathSpan{from: ev.Ready, to: start, idx: idx, wait: true})
		cursor = ev.Ready
	}

	att.Steps = make([]PathStep, len(spans))
	for i, sp := range spans {
		st := &att.Steps[len(spans)-1-i]
		st.From, st.To = sp.from, sp.to
		if sp.idx < 0 {
			st.Resource, st.Phase = "idle", "idle"
			continue
		}
		ev := &evs[sp.idx]
		st.Resource, st.Phase = ev.Kind, "service"
		if sp.wait {
			st.Phase = "wait"
		}
		st.Track, st.Op, st.Label, st.Stage = ev.Track, ev.Op, ev.Label, ev.Stage
	}

	// Aggregate shares in deterministic class order.
	byClass := map[string]*ResourceShare{}
	var classes []string
	for _, s := range att.Steps {
		sh, ok := byClass[s.Resource]
		if !ok {
			sh = &ResourceShare{Resource: s.Resource}
			byClass[s.Resource] = sh
			if s.Resource != "idle" {
				classes = append(classes, s.Resource)
			}
		}
		if s.Phase == "wait" {
			sh.Wait += s.To - s.From
		} else {
			sh.Service += s.To - s.From
		}
	}
	sort.Slice(classes, func(i, j int) bool {
		if p, q := kindPriority(classes[i]), kindPriority(classes[j]); p != q {
			return p < q
		}
		return classes[i] < classes[j]
	})
	for _, c := range classes {
		att.Shares = append(att.Shares, *byClass[c])
	}
	if idle, ok := byClass["idle"]; ok {
		att.Shares = append(att.Shares, *idle)
	}
	return att
}

// Publish emits the attribution as horus_critical_path_ps counters into the
// registry (nil-safe), labelled by resource and phase plus the given extra
// labels (alternating key, value — e.g. "scheme", "Horus-SLM").
func (a Attribution) Publish(reg *obs.Registry, labels ...string) {
	if reg == nil {
		return
	}
	reg.SetHelp("horus_critical_path_ps",
		"Drain critical-path time bound by each resource class, picoseconds (service = occupying the resource, wait = queued for it).")
	for _, s := range a.Shares {
		if s.Resource == "idle" {
			if s.Total() > 0 {
				lbl := append([]string{"resource", "idle", "phase", "idle"}, labels...)
				reg.Counter("horus_critical_path_ps", lbl...).Add(int64(s.Total()))
			}
			continue
		}
		if s.Service > 0 {
			lbl := append([]string{"resource", s.Resource, "phase", "service"}, labels...)
			reg.Counter("horus_critical_path_ps", lbl...).Add(int64(s.Service))
		}
		if s.Wait > 0 {
			lbl := append([]string{"resource", s.Resource, "phase", "wait"}, labels...)
			reg.Counter("horus_critical_path_ps", lbl...).Add(int64(s.Wait))
		}
	}
}
