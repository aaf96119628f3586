package cluster

import (
	"fmt"
	"strings"

	"repro/internal/sim"
)

// RoutePolicy selects how client sessions are assigned to machines before
// the outage: the routing decides each machine's pre-crash load, and load
// decides how much dirty state the machine must drain when its rack goes
// dark.
type RoutePolicy int

const (
	// RouteRoundRobin deals sessions out in machine-ID order.
	RouteRoundRobin RoutePolicy = iota
	// RouteHash routes each session by a splitmix64 hash of its tenant ID
	// (sticky per tenant, uneven under skew).
	RouteHash
	// RouteLeastLoaded routes each session to the machine with the fewest
	// sessions so far (ties break by machine ID).
	RouteLeastLoaded
)

func (p RoutePolicy) String() string {
	switch p {
	case RouteRoundRobin:
		return "round-robin"
	case RouteHash:
		return "hash"
	case RouteLeastLoaded:
		return "least-loaded"
	default:
		return fmt.Sprintf("RoutePolicy(%d)", int(p))
	}
}

// ParsePolicy resolves a CLI routing-policy name.
func ParsePolicy(name string) (RoutePolicy, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "rr", "round-robin", "roundrobin":
		return RouteRoundRobin, nil
	case "hash":
		return RouteHash, nil
	case "least", "least-loaded", "leastloaded":
		return RouteLeastLoaded, nil
	default:
		return 0, fmt.Errorf("unknown routing policy %q (want rr|hash|least)", name)
	}
}

// RouteStats is the outcome of routing a session stream into the fleet.
type RouteStats struct {
	Policy RoutePolicy
	// Sessions[id] counts the sessions each machine admitted.
	Sessions []int
	// Routed counts sessions admitted by their first-choice machine;
	// FailedOver ones were rerouted off a dark rack; Rejected ones
	// arrived during an outage with failover disabled (or with every
	// rack dark) and were dropped.
	Routed, FailedOver, Rejected int
}

// Total returns all admitted sessions.
func (rs RouteStats) Total() int { return rs.Routed + rs.FailedOver }

// RouteSessions assigns n tenant sessions, arriving evenly over
// [0, horizonPs), to the fleet's machines under the policy. Admission
// control is outage-aware: a session whose first-choice machine sits in a
// dark rack at arrival either fails over to the next up machine (in
// policy order) or is rejected when failover is off. The outage windows
// are the scheduled [AtPs, AtPs+DurationPs) spans — routing happens
// before per-machine recovery times are known, so the post-restore
// recovery tail is not modelled as downtime here.
//
// Routing is a pure function of its arguments: tenant IDs derive from
// (seed, session index) via splitmix64, so the assignment is independent
// of any scheduling or map order.
func RouteSessions(f *Fleet, sched Schedule, n int, horizonPs int64, pol RoutePolicy, failover bool, seed int64) RouteStats {
	rs := RouteStats{Policy: pol, Sessions: make([]int, len(f.Machines))}
	if n <= 0 || len(f.Machines) == 0 {
		return rs
	}
	up := func(id int, t int64) bool { return !sched.DarkAt(f.Machines[id].Rack, t) }
	leastLoaded := func() int {
		best := 0
		for id := 1; id < len(rs.Sessions); id++ {
			if rs.Sessions[id] < rs.Sessions[best] {
				best = id
			}
		}
		return best
	}
	for i := 0; i < n; i++ {
		// Arrival instant: even spacing keeps the load profile independent
		// of n's factorisation; tenant identity comes from the seed.
		t := int64(0)
		if horizonPs > 0 {
			t = int64(uint64(horizonPs) * uint64(i) / uint64(n))
		}
		tenant := sim.SplitMix64(uint64(seed) + uint64(i)*sim.SplitMixGamma)
		var first int
		switch pol {
		case RouteHash:
			first = int(tenant % uint64(len(f.Machines)))
		case RouteLeastLoaded:
			first = leastLoaded()
		default: // round-robin
			first = i % len(f.Machines)
		}
		switch {
		case up(first, t):
			rs.Sessions[first]++
			rs.Routed++
		case failover:
			// Scan forward from the first choice in ID order; the fleet
			// may be entirely dark during a site-wide outage.
			found := -1
			for k := 1; k < len(f.Machines); k++ {
				cand := (first + k) % len(f.Machines)
				if up(cand, t) {
					found = cand
					break
				}
			}
			if found < 0 {
				rs.Rejected++
				break
			}
			rs.Sessions[found]++
			rs.FailedOver++
		default:
			rs.Rejected++
		}
	}
	return rs
}
