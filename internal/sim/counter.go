package sim

import (
	"fmt"
	"sort"
	"strings"
)

// CounterSet is an ordered collection of labelled int64 counters. It is used
// for the per-category breakdowns in the paper's figures (memory writes by
// type, MAC calculations by purpose). Categories appear in the order they
// are first incremented, which keeps reports stable for a deterministic run.
//
// Add is on the simulator's per-memory-access hot path, so values live in a
// slice parallel to the names, and the last-hit index is cached: runs of
// accesses in the same category (the common case in a drain loop, where
// the name is a constant string compared pointer-first) skip the lookup
// entirely. A lookup scans the names: a set holds about ten (the memory
// categories and the L<n> level labels), where a linear scan costs less
// than hashing the name, and a set needs no map allocated.
type CounterSet struct {
	order []string
	vals  []int64
	last  string // name of the most recently added category
	lasti int    // its index in vals
}

// NewCounterSet returns an empty counter set.
func NewCounterSet() *CounterSet {
	return &CounterSet{lasti: -1}
}

// Add increments the named counter by n, creating it if needed.
func (cs *CounterSet) Add(name string, n int64) {
	if cs.lasti >= 0 && name == cs.last {
		cs.vals[cs.lasti] += n
		return
	}
	i := cs.find(name)
	if i < 0 {
		i = len(cs.vals)
		cs.order = append(cs.order, name)
		cs.vals = append(cs.vals, 0)
	}
	cs.vals[i] += n
	cs.last, cs.lasti = name, i
}

// find returns the index of the named counter, or -1.
func (cs *CounterSet) find(name string) int {
	for i, o := range cs.order {
		if o == name {
			return i
		}
	}
	return -1
}

// Get returns the value of the named counter (zero if absent).
func (cs *CounterSet) Get(name string) int64 {
	if i := cs.find(name); i >= 0 {
		return cs.vals[i]
	}
	return 0
}

// Total returns the sum of all counters.
func (cs *CounterSet) Total() int64 {
	var t int64
	for _, v := range cs.vals {
		t += v
	}
	return t
}

// Names returns the counter names in first-use order.
func (cs *CounterSet) Names() []string {
	out := make([]string, len(cs.order))
	copy(out, cs.order)
	return out
}

// SortedNames returns the counter names in lexical order.
func (cs *CounterSet) SortedNames() []string {
	out := cs.Names()
	sort.Strings(out)
	return out
}

// Clone returns a deep copy of the counter set.
func (cs *CounterSet) Clone() *CounterSet {
	out := NewCounterSet()
	for i, name := range cs.order {
		out.Add(name, cs.vals[i])
	}
	return out
}

// Merge adds every counter from other into cs.
func (cs *CounterSet) Merge(other *CounterSet) {
	for i, name := range other.order {
		cs.Add(name, other.vals[i])
	}
}

// String renders "name=value" pairs in first-use order.
func (cs *CounterSet) String() string {
	var b strings.Builder
	for i, name := range cs.order {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%s=%d", name, cs.vals[i])
	}
	return b.String()
}
