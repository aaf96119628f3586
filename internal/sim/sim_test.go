package sim

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"
)

func TestTimeUnits(t *testing.T) {
	if Second != 1000*Millisecond || Millisecond != 1000*Microsecond ||
		Microsecond != 1000*Nanosecond || Nanosecond != 1000*Picosecond {
		t.Fatal("time unit ladder broken")
	}
	if got := (2 * Second).Seconds(); got != 2.0 {
		t.Errorf("Seconds() = %v, want 2", got)
	}
	if got := (500 * Nanosecond).Nanoseconds(); got != 500.0 {
		t.Errorf("Nanoseconds() = %v, want 500", got)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		d    Time
		want string
	}{
		{5 * Picosecond, "5ps"},
		{500 * Nanosecond, "500.00ns"},
		{3 * Microsecond, "3.00us"},
		{42 * Millisecond, "42.00ms"},
		{2 * Second, "2.000s"},
		{15 * Second, "15.000s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func TestClock(t *testing.T) {
	c := NewClock(4_000_000_000) // 4 GHz
	if c.Period() != 250*Picosecond {
		t.Fatalf("4GHz period = %v, want 250ps", c.Period())
	}
	if c.Cycles(40) != 10*Nanosecond {
		t.Errorf("40 cycles at 4GHz = %v, want 10ns", c.Cycles(40))
	}
	if c.Cycles(160) != 40*Nanosecond {
		t.Errorf("160 cycles at 4GHz = %v, want 40ns", c.Cycles(160))
	}
}

func TestClockPanicsOnBadFrequency(t *testing.T) {
	for _, hz := range []int64{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewClock(%d) did not panic", hz)
				}
			}()
			NewClock(hz)
		}()
	}
}

func TestResourceSerialisation(t *testing.T) {
	r := NewResource("bank0")
	start, done := r.Acquire(0, 100)
	if start != 0 || done != 100 {
		t.Fatalf("first acquire = (%v,%v), want (0,100)", start, done)
	}
	// A request ready at t=10 must wait for the previous occupancy.
	start, done = r.Acquire(10, 50)
	if start != 100 || done != 150 {
		t.Fatalf("second acquire = (%v,%v), want (100,150)", start, done)
	}
	// A request ready after the resource is free starts immediately.
	start, done = r.Acquire(500, 25)
	if start != 500 || done != 525 {
		t.Fatalf("third acquire = (%v,%v), want (500,525)", start, done)
	}
	if r.Ops() != 3 {
		t.Errorf("Ops = %d, want 3", r.Ops())
	}
	if r.BusyTime() != 175 {
		t.Errorf("BusyTime = %v, want 175", r.BusyTime())
	}
}

func TestResourceReset(t *testing.T) {
	r := NewResource("x")
	r.Acquire(0, 100)
	r.Reset()
	if r.FreeAt() != 0 || r.Ops() != 0 || r.BusyTime() != 0 {
		t.Error("Reset did not clear state")
	}
}

// Reservations on a single-server resource must never overlap and must
// never start before their ready time, regardless of issue order (the
// gap-filling scheduler may place later requests into earlier idle slots).
func TestResourceNoOverlapProperty(t *testing.T) {
	f := func(readies []uint16, durs []uint8) bool {
		r := NewResource("p")
		type span struct{ s, e Time }
		var spans []span
		n := len(readies)
		if len(durs) < n {
			n = len(durs)
		}
		for i := 0; i < n; i++ {
			d := Time(durs[i]%50) + 1
			ready := Time(readies[i] % 2000)
			start, done := r.Acquire(ready, d)
			if start < ready || done != start+d {
				return false
			}
			for _, sp := range spans {
				if start < sp.e && sp.s < done {
					return false // overlap
				}
			}
			spans = append(spans, span{start, done})
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Gap filling: a later-issued request that is ready early must be able to
// use an idle interval left before an earlier long-scheduled request.
func TestResourceGapFilling(t *testing.T) {
	r := NewResource("bank")
	// First request not ready until t=1000: creates a [0,1000) idle gap.
	start, _ := r.Acquire(1000, 100)
	if start != 1000 {
		t.Fatalf("first start = %v, want 1000", start)
	}
	// Second request ready at 0 fits in the gap.
	start, done := r.Acquire(0, 100)
	if start != 0 || done != 100 {
		t.Fatalf("gap-filled request = (%v,%v), want (0,100)", start, done)
	}
	// Utilisation accounting still adds up.
	if r.BusyTime() != 200 {
		t.Errorf("BusyTime = %v, want 200", r.BusyTime())
	}
}

func TestEnginePipelining(t *testing.T) {
	e := NewEngine("mac", 160, 40)
	// Back-to-back issues are spaced by the II but each takes full latency.
	d0 := e.Issue(0)
	d1 := e.Issue(0)
	d2 := e.Issue(0)
	if d0 != 160 || d1 != 200 || d2 != 240 {
		t.Fatalf("pipelined completions = %v,%v,%v, want 160,200,240", d0, d1, d2)
	}
	if e.Ops() != 3 {
		t.Errorf("Ops = %d, want 3", e.Ops())
	}
	if e.LastDone() != 240 {
		t.Errorf("LastDone = %v, want 240", e.LastDone())
	}
}

func TestEngineIdleIssue(t *testing.T) {
	e := NewEngine("aes", 10, 4)
	e.Issue(0)
	// After the pipeline drains, a late request issues immediately.
	if done := e.Issue(1000); done != 1010 {
		t.Errorf("idle issue done = %v, want 1010", done)
	}
}

func TestEngineZeroII(t *testing.T) {
	e := NewEngine("comb", 7, 0)
	if d := e.Issue(0); d != 7 {
		t.Errorf("done = %v, want 7", d)
	}
	if d := e.Issue(0); d != 7 {
		t.Errorf("second done = %v, want 7 (no structural hazard)", d)
	}
}

func TestEnginePanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewEngine with negative latency did not panic")
		}
	}()
	NewEngine("bad", -1, 0)
}

func TestMaxTime(t *testing.T) {
	if MaxTime(1, 2) != 2 || MaxTime(5, 3) != 5 || MaxTime(4, 4) != 4 {
		t.Error("MaxTime broken")
	}
}

func TestCounterSet(t *testing.T) {
	cs := NewCounterSet()
	cs.Add("writes", 3)
	cs.Add("reads", 2)
	cs.Add("writes", 4)
	if cs.Get("writes") != 7 || cs.Get("reads") != 2 {
		t.Fatalf("counts wrong: %v", cs)
	}
	if cs.Get("absent") != 0 {
		t.Error("absent counter should read zero")
	}
	if cs.Total() != 9 {
		t.Errorf("Total = %d, want 9", cs.Total())
	}
	names := cs.Names()
	if len(names) != 2 || names[0] != "writes" || names[1] != "reads" {
		t.Errorf("Names = %v, want first-use order [writes reads]", names)
	}
	sorted := cs.SortedNames()
	if sorted[0] != "reads" || sorted[1] != "writes" {
		t.Errorf("SortedNames = %v", sorted)
	}
	if got := cs.String(); got != "writes=7 reads=2" {
		t.Errorf("String = %q", got)
	}
	if cs.Get("absent") != 0 || len(cs.Names()) != 2 {
		t.Error("Get of an absent name created it")
	}

	// More names than a set usually holds, added out of lexical order and
	// revisited in a different order than first use: values, first-use
	// order and Get (which skips the last-hit cache) must all agree with a
	// map.
	big := NewCounterSet()
	want := map[string]int64{}
	var first []string
	for round := 0; round < 3; round++ {
		for k := 0; k < 20; k++ {
			name := fmt.Sprintf("L%d", (k*7)%20)
			if round == 1 {
				name = fmt.Sprintf("L%d", 19-k)
			}
			if _, seen := want[name]; !seen {
				first = append(first, name)
			}
			big.Add(name, int64(k+1))
			big.Add(name, 1) // a last-hit repeat
			want[name] += int64(k + 2)
		}
	}
	if got := big.Names(); !slices.Equal(got, first) {
		t.Errorf("Names = %v, want first-use order %v", got, first)
	}
	var total int64
	for name, v := range want {
		if got := big.Get(name); got != v {
			t.Errorf("Get(%q) = %d, want %d", name, got, v)
		}
		total += v
	}
	if big.Total() != total || big.Get("L20") != 0 {
		t.Errorf("Total = %d (want %d), Get(absent) = %d", big.Total(), total, big.Get("L20"))
	}

	// Clone and Merge keep names, order and values.
	c := big.Clone()
	if c.String() != big.String() || !slices.Equal(c.Names(), big.Names()) {
		t.Errorf("Clone = %v, want %v", c, big)
	}
	m := NewCounterSet()
	m.Merge(big)
	m.Merge(c)
	for _, name := range first {
		if m.Get(name) != 2*want[name] {
			t.Errorf("Merge: %s = %d, want %d", name, m.Get(name), 2*want[name])
		}
	}
	if !slices.Equal(m.Names(), first) {
		t.Errorf("Merge order = %v, want %v", m.Names(), first)
	}
}

func TestCounterSetCloneAndMerge(t *testing.T) {
	a := NewCounterSet()
	a.Add("x", 1)
	b := a.Clone()
	b.Add("x", 1)
	b.Add("y", 5)
	if a.Get("x") != 1 || a.Get("y") != 0 {
		t.Error("Clone is not independent of the original")
	}
	a.Merge(b)
	if a.Get("x") != 3 || a.Get("y") != 5 {
		t.Errorf("Merge result wrong: %v", a)
	}
}
