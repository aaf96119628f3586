package horus

import (
	"runtime"
	"testing"
)

// TestNewSystemStoreHoldsRoundTrip pins NewSystem's store reservation: for
// every scheme, the whole Warmup → Fill → Drain → Crash → Recover round trip
// fits the capacity the store had at construction, so no table growth (and
// no rehash of the drained image) happens inside the timed drain.
func TestNewSystemStoreHoldsRoundTrip(t *testing.T) {
	for _, s := range AllSchemes() {
		sys := NewSystem(TestConfig(), s)
		st := sys.Core.NVM.Store()
		c0 := st.Cap()
		if err := sys.Warmup(); err != nil {
			t.Fatal(err)
		}
		sys.Fill()
		res, err := sys.Drain()
		if err != nil {
			t.Fatal(err)
		}
		sys.Crash()
		if _, err := sys.Recover(res.Persist); err != nil {
			t.Fatal(err)
		}
		if st.Cap() != c0 {
			t.Errorf("%v: store grew from capacity %d to %d (%d blocks populated)", s, c0, st.Cap(), st.Populated())
		}
	}
}

// workloadSystemBudget caps the bytes one TestConfig NewWorkloadSystem build
// allocates. A build is ~140 KB (caches, layout, engine); an eager store
// reservation sized for a full drain would be ten times that.
const workloadSystemBudget = 512 << 10

// TestNewWorkloadSystemAllocBudget keeps workload machines (torture, litmus,
// fleet) growing their stores on demand: building one must stay under a
// fixed allocation budget, so an eager worst-case reservation cannot return
// unnoticed.
func TestNewWorkloadSystemAllocBudget(t *testing.T) {
	const builds = 4
	for _, s := range AllSchemes() {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < builds; i++ {
			NewWorkloadSystem(TestConfig(), s, DomainEPD)
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / builds; per > workloadSystemBudget {
			t.Errorf("%v: NewWorkloadSystem allocates %d bytes, budget %d", s, per, workloadSystemBudget)
		}
	}
}
