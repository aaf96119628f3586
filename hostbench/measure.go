package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	rm "runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects a run's metrics by name.
type metricSet map[string]metric

func (m metricSet) add(name string, v float64, unit string) { m[name] = metric{v, unit} }

// report is the outcome of one benchmark run.
type report struct {
	Passes    int         `json:"passes"`
	Attempted int         `json:"attempted"`
	Failed    int         `json:"failed"`
	Failures  []string    `json:"failures,omitempty"`
	Metrics   metricSet   `json:"metrics"`
	Samples   []passStats `json:"samples,omitempty"`
}

// checker counts output checks and keeps the first few failures.
type checker struct {
	run, failed int
	failures    []string
}

func (c *checker) expect(ok bool, format string, args ...any) {
	c.run++
	if ok {
		return
	}
	c.failed++
	if len(c.failures) < 20 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// eq checks got == want.
func eq[T comparable](c *checker, what string, got, want T) {
	c.expect(got == want, "%s = %v, want %v", what, got, want)
}

// passStats is the host cost of one timed pass.
type passStats struct {
	SetupS float64 `json:"setup_s"` // per-pass machine set-up, timed apart from the pass
	WallS  float64 `json:"wall_s"`
	CPUS   float64 `json:"cpu_s"`
	Allocs uint64  `json:"allocs"`
	Bytes  uint64  `json:"bytes"`
	LiveB  uint64  `json:"live_bytes"`
	GCs    uint64  `json:"gc_cycles"`
	GCCPUS float64 `json:"gc_cpu_s"`
	// StealS is the CPU time the hypervisor gave to other tenants during
	// the pass, summed over the machine's CPUs. Disturbed marks a pass that
	// lost more than maxStolen of the machine's capacity that way.
	StealS    float64 `json:"steal_s"`
	Disturbed bool    `json:"disturbed,omitempty"`
}

// A pass that loses more than maxStolen of the machine's CPU capacity to
// steal time measures the other tenants of the host, not the simulator. Such
// passes stay in the samples but not in the medians, and the run goes on
// until it has measured its time in undisturbed passes, for at most
// stealPatience times that long.
const (
	maxStolen     = 0.01
	stealPatience = 2
)

// stealSeconds returns the machine's cumulative steal time from /proc/stat
// (in USER_HZ ticks of 10 ms), or 0 where it is not available.
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100
}

// costSample is a reading of the process cost counters.
type costSample struct {
	wall   time.Time
	cpu    time.Duration
	allocs uint64
	bytes  uint64
	gcs    uint64
	gcCPU  float64
}

var gcMetrics = []rm.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/cpu/classes/gc/total:cpu-seconds"}}

func readCost() costSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := append([]rm.Sample(nil), gcMetrics...)
	rm.Read(s)
	return costSample{
		wall:   time.Now(),
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocs: ms.Mallocs,
		bytes:  ms.TotalAlloc,
		gcs:    s[0].Value.Uint64(),
		gcCPU:  s[1].Value.Float64(),
	}
}

// runPass builds one pass, times it after a forced GC, reads the live heap
// with the pass's machines and reports still referenced, and then checks the
// pass's outputs. A pass that returns an error counts as a failed check.
func runPass(inst instance, tr *tracer, c *checker) (passStats, pass, error) {
	start, steal := time.Now(), stealSeconds()
	p, setup, err := inst.build(tr)
	if err != nil {
		return passStats{}, nil, fmt.Errorf("set-up: %w", err)
	}
	runtime.GC()
	before := readCost()
	runErr := p.run(tr)
	after := readCost()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	st := passStats{
		SetupS: setup,
		WallS:  after.wall.Sub(before.wall).Seconds(),
		CPUS:   (after.cpu - before.cpu).Seconds(),
		Allocs: after.allocs - before.allocs,
		Bytes:  after.bytes - before.bytes,
		LiveB:  ms.HeapAlloc,
		GCs:    after.gcs - before.gcs,
		GCCPUS: after.gcCPU - before.gcCPU,
		StealS: stealSeconds() - steal,
	}
	st.Disturbed = st.StealS > maxStolen*time.Since(start).Seconds()*float64(runtime.NumCPU())
	c.expect(runErr == nil, "pass: %v", runErr)
	if runErr != nil {
		return st, nil, nil
	}
	p.check(c)
	return st, p, nil
}

// measure runs the end-to-end measurement of one workload: optional warm-up,
// then timed passes until the measurement time is used up (at least one),
// not counting passes disturbed by steal time.
func measure(w *workload, o options, seconds float64) (report, error) {
	c := &checker{}
	start := time.Now()
	inst, err := w.prepare(o)
	if err != nil {
		return report{}, err
	}
	if w.warm {
		if _, _, err := runPass(inst, nil, c); err != nil {
			return report{}, err
		}
	}
	setupOnce := time.Since(start).Seconds()
	var all, kept []passStats
	undisturbed := 0.0
	t0 := time.Now()
	for len(all) == 0 || (undisturbed < seconds && time.Since(t0).Seconds() < stealPatience*seconds) {
		p0 := time.Now()
		st, _, err := runPass(inst, nil, c)
		if err != nil {
			return report{}, err
		}
		all = append(all, st)
		if !st.Disturbed {
			kept = append(kept, st)
			undisturbed += time.Since(p0).Seconds()
		}
	}
	if len(kept) == 0 {
		kept = all
	}

	col := func(f func(passStats) float64) float64 {
		v := make([]float64, len(kept))
		for i, p := range kept {
			v[i] = f(p)
		}
		return median(v)
	}
	setup := setupOnce
	if w.machineSetup {
		setup = col(func(p passStats) float64 { return p.SetupS })
	}
	m := metricSet{}
	m.add("setup_s", setup, "s")
	m.add("run_s", col(func(p passStats) float64 { return p.WallS }), "s")
	m.add("cpu_s", col(func(p passStats) float64 { return p.CPUS }), "s")
	m.add("allocs_m", col(func(p passStats) float64 { return float64(p.Allocs) / 1e6 }), "Mobj")
	m.add("alloc_mb", col(func(p passStats) float64 { return float64(p.Bytes) / (1 << 20) }), "MB")
	m.add("live_heap_mb", col(func(p passStats) float64 { return float64(p.LiveB) / (1 << 20) }), "MB")
	m.add("ok_frac", float64(c.run-c.failed)/float64(max(c.run, 1)), "ratio")
	return report{
		Passes: len(kept), Attempted: c.run, Failed: c.failed, Failures: c.failures,
		Metrics: m, Samples: all,
	}, nil
}

// median returns the middle value (mean of the two middle values for an even
// count) of v; v is reordered.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of v; v is
// reordered.
func percentile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	sort.Float64s(v)
	i := int(math.Ceil(q*float64(len(v)))) - 1
	return v[max(i, 0)]
}
