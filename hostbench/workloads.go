package main

import (
	"context"
	"fmt"
	"io"
	"reflect"
	"strings"

	horus "repro"
	"repro/internal/hierarchy"
)

// options sizes every workload. fullSize is what the benchmark runs; tests
// use tinySize.
type options struct {
	seed int64
	// paper is the machine of the paper-* workloads (Table I at full size);
	// small is the TestConfig machine of crash-oracle and traced-grid.
	paper, small horus.Config
	// paperScale names the paper machine's scale for the pinned references.
	paperScale string
	// Caps that shrink the crash oracle (0 = the CLI defaults).
	tortureMaxPoints, litmusMaxEpochs, litmusMaxOrderings int
	// probeCalls caps the calls of each per-layer probe (0 = one full fill).
	probeCalls int
}

func fullSize(seed int64) options {
	return options{seed: seed, paper: horus.DefaultConfig(), small: horus.TestConfig(), paperScale: "paper"}
}

func tinySize(seed int64) options {
	return options{
		seed: seed, paper: horus.TestConfig(), small: horus.TestConfig(), paperScale: "test",
		tortureMaxPoints: 3, litmusMaxEpochs: 2, litmusMaxOrderings: 4, probeCalls: 512,
	}
}

// keySeed derives the AES/MAC key seed from the benchmark seed; seed 1 keeps
// the library default, so seed 1 reproduces the CLIs' outputs.
func keySeed(seed int64) uint64 { return horus.DefaultConfig().KeySeed + uint64(seed-1) }

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	// warm runs one untimed pass before timing, so that the heap has grown
	// and the first timed pass is no slower than the rest.
	warm bool
	// machineSetup marks workloads whose passes build their machines before
	// timing (paper-*): set-up is the median of those builds. Elsewhere the
	// machines are built inside the library calls being timed, and set-up is
	// input construction plus the warm-up pass.
	machineSetup bool
	prepare      func(o options) (instance, error)
}

// instance holds a workload's process-wide inputs.
type instance interface {
	// build sets up one pass and returns the seconds of machine set-up it
	// timed (NewSystem, Warmup and Fill; 0 where set-up happens in the pass).
	build(tr *tracer) (pass, float64, error)
}

// pass is one timed unit of work.
type pass interface {
	// run is the timed part. It must not write to disk.
	run(tr *tracer) error
	// check verifies the simulated outputs after timing.
	check(c *checker)
	// layers adds the per-layer metrics of a traced pass.
	layers(tr *tracer, st passStats, m metricSet)
}

var workloads = []*workload{
	// A baseline pass takes about 12 s; its first pass is no slower than
	// later ones, so it skips the warm-up.
	paperWorkload("paper-baseline", false, horus.BaseLU, horus.BaseEU),
	paperWorkload("paper-horus", true, horus.NonSecure, horus.HorusSLM, horus.HorusDLM),
	{name: "crash-oracle", warm: true, prepare: prepareOracle},
	{name: "traced-grid", warm: true, prepare: prepareGrid},
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func lookupWorkload(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

func schemeID(s horus.Scheme) string { return strings.ToLower(s.String()) }

// ---------------------------------------------------------------------------
// paper-baseline and paper-horus: Table I drains, crash and recovery.

type paperInstance struct {
	name    string
	cfg     horus.Config
	schemes []horus.Scheme
	ref     map[string]drainRef
}

func paperWorkload(name string, warm bool, schemes ...horus.Scheme) *workload {
	return &workload{name: name, warm: warm, machineSetup: true, prepare: func(o options) (instance, error) {
		cfg := o.paper
		cfg.Seed = o.seed
		cfg.KeySeed = keySeed(o.seed)
		return &paperInstance{name: name, cfg: cfg, schemes: schemes, ref: lookupRef(o.paperScale, o.seed)}, nil
	}}
}

type paperMachine struct {
	id     string
	sys    *horus.System
	golden map[uint64]horus.Block // pre-crash hierarchy, for CHV schemes
	res    horus.Result
	rec    horus.RecoveryReport
}

type paperPass struct {
	inst     *paperInstance
	machines []*paperMachine
}

func (pi *paperInstance) build(tr *tracer) (pass, float64, error) {
	p := &paperPass{inst: pi}
	setup := 0.0
	for _, s := range pi.schemes {
		m := &paperMachine{id: schemeID(s)}
		var err error
		setup += tr.span("horus.new_system."+m.id, func() { m.sys = horus.NewSystem(pi.cfg, s) })
		setup += tr.span("secmem.warmup."+m.id, func() { err = m.sys.Warmup() })
		if err != nil {
			return nil, 0, err
		}
		setup += tr.span("hierarchy.fill."+m.id, func() { m.sys.Fill() })
		if s.UsesCHV() {
			m.golden = m.sys.Hierarchy.Golden()
		}
		p.machines = append(p.machines, m)
	}
	return p, setup, nil
}

func (p *paperPass) run(tr *tracer) error {
	for _, m := range p.machines {
		var err error
		tr.span("core.drain."+m.id, func() { m.res, err = m.sys.Drain() })
		if err != nil {
			return fmt.Errorf("%s drain: %w", m.id, err)
		}
		tr.span("horus.crash."+m.id, m.sys.Crash)
		tr.span("recovery.recover."+m.id, func() { m.rec, err = m.sys.Recover(m.res.Persist) })
		if err != nil {
			return fmt.Errorf("%s recovery: %w", m.id, err)
		}
	}
	return nil
}

func (p *paperPass) check(c *checker) {
	for _, m := range p.machines {
		checkEpisode(c, m.id, hierarchyLines(p.inst.cfg), m.res, &m.rec, p.inst.ref)
		if m.golden != nil {
			c.expect(sameBlocks(m.sys.Hierarchy.Golden(), m.golden),
				"%s: recovered hierarchy differs from the pre-crash hierarchy", m.id)
		}
	}
}

func (p *paperPass) layers(tr *tracer, st passStats, m metricSet) {
	spans := 0.0
	for _, pm := range p.machines {
		id := pm.id
		m.add("horus.new_system_s."+id, tr.seconds("horus.new_system."+id), "s")
		m.add("hierarchy.fill_s."+id, tr.seconds("hierarchy.fill."+id), "s")
		m.add("core.drain_s."+id, tr.seconds("core.drain."+id), "s")
		m.add("mem.reads."+id, float64(pm.res.MemReads.Total()), "count")
		m.add("mem.writes."+id, float64(pm.res.MemWrites.Total()), "count")
		m.add("cme.macs."+id, float64(pm.res.TotalMACs()), "count")
		m.add("cme.aes_ops."+id, float64(pm.res.AESOps), "count")
		m.add("sim.drain_ps."+id, float64(pm.res.DrainTime), "ps")
		spans += tr.seconds("core.drain."+id) + tr.seconds("recovery.recover."+id)
		if pm.sys.Scheme.Secure() {
			m.add("secmem.warmup_s."+id, tr.seconds("secmem.warmup."+id), "s")
			m.add("recovery.recover_s."+id, tr.seconds("recovery.recover."+id), "s")
			m.add("sim.recover_ps."+id, float64(pm.rec.Time()), "ps")
		}
	}
	m.add("trace.span_share."+p.inst.name, spans/st.WallS, "ratio")
}

func sameBlocks(a, b map[uint64]horus.Block) bool {
	if len(a) != len(b) {
		return false
	}
	for addr, blk := range a {
		if other, ok := b[addr]; !ok || other != blk {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// crash-oracle: the horus-torture default matrix plus the horus-litmus
// default run, serial.

type oracleInstance struct {
	tc   horus.TortureConfig
	lc   horus.LitmusConfig
	full bool // the CLI-default sizes, whose cell counts are pinned
}

func prepareOracle(o options) (instance, error) {
	cfg := o.small
	// The matrix shape stays the CLI default (workload seed 1): a seeded
	// workload changes the cell count by up to 20%, and host time with it.
	// The benchmark seed varies the key material, so every ciphertext, MAC
	// and detection path differs from seed to seed.
	cfg.Seed = 1
	cfg.KeySeed = keySeed(o.seed)
	return &oracleInstance{
		tc: horus.TortureConfig{Config: cfg, MaxPoints: o.tortureMaxPoints},
		lc: horus.LitmusConfig{
			Config:       cfg,
			Corrupt:      horus.AllCorruptionModels(),
			MaxEpochs:    o.litmusMaxEpochs,
			MaxOrderings: o.litmusMaxOrderings,
			NewWorkload: func(seed int64) *horus.Workload {
				return horus.UniformWorkload(horus.WorkloadConfig{
					Ops: 4000, WorkingSet: 1 << 20, Seed: seed, PersistPercent: 10,
				})
			},
		},
		full: o.tortureMaxPoints == 0 && o.litmusMaxEpochs == 0 && o.litmusMaxOrderings == 0,
	}, nil
}

type oraclePass struct {
	inst                 *oracleInstance
	tort                 *horus.TortureReport
	lit                  *horus.LitmusReport
	tortGaps, litmusGaps []float64 // ms between successive finished cells
}

func (oi *oracleInstance) build(*tracer) (pass, float64, error) {
	return &oraclePass{inst: oi}, 0, nil
}

// cellGaps returns sweep options that, when traced, record the wall time
// between successive finished episodes into gaps.
func cellGaps(tr *tracer, gaps *[]float64) horus.SweepOptions {
	opts := horus.SweepOptions{Parallel: sweepParallel}
	if tr != nil {
		last := tr.now()
		opts.Progress = func(horus.SweepProgress) {
			now := tr.now()
			*gaps = append(*gaps, float64(now-last)/1e6)
			last = now
		}
	}
	return opts
}

func (p *oraclePass) run(tr *tracer) error {
	ctx := context.Background()
	var err error
	tr.span("horus.torture", func() {
		p.tort, err = horus.RunTortureMatrix(ctx, p.inst.tc, cellGaps(tr, &p.tortGaps))
	})
	if err != nil {
		return fmt.Errorf("torture: %w", err)
	}
	tr.span("horus.litmus", func() {
		p.lit, err = horus.RunLitmus(ctx, p.inst.lc, cellGaps(tr, &p.litmusGaps))
	})
	if err != nil {
		return fmt.Errorf("litmus: %w", err)
	}
	return nil
}

func (p *oraclePass) check(c *checker) {
	c.expect(p.tort.Ok(), "torture: %d of %d cells violate the recovery contract", len(p.tort.Failures()), len(p.tort.Cells))
	c.expect(p.lit.Ok(), "litmus: contract violations %v", p.lit.Failures())
	if p.inst.full {
		eq(c, "torture cells", len(p.tort.Cells), 692)
		eq(c, "litmus orderings", len(p.lit.Cells), 1032)
		eq(c, "litmus coverage cells", len(p.lit.Coverage), 120)
	}
}

func (p *oraclePass) layers(tr *tracer, _ passStats, m metricSet) {
	m.add("horus.torture_s", tr.seconds("horus.torture"), "s")
	m.add("horus.litmus_s", tr.seconds("horus.litmus"), "s")
	m.add("horus.torture_cells", float64(len(p.tort.Cells)), "count")
	m.add("horus.litmus_cells", float64(len(p.lit.Cells)+len(p.lit.Coverage)), "count")
	m.add("sweep.torture_cell_p50_ms", percentile(p.tortGaps, 0.5), "ms")
	m.add("sweep.torture_cell_p99_ms", percentile(p.tortGaps, 0.99), "ms")
	m.add("sweep.litmus_cell_p50_ms", percentile(p.litmusGaps, 0.5), "ms")
	m.add("sweep.litmus_cell_p99_ms", percentile(p.litmusGaps, 0.99), "ms")
}

// ---------------------------------------------------------------------------
// traced-grid: the Fig. 11 grid with every instrumentation sink attached,
// then analysis and export.

type gridInstance struct {
	cfg  horus.Config
	want []horus.PointResult // the same grid with every sink nil
	ref  map[string]drainRef
}

func gridPoints(cfg horus.Config) []horus.DrainPoint {
	var pts []horus.DrainPoint
	for _, s := range horus.AllSchemes() {
		pts = append(pts, horus.DrainPoint{Config: cfg, Scheme: s, Recover: true})
	}
	return pts
}

func runGrid(cfg horus.Config) ([]horus.PointResult, error) {
	return horus.RunDrainGrid(context.Background(), gridPoints(cfg), horus.SweepOptions{Parallel: sweepParallel})
}

func prepareGrid(o options) (instance, error) {
	cfg := o.small
	cfg.Seed = o.seed
	cfg.KeySeed = keySeed(o.seed)
	want, err := runGrid(cfg)
	if err != nil {
		return nil, fmt.Errorf("untraced grid: %w", err)
	}
	return &gridInstance{cfg: cfg, want: want, ref: lookupRef("test", o.seed)}, nil
}

type attribution struct {
	label string
	a     horus.TimelineAttribution
	want  int64 // the simulated time the attribution must tile
}

type gridPass struct {
	inst   *gridInstance
	cfg    horus.Config
	prs    []horus.PointResult
	attrs  []attribution
	events int
}

func (gi *gridInstance) build(*tracer) (pass, float64, error) {
	cfg := gi.cfg
	cfg.Metrics = horus.NewMetricsRegistry()
	cfg.Timeline = horus.NewTimelineRecorder(0)
	cfg.Timeseries = horus.NewTimeseriesSampler(0, 0)
	cfg.Evlog = horus.NewEvlog(0)
	return &gridPass{inst: gi, cfg: cfg}, 0, nil
}

func (p *gridPass) run(tr *tracer) error {
	var err error
	tr.span("horus.grid", func() { p.prs, err = runGrid(p.cfg) })
	if err != nil {
		return err
	}
	var recs []*horus.TimelineRecording
	tr.span("timeline.analyze", func() {
		for _, pr := range p.prs {
			label := schemeID(pr.Point.Scheme)
			recs = append(recs, pr.Timeline)
			p.attrs = append(p.attrs, attribution{label + " drain", horus.AnalyzeTimeline(pr.Timeline), int64(pr.Result.DrainTime)})
			if r := pr.Recovery; r != nil {
				if r.Baseline != nil && r.Baseline.Timeline != nil {
					recs = append(recs, r.Baseline.Timeline)
					p.attrs = append(p.attrs, attribution{label + " vault restore", horus.AnalyzeTimeline(r.Baseline.Timeline), int64(r.Baseline.RecoveryTime)})
				}
				if r.Horus != nil && r.Horus.Timeline != nil {
					recs = append(recs, r.Horus.Timeline)
					p.attrs = append(p.attrs, attribution{label + " CHV recovery", horus.AnalyzeTimeline(r.Horus.Timeline), int64(r.Horus.RecoveryTime)})
				}
			}
		}
	})
	for _, r := range recs {
		p.events += len(r.Events)
	}
	tr.span("obs.prom_export", func() { err = p.cfg.Metrics.WritePrometheus(io.Discard) })
	if err != nil {
		return err
	}
	tr.span("timeseries.json_export", func() { err = p.cfg.Timeseries.WriteJSON(io.Discard) })
	if err != nil {
		return err
	}
	tr.span("timeline.chrome_export", func() { err = horus.WriteChromeTrace(io.Discard, recs...) })
	if err != nil {
		return err
	}
	if tr != nil {
		// The disabled-instrumentation reference, for obs.overhead_x.
		tr.span("horus.grid_untraced", func() { _, err = runGrid(p.inst.cfg) })
	}
	return err
}

func (p *gridPass) check(c *checker) {
	eq(c, "grid points", len(p.prs), len(p.inst.want))
	for i := 0; i < len(p.prs) && i < len(p.inst.want); i++ {
		pr, want := p.prs[i], p.inst.want[i]
		id := schemeID(pr.Point.Scheme)
		c.expect(pr.Err == nil, "%s: %v", id, pr.Err)
		c.expect(reflect.DeepEqual(pr.Result, want.Result), "%s: traced drain result differs from the untraced one", id)
		c.expect(sameRecovery(pr.Recovery, want.Recovery), "%s: traced recovery differs from the untraced one", id)
		checkEpisode(c, id, hierarchyLines(p.cfg), pr.Result, pr.Recovery, p.inst.ref)
	}
	c.expect(len(p.attrs) >= len(p.prs), "%d attributions for %d grid points", len(p.attrs), len(p.prs))
	for _, a := range p.attrs {
		c.expect(int64(a.a.Total) == a.want && a.a.AttributedTotal() == a.a.Total,
			"%s: attribution tiles %v of %v, want %d ps", a.label, a.a.AttributedTotal(), a.a.Total, a.want)
	}
}

func (p *gridPass) layers(tr *tracer, _ passStats, m metricSet) {
	grid, untraced := tr.seconds("horus.grid"), tr.seconds("horus.grid_untraced")
	m.add("horus.grid_s", grid, "s")
	m.add("horus.grid_untraced_s", untraced, "s")
	m.add("obs.overhead_x", grid/untraced, "x")
	m.add("timeline.analyze_s", tr.seconds("timeline.analyze"), "s")
	m.add("timeline.chrome_export_s", tr.seconds("timeline.chrome_export"), "s")
	m.add("timeline.events", float64(p.events), "count")
	m.add("obs.prom_export_s", tr.seconds("obs.prom_export"), "s")
	m.add("timeseries.json_export_s", tr.seconds("timeseries.json_export"), "s")
	m.add("evlog.records", float64(evlogRecords(p.inst.cfg)), "count")
}

// evlogRecords counts the flight-recorder records of one Horus-SLM drain and
// recovery. Grid episodes keep their evlogs private, so the grid itself
// cannot report this.
func evlogRecords(cfg horus.Config) int {
	cfg.Evlog = horus.NewEvlog(0)
	sys := horus.NewSystem(cfg, horus.HorusSLM)
	if err := sys.Warmup(); err != nil {
		panic(err) // the same round trip passed the grid's checks
	}
	sys.Fill()
	res, err := sys.Drain()
	if err == nil {
		sys.Crash()
		_, err = sys.Recover(res.Persist)
	}
	if err != nil {
		panic(err)
	}
	return cfg.Evlog.Len()
}

// hierarchyLines is the number of lines a full fill of cfg's hierarchy
// places, and so the number of blocks every drain must flush.
func hierarchyLines(cfg horus.Config) int {
	if cfg.Hierarchy != nil {
		return cfg.Hierarchy.TotalLines()
	}
	return hierarchy.TableIWithLLC(cfg.LLCBytes).TotalLines()
}

func sameRecovery(a, b *horus.RecoveryReport) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Time() != b.Time() || (a.Horus == nil) != (b.Horus == nil) || (a.Baseline == nil) != (b.Baseline == nil) {
		return false
	}
	if a.Horus != nil && (!reflect.DeepEqual(a.Horus.Blocks, b.Horus.Blocks) || a.Horus.MACCalcs != b.Horus.MACCalcs) {
		return false
	}
	return a.Baseline == nil || (a.Baseline.LinesRestored == b.Baseline.LinesRestored && a.Baseline.MACCalcs == b.Baseline.MACCalcs)
}
