package horus

import (
	"context"
	"fmt"

	"repro/internal/hierarchy"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// Ablations bundles the design-space studies DESIGN.md §5 calls out,
// rendered as tables. They complement the paper's figures with the
// simulator's own sensitivity analyses.
type Ablations struct {
	FillPattern *report.Table // baseline vs Horus across pre-crash content patterns
	DataSize    *report.Table // capacity decoupling (§I design goal)
	TreeProfile *report.Table // per-level fetch profile behind Fig. 6
	Recovery    *report.Table // serial vs bank-parallel CHV read-back
}

// RunAblations executes the ablation suite at the given configuration
// scale through the episode engine: each study is a declarative point grid
// (or custom episode set) sharing ctx and the worker-pool options.
func RunAblations(ctx context.Context, cfg Config, opts SweepOptions) (Ablations, error) {
	var a Ablations
	var err error
	if a.FillPattern, err = ablateFillPattern(ctx, cfg, opts); err != nil {
		return a, err
	}
	if a.DataSize, err = ablateDataSize(ctx, cfg, opts); err != nil {
		return a, err
	}
	if a.TreeProfile, err = ablateTreeProfile(ctx, cfg, opts); err != nil {
		return a, err
	}
	if a.Recovery, err = ablateRecovery(ctx, cfg, opts); err != nil {
		return a, err
	}
	return a, nil
}

// ablationSchemes are the two designs every ablation contrasts: the lazy
// baseline against Horus-SLM.
var ablationSchemes = []Scheme{BaseLU, HorusSLM}

// pairGrid runs a (case × {Base-LU, Horus-SLM}) grid and renders one table
// row per case with the per-block access count of each scheme.
func pairGrid(ctx context.Context, opts SweepOptions, t *report.Table, names []string, configs []Config) error {
	var points []DrainPoint
	for i, c := range configs {
		for _, s := range ablationSchemes {
			points = append(points, DrainPoint{
				Label:  fmt.Sprintf("%s/%v", names[i], s),
				Config: c,
				Scheme: s,
			})
		}
	}
	prs, err := RunDrainGrid(ctx, points, opts)
	if err != nil {
		return err
	}
	for i := range configs {
		lu := prs[i*len(ablationSchemes)].Result
		slm := prs[i*len(ablationSchemes)+1].Result
		t.AddRow(names[i],
			fmt.Sprintf("%.2f", perBlock(lu)),
			fmt.Sprintf("%.2f", perBlock(slm)))
	}
	return nil
}

func ablateFillPattern(ctx context.Context, cfg Config, opts SweepOptions) (*report.Table, error) {
	t := &report.Table{
		Title:  "Ablation: pre-crash content pattern (accesses per drained block)",
		Header: []string{"pattern", "Base-LU", "Horus-SLM"},
	}
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"dense (best case)", func(c *Config) { c.FillPattern = hierarchy.PatternDense }},
		{"paper spacing, in order", func(c *Config) {}},
		{"random sparse, shuffled", func(c *Config) {
			c.FillPattern = hierarchy.PatternWorstCaseSparse
			c.FlushShuffle = true
		}},
	}
	names := make([]string, len(cases))
	configs := make([]Config, len(cases))
	for i, cse := range cases {
		c := cfg
		cse.mut(&c)
		names[i] = cse.name
		configs[i] = c
	}
	if err := pairGrid(ctx, opts, t, names, configs); err != nil {
		return nil, err
	}
	t.AddNote("Horus is oblivious to the pattern; the baseline swings by an order of magnitude")
	return t, nil
}

func ablateDataSize(ctx context.Context, cfg Config, opts SweepOptions) (*report.Table, error) {
	t := &report.Table{
		Title:  "Ablation: protected-memory capacity (accesses per drained block)",
		Header: []string{"capacity", "Base-LU", "Horus-SLM"},
	}
	base := cfg.DataSize
	var names []string
	var configs []Config
	for _, mult := range []uint64{1, 4, 16} {
		c := cfg
		c.DataSize = base * mult
		names = append(names, fmt.Sprintf("%dGB", c.DataSize>>30))
		configs = append(configs, c)
	}
	if err := pairGrid(ctx, opts, t, names, configs); err != nil {
		return nil, err
	}
	t.AddNote("the paper's design goal: Horus decouples the hold-up budget from memory capacity (§I)")
	return t, nil
}

func ablateTreeProfile(ctx context.Context, cfg Config, opts SweepOptions) (*report.Table, error) {
	// A custom episode: the study needs the secure controller's per-level
	// fetch profile after the drain, not just the drain Result.
	type profile struct {
		names   []string
		fetches []int64
	}
	results, err := runEpisodes(ctx, cfg.Seed, cfg.Probe, opts, []sweep.Episode{{
		Label: "tree-profile/Base-LU",
		Run: func(ctx context.Context, env sweep.Env) (any, error) {
			c := cfg
			c.Probe = env.Probe
			sys := NewSystem(c, BaseLU)
			if err := sys.Warmup(); err != nil {
				return nil, err
			}
			sys.Fill()
			if _, err := sys.Drain(); err != nil {
				return nil, err
			}
			lf := sys.Core.Sec.LevelFetches()
			var p profile
			for _, name := range lf.SortedNames() {
				p.names = append(p.names, name)
				p.fetches = append(p.fetches, lf.Get(name))
			}
			return p, nil
		},
	}})
	if err != nil {
		return nil, err
	}
	p := results[0].Value.(profile)
	t := &report.Table{
		Title:  "Ablation: Base-LU verification-walk fetch profile (why Fig. 6 blows up)",
		Header: []string{"metadata level", "NVM fetches"},
	}
	for i, name := range p.names {
		t.AddRow(name, report.Count(p.fetches[i]))
	}
	t.AddNote("L0 = counter blocks; sparse flushes miss the low tree levels on almost every access")
	return t, nil
}

func ablateRecovery(ctx context.Context, cfg Config, opts SweepOptions) (*report.Table, error) {
	// A custom episode: serial and bank-parallel recovery must replay the
	// same drained machine, so both run inside one episode.
	type times struct{ serial, parallel sim.Time }
	results, err := runEpisodes(ctx, cfg.Seed, cfg.Probe, opts, []sweep.Episode{{
		Label: "recovery-model/Horus-SLM",
		Run: func(ctx context.Context, env sweep.Env) (any, error) {
			c := cfg
			c.Probe = env.Probe
			sys := NewSystem(c, HorusSLM)
			if err := sys.Warmup(); err != nil {
				return nil, err
			}
			sys.Fill()
			res, err := sys.Drain()
			if err != nil {
				return nil, err
			}
			sys.Crash()
			serial, err := RecoverSerial(sys, res.Persist)
			if err != nil {
				return nil, err
			}
			sys.Core.Sec.Crash()
			parallel, err := RecoverParallel(sys, res.Persist)
			if err != nil {
				return nil, err
			}
			return times{serial, parallel}, nil
		},
	}})
	if err != nil {
		return nil, err
	}
	tm := results[0].Value.(times)
	t := &report.Table{
		Title:  "Ablation: CHV recovery read-back model",
		Header: []string{"model", "recovery time"},
	}
	t.AddRow("serial (paper Fig. 16)", tm.serial.String())
	t.AddRow("bank-parallel (extension)", tm.parallel.String())
	t.AddNote("speedup %.1fx: the banked NVM leaves recovery-time headroom", float64(tm.serial)/float64(tm.parallel))
	return t, nil
}

func perBlock(r Result) float64 {
	return float64(r.TotalMemAccesses()) / float64(r.BlocksDrained)
}
