package horus

import (
	"context"
	"fmt"

	"repro/internal/energy"
	"repro/internal/recovery"
	"repro/internal/report"
	"repro/internal/sim"
)

// DrainSet holds one drain result per scheme over the same configuration,
// the shared substrate for Figs. 6, 11, 12, 13 and Tables II, III.
type DrainSet struct {
	Config  Config
	Schemes []Scheme
	Results map[Scheme]Result
	// Timelines holds the per-scheme drain recordings, populated only when
	// the base Config.Timeline requested tracing.
	Timelines map[Scheme]*TimelineRecording
}

// mustResult returns a scheme's result, failing loudly if the set was run
// without it (instead of nil-dereferencing a zero Result downstream).
func (ds *DrainSet) mustResult(s Scheme) Result {
	res, ok := ds.Results[s]
	if !ok {
		panic(fmt.Sprintf("horus: drain set has no result for %v; include it in RunDrainSet's schemes", s))
	}
	return res
}

// RunDrainSet drains a fresh system per scheme (identical fill and flush
// order, thanks to the shared seed) through the episode engine: the schemes
// drain concurrently (opts.Parallel workers) under ctx. Figs. 6, 11, 12, 13,
// Tables II, III and the headline are views of the returned set. On failure
// the set still holds every scheme that completed, alongside a *SweepError
// describing the ones that did not.
func RunDrainSet(ctx context.Context, cfg Config, schemes []Scheme, opts SweepOptions) (*DrainSet, error) {
	points := make([]DrainPoint, len(schemes))
	for i, s := range schemes {
		points[i] = DrainPoint{Label: s.String(), Config: cfg, Scheme: s}
	}
	prs, err := RunDrainGrid(ctx, points, opts)
	ds := &DrainSet{Config: cfg, Schemes: schemes, Results: make(map[Scheme]Result)}
	for _, pr := range prs {
		if pr.Err == nil {
			ds.Results[pr.Point.Scheme] = pr.Result
			if pr.Timeline != nil {
				if ds.Timelines == nil {
					ds.Timelines = make(map[Scheme]*TimelineRecording)
				}
				ds.Timelines[pr.Point.Scheme] = pr.Timeline
			}
		}
	}
	if err != nil {
		return ds, fmt.Errorf("horus: drain set: %w", err)
	}
	return ds, nil
}

// ---------------------------------------------------------------------------
// Fig. 6 — memory-request breakdown for flushing the cache hierarchy
// (motivation: 10.3x / 9.5x blow-up of the secure baselines).

// Fig6 reports the motivation experiment.
type Fig6 struct {
	Blocks int
	Set    *DrainSet
}

// Fig6Schemes are the designs Fig. 6 compares.
func Fig6Schemes() []Scheme { return []Scheme{NonSecure, BaseEU, BaseLU} }

// Fig6 narrows a set that ran (at least) Fig6Schemes to Fig. 6's designs.
func (ds *DrainSet) Fig6() Fig6 {
	sub := &DrainSet{Config: ds.Config, Schemes: Fig6Schemes(), Results: make(map[Scheme]Result)}
	for _, s := range sub.Schemes {
		sub.Results[s] = ds.mustResult(s)
	}
	return Fig6{Blocks: sub.Results[NonSecure].BlocksDrained, Set: sub}
}

// Ratio returns a scheme's total memory requests normalized to NonSecure.
// It panics with a descriptive message if the set lacks either scheme.
func (f Fig6) Ratio(s Scheme) float64 {
	base := f.Set.mustResult(NonSecure).TotalMemAccesses()
	return float64(f.Set.mustResult(s).TotalMemAccesses()) / float64(base)
}

// Table renders the figure as a breakdown table.
func (f Fig6) Table() *report.Table {
	t := &report.Table{
		Title:  fmt.Sprintf("Fig. 6: memory requests to flush the cache hierarchy (%s blocks)", report.Count(int64(f.Blocks))),
		Header: []string{"scheme", "reads", "writes", "total", "vs non-secure"},
	}
	for _, s := range f.Set.Schemes {
		r := f.Set.Results[s]
		t.AddRow(s.String(),
			report.Count(r.MemReads.Total()),
			report.Count(r.MemWrites.Total()),
			report.Count(r.TotalMemAccesses()),
			report.Ratio(f.Ratio(s)))
	}
	t.AddNote("paper: Base-LU = 10.3x, Base-EU = 9.5x the non-secure requests")
	return t
}

// ---------------------------------------------------------------------------
// Fig. 11 — normalized draining time (cycles).

// Fig11 reports the draining-time comparison across all five designs.
type Fig11 struct {
	Set *DrainSet
}

// Normalized returns a scheme's draining time normalized to NonSecure.
// It panics with a descriptive message if the set lacks either scheme.
func (f Fig11) Normalized(s Scheme) float64 {
	return float64(f.Set.mustResult(s).DrainTime) / float64(f.Set.mustResult(NonSecure).DrainTime)
}

// VsHorus returns a scheme's draining time relative to Horus-SLM.
// It panics with a descriptive message if the set lacks either scheme.
func (f Fig11) VsHorus(s Scheme) float64 {
	return float64(f.Set.mustResult(s).DrainTime) / float64(f.Set.mustResult(HorusSLM).DrainTime)
}

// Table renders the figure.
func (f Fig11) Table() *report.Table {
	t := &report.Table{
		Title:  "Fig. 11: draining time (power-hold-up proxy)",
		Header: []string{"scheme", "drain time", "vs non-secure", "vs Horus-SLM"},
	}
	for _, s := range f.Set.Schemes {
		r := f.Set.Results[s]
		t.AddRow(s.String(), r.DrainTime.String(),
			report.Ratio(f.Normalized(s)), report.Ratio(f.VsHorus(s)))
	}
	t.AddNote("paper: Base-EU = 5.1x and Base-LU = 4.5x the Horus time; Horus = 1.7x non-secure")
	return t
}

// ---------------------------------------------------------------------------
// Fig. 12 — breakdown of memory writes by type.

// Fig12 reports the write-type breakdown.
type Fig12 struct {
	Set *DrainSet
}

// Table renders the figure: one column per write category.
func (f Fig12) Table() *report.Table {
	cats := collectCategories(f.Set, func(r Result) []string { return r.MemWrites.Names() })
	t := &report.Table{
		Title:  "Fig. 12: breakdown of memory writes",
		Header: append([]string{"scheme"}, append(cats, "total")...),
	}
	for _, s := range f.Set.Schemes {
		r := f.Set.Results[s]
		row := []string{s.String()}
		for _, c := range cats {
			row = append(row, report.Count(r.MemWrites.Get(c)))
		}
		row = append(row, report.Count(r.MemWrites.Total()))
		t.AddRow(row...)
	}
	t.AddNote("paper: Horus-DLM writes 8x fewer CHV MAC blocks than Horus-SLM; metadata flush is negligible for all schemes")
	return t
}

// ---------------------------------------------------------------------------
// Fig. 13 — breakdown of MAC calculations.

// Fig13 reports the MAC-calculation breakdown.
type Fig13 struct {
	Set *DrainSet
}

// Table renders the figure.
func (f Fig13) Table() *report.Table {
	cats := collectCategories(f.Set, func(r Result) []string { return r.MACCalcs.Names() })
	t := &report.Table{
		Title:  "Fig. 13: breakdown of MAC calculations",
		Header: append([]string{"scheme"}, append(cats, "total")...),
	}
	for _, s := range f.Set.Schemes {
		r := f.Set.Results[s]
		row := []string{s.String()}
		for _, c := range cats {
			row = append(row, report.Count(r.MACCalcs.Get(c)))
		}
		row = append(row, report.Count(r.TotalMACs()))
		t.AddRow(row...)
	}
	t.AddNote("paper: Base-EU largest (tree updates); Horus-DLM = 1.125x Horus-SLM")
	return t
}

func collectCategories(ds *DrainSet, get func(Result) []string) []string {
	var cats []string
	seen := map[string]bool{}
	for _, s := range ds.Schemes {
		for _, c := range get(ds.Results[s]) {
			if !seen[c] {
				seen[c] = true
				cats = append(cats, c)
			}
		}
	}
	return cats
}

// ---------------------------------------------------------------------------
// Figs. 14 & 15 — LLC-size sensitivity (memory requests, MAC calculations,
// normalized to Base-LU at each size).

// SweepPoint is one LLC size's results.
type SweepPoint struct {
	LLCBytes int
	Results  map[Scheme]Result
}

// LLCSweep holds the sensitivity-study results.
type LLCSweep struct {
	Config Config
	Points []SweepPoint
}

// Fig14LLCSizes returns the paper's sweep sizes.
func Fig14LLCSizes() []int { return []int{8 << 20, 16 << 20, 32 << 20} }

// RunLLCSweep drains every scheme at each LLC size: a declarative
// (size × scheme) point grid over the episode engine. On failure the
// returned sweep holds every point that completed, alongside a *SweepError
// describing the ones that did not.
func RunLLCSweep(ctx context.Context, cfg Config, llcSizes []int, schemes []Scheme, opts SweepOptions) (*LLCSweep, error) {
	var points []DrainPoint
	for _, size := range llcSizes {
		c := cfg
		c.LLCBytes = size
		c.Hierarchy = nil
		for _, s := range schemes {
			points = append(points, DrainPoint{
				Label:  fmt.Sprintf("llc=%dMB/%v", size>>20, s),
				Config: c,
				Scheme: s,
			})
		}
	}
	prs, err := RunDrainGrid(ctx, points, opts)

	sw := &LLCSweep{Config: cfg}
	for i, size := range llcSizes {
		pt := SweepPoint{LLCBytes: size, Results: make(map[Scheme]Result)}
		for j := range schemes {
			pr := prs[i*len(schemes)+j]
			if pr.Err == nil {
				pt.Results[pr.Point.Scheme] = pr.Result
			}
		}
		sw.Points = append(sw.Points, pt)
	}
	if err != nil {
		return sw, fmt.Errorf("horus: LLC sweep: %w", err)
	}
	return sw, nil
}

// Fig14Table renders memory requests normalized to Base-LU per size.
func (sw *LLCSweep) Fig14Table() *report.Table {
	return sw.normalizedTable(
		"Fig. 14: memory requests by LLC size (normalized to Base-LU)",
		"paper: Horus achieves >= 7.0x reduction vs Base-LU at every size",
		func(r Result) float64 { return float64(r.TotalMemAccesses()) })
}

// Fig15Table renders MAC calculations normalized to Base-LU per size.
func (sw *LLCSweep) Fig15Table() *report.Table {
	return sw.normalizedTable(
		"Fig. 15: MAC calculations by LLC size (normalized to Base-LU)",
		"paper: Horus achieves >= 5.8x reduction vs Base-LU at every size",
		func(r Result) float64 { return float64(r.TotalMACs()) })
}

// Normalized returns metric(s) / metric(Base-LU) at sweep point i.
// It panics with a descriptive message if the sweep lacks either scheme.
func (sw *LLCSweep) Normalized(i int, s Scheme, metric func(Result) float64) float64 {
	pt := sw.Points[i]
	num, ok := pt.Results[s]
	if !ok {
		panic(fmt.Sprintf("horus: LLC sweep point %d has no result for %v", i, s))
	}
	den, ok := pt.Results[BaseLU]
	if !ok {
		panic(fmt.Sprintf("horus: LLC sweep point %d has no Base-LU result to normalize against", i))
	}
	return metric(num) / metric(den)
}

func (sw *LLCSweep) normalizedTable(title, note string, metric func(Result) float64) *report.Table {
	var schemes []Scheme
	for _, s := range AllSchemes() {
		if _, ok := sw.Points[0].Results[s]; ok {
			schemes = append(schemes, s)
		}
	}
	header := []string{"scheme"}
	for _, pt := range sw.Points {
		header = append(header, fmt.Sprintf("LLC %dMB", pt.LLCBytes>>20))
	}
	t := &report.Table{Title: title, Header: header}
	for _, s := range schemes {
		row := []string{s.String()}
		for i := range sw.Points {
			row = append(row, fmt.Sprintf("%.3f", sw.Normalized(i, s, metric)))
		}
		t.AddRow(row...)
	}
	t.AddNote("%s", note)
	return t
}

// ---------------------------------------------------------------------------
// Fig. 16 — recovery time vs LLC size.

// Fig16Point is one (LLC size, scheme) recovery measurement.
type Fig16Point struct {
	LLCBytes     int
	Scheme       Scheme
	RecoveryTime sim.Time
	Blocks       int
}

// Fig16 holds the recovery-time estimates.
type Fig16 struct {
	Points []Fig16Point
}

// Fig16LLCSizes returns the paper's sweep (8 MB to 128 MB).
func Fig16LLCSizes() []int { return []int{8 << 20, 16 << 20, 32 << 20, 64 << 20, 128 << 20} }

// RunFig16 drains and recovers Horus-SLM and Horus-DLM at each LLC size: a
// (size × scheme) grid of drain + crash + recover episodes over the engine.
// Completed points survive a sibling's failure.
func RunFig16(ctx context.Context, cfg Config, llcSizes []int, opts SweepOptions) (Fig16, error) {
	var points []DrainPoint
	for _, size := range llcSizes {
		c := cfg
		c.LLCBytes = size
		c.Hierarchy = nil
		for _, s := range []Scheme{HorusSLM, HorusDLM} {
			points = append(points, DrainPoint{
				Label:   fmt.Sprintf("fig16 llc=%dMB/%v", size>>20, s),
				Config:  c,
				Scheme:  s,
				Recover: true,
			})
		}
	}
	prs, err := RunDrainGrid(ctx, points, opts)

	var out Fig16
	for i, pr := range prs {
		if pr.Err != nil || pr.Recovery == nil {
			continue
		}
		out.Points = append(out.Points, Fig16Point{
			LLCBytes: llcSizes[i/2], Scheme: pr.Point.Scheme,
			RecoveryTime: pr.Recovery.Time(), Blocks: pr.Result.BlocksDrained,
		})
	}
	if err != nil {
		return out, fmt.Errorf("horus: Fig16: %w", err)
	}
	return out, nil
}

// Table renders the figure.
func (f Fig16) Table() *report.Table {
	t := &report.Table{
		Title:  "Fig. 16: recovery time",
		Header: []string{"LLC", "scheme", "blocks", "recovery time"},
	}
	for _, p := range f.Points {
		t.AddRow(fmt.Sprintf("%dMB", p.LLCBytes>>20), p.Scheme.String(),
			report.Count(int64(p.Blocks)), p.RecoveryTime.String())
	}
	t.AddNote("paper: 0.51s (SLM) and 0.48s (DLM) at LLC = 128MB")
	return t
}

// ---------------------------------------------------------------------------
// Tables II & III — energy and battery size.

// EnergyBreakdown is one Table II row set (re-exported for CLI/users).
type EnergyBreakdown = energy.Breakdown

// Table2Schemes are the secure designs Table II compares.
func Table2Schemes() []Scheme { return []Scheme{BaseLU, BaseEU, HorusSLM, HorusDLM} }

// Table2 reports draining energy per scheme.
type Table2 struct {
	Set       *DrainSet // the drain set the breakdown was computed from
	Breakdown map[Scheme]energy.Breakdown
}

// Table2 computes Table II's energy breakdown from a set that ran (at
// least) Table2Schemes.
func (ds *DrainSet) Table2() Table2 {
	t2 := Table2{Set: ds, Breakdown: make(map[Scheme]energy.Breakdown)}
	for _, s := range Table2Schemes() {
		t2.Breakdown[s] = ds.Config.EnergyOf(ds.mustResult(s))
	}
	return t2
}

// Table renders Table II.
func (t2 Table2) Table() *report.Table {
	t := &report.Table{
		Title:  "Table II: draining energy",
		Header: []string{"component", "Base-LU", "Base-EU", "Horus-SLM", "Horus-DLM"},
	}
	row := func(name string, get func(energy.Breakdown) float64) {
		cells := []string{name}
		for _, s := range Table2Schemes() {
			cells = append(cells, report.Joules(get(t2.Breakdown[s])))
		}
		t.AddRow(cells...)
	}
	row("Processor", func(b energy.Breakdown) float64 { return b.ProcessorJ })
	row("NVM writes", func(b energy.Breakdown) float64 { return b.NVMWriteJ })
	row("NVM reads", func(b energy.Breakdown) float64 { return b.NVMReadJ })
	row("Total", energy.Breakdown.Total)
	t.AddNote("paper: totals 11.07 / 12.39 / 2.45 / 2.38 J")
	return t
}

// Table3 reports battery volume per scheme and technology.
type Table3 struct {
	T2 Table2
}

// Volume returns the battery volume for a scheme and technology.
func (t3 Table3) Volume(s Scheme, tech energy.Tech) float64 {
	return energy.Volume(t3.T2.Breakdown[s].Total(), tech)
}

// Table renders Table III.
func (t3 Table3) Table() *report.Table {
	t := &report.Table{
		Title:  "Table III: battery size for draining",
		Header: []string{"technology", "Base-LU", "Base-EU", "Horus-SLM", "Horus-DLM"},
	}
	for _, tech := range []energy.Tech{energy.SuperCap, energy.LiThin} {
		cells := []string{tech.Name}
		for _, s := range Table2Schemes() {
			cells = append(cells, fmt.Sprintf("%.3f", t3.Volume(s, tech)))
		}
		t.AddRow(cells...)
	}
	t.AddNote("cm^3; paper: SuperCap 30.7/34.4/6.8/6.6, Li-thin 0.31/0.34/0.07/0.07")
	return t
}

// ---------------------------------------------------------------------------
// Headline numbers (abstract / §I).

// Headline summarises the paper's claimed improvements.
type Headline struct {
	MemReduction  float64 // Base-LU accesses / Horus-SLM accesses (paper: ~8x)
	MACReduction  float64 // Base-LU MACs / Horus-SLM MACs (paper: ~7.8x)
	TimeReduction float64 // Base-LU drain time / Horus-SLM drain time (paper: ~5x)
}

// Headline computes the abstract's claims from a set that ran (at least)
// Base-LU and Horus-SLM.
func (ds *DrainSet) Headline() Headline {
	lu, slm := ds.mustResult(BaseLU), ds.mustResult(HorusSLM)
	return Headline{
		MemReduction:  float64(lu.TotalMemAccesses()) / float64(slm.TotalMemAccesses()),
		MACReduction:  float64(lu.TotalMACs()) / float64(slm.TotalMACs()),
		TimeReduction: float64(lu.DrainTime) / float64(slm.DrainTime),
	}
}

// Table renders the headline comparison.
func (h Headline) Table() *report.Table {
	t := &report.Table{
		Title:  "Headline: Horus-SLM improvement over Base-LU",
		Header: []string{"metric", "reduction", "paper"},
	}
	t.AddRow("memory requests", report.Ratio(h.MemReduction), "8x")
	t.AddRow("MAC calculations", report.Ratio(h.MACReduction), "7.8x")
	t.AddRow("draining time", report.Ratio(h.TimeReduction), "5x")
	return t
}

// ---------------------------------------------------------------------------
// Recovery helper used by Fig. 16 above and by RunRecovery.

// RunRecovery is the one-shot drain + crash + recover round trip: a
// single-point grid over the episode engine.
func RunRecovery(cfg Config, scheme Scheme) (Result, RecoveryReport, error) {
	prs, err := RunDrainGrid(context.Background(),
		[]DrainPoint{{Config: cfg, Scheme: scheme, Recover: true}}, SweepOptions{})
	pr := prs[0]
	if err != nil {
		return pr.Result, RecoveryReport{}, pr.Err
	}
	return pr.Result, *pr.Recovery, nil
}

// Ensure the recovery package's error type is visible to API users who
// want errors.As against it.
type RecoveryError = recovery.Error
