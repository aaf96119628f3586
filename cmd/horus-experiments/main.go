// Command horus-experiments regenerates the paper's evaluation: every
// figure (6, 11, 12, 13, 14, 15, 16) and table (II, III) plus the
// abstract's headline claims, printed as aligned text tables with the
// paper's published values quoted in footnotes for comparison.
//
// Examples:
//
//	horus-experiments -exp all            # full Table I scale (minutes)
//	horus-experiments -exp fig11          # one experiment
//	horus-experiments -exp all -scale test  # scaled down (seconds)
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	horus "repro"
	"repro/internal/cliutil"
	"repro/internal/report"
)

func main() {
	var (
		expFlag   = flag.String("exp", "all", "experiment: fig6 fig11 fig12 fig13 fig14 fig15 fig16 table2 table3 headline ablations all")
		scaleFlag = flag.String("scale", "paper", "paper (Table I scale) | test (scaled down)")
		seed      = flag.Int64("seed", 1, "fill/flush seed")
		csvDir    = flag.String("csv", "", "also write each table as CSV into this directory")
		parallel  = flag.Int("parallel", 0, "episode workers per sweep (0 = GOMAXPROCS); results are identical at any setting")
		timeout   = flag.Duration("timeout", 0, "abort sweeps that run longer than this (0 = no limit)")
	)
	tf := cliutil.AddTraceFlags()
	cliutil.Main("horus-experiments", true, func(env *cliutil.Env) (int, error) {
		ctx := env.Context()
		base, err := cliutil.ParseScale(*scaleFlag)
		if err != nil {
			return cliutil.ExitFail, err
		}
		testScale := strings.EqualFold(*scaleFlag, "test")
		base.Seed = *seed
		cfg, err := env.Config(base)
		if err != nil {
			return cliutil.ExitFail, err
		}
		cfg.Timeline = tf.Recorder()
		if *csvDir != "" {
			// Create the directory before any sweep runs, so a paper-scale
			// grid is never computed only to be lost at its first table.
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				return cliutil.ExitFail, err
			}
		}
		opts := horus.SweepOptions{Parallel: *parallel, Timeout: *timeout, Progress: env.Telemetry.ProgressFunc()}

		// emit prints tables and mirrors each as CSV under -csv.
		emit := func(tabs ...*report.Table) error {
			for _, t := range tabs {
				t.Fprint(os.Stdout)
				if *csvDir == "" {
					continue
				}
				if err := cliutil.WriteFile(filepath.Join(*csvDir, slug(t.Title)+".csv"), t.WriteCSV); err != nil {
					return err
				}
			}
			return nil
		}
		want := strings.Split(*expFlag, ",")
		has := func(name string) bool {
			for _, w := range want {
				if w == name || w == "all" {
					return true
				}
			}
			return false
		}

		// Figs. 6, 11, 12, 13 and Tables II/III share one drain per scheme; the
		// timeline trace and attribution ride on the same set.
		needSet := has("fig6") || has("fig11") || has("fig12") || has("fig13") ||
			has("table2") || has("table3") || has("headline") || tf.Enabled()
		var set *horus.DrainSet
		if needSet {
			set, err = horus.RunDrainSet(ctx, cfg, horus.AllSchemes(), opts)
			if err != nil {
				return cliutil.ExitFail, err
			}
		}
		if tf.Enabled() {
			var recs []*horus.TimelineRecording
			var atts []horus.TimelineAttribution
			for _, s := range set.Schemes {
				if rec := set.Timelines[s]; rec != nil {
					recs = append(recs, rec)
					atts = append(atts, horus.AnalyzeTimeline(rec))
				}
			}
			if tf.Attrib {
				if err := emit(report.AttributionTable(atts...)); err != nil {
					return cliutil.ExitFail, err
				}
			}
			if tf.Path != "" {
				if err := tf.WriteTrace(recs...); err != nil {
					return cliutil.ExitFail, err
				}
				fmt.Printf("timeline: %d episodes to %s\n", len(recs), tf.Path)
			}
		}

		var figs []*report.Table
		if has("fig6") {
			figs = append(figs, set.Fig6().Table())
		}
		if has("fig11") {
			figs = append(figs, horus.Fig11{Set: set}.Table())
		}
		if has("fig12") {
			figs = append(figs, horus.Fig12{Set: set}.Table())
		}
		if has("fig13") {
			figs = append(figs, horus.Fig13{Set: set}.Table())
		}
		if err := emit(figs...); err != nil {
			return cliutil.ExitFail, err
		}
		if has("fig14") || has("fig15") {
			sizes := horus.Fig14LLCSizes()
			if testScale {
				sizes = []int{4 << 20, 8 << 20}
			}
			sw, err := horus.RunLLCSweep(ctx, cfg, sizes, horus.AllSchemes(), opts)
			if err != nil {
				return cliutil.ExitFail, err
			}
			var tabs []*report.Table
			if has("fig14") {
				tabs = append(tabs, sw.Fig14Table())
			}
			if has("fig15") {
				tabs = append(tabs, sw.Fig15Table())
			}
			if err := emit(tabs...); err != nil {
				return cliutil.ExitFail, err
			}
		}
		if has("fig16") {
			sizes := horus.Fig16LLCSizes()
			if testScale {
				sizes = []int{4 << 20, 8 << 20}
			}
			f16, err := horus.RunFig16(ctx, cfg, sizes, opts)
			if err != nil {
				return cliutil.ExitFail, err
			}
			if err := emit(f16.Table()); err != nil {
				return cliutil.ExitFail, err
			}
		}
		if has("table2") || has("table3") {
			t2 := set.Table2()
			var tabs []*report.Table
			if has("table2") {
				tabs = append(tabs, t2.Table())
			}
			if has("table3") {
				tabs = append(tabs, horus.Table3{T2: t2}.Table())
			}
			if err := emit(tabs...); err != nil {
				return cliutil.ExitFail, err
			}
		}
		if has("ablations") {
			a, err := horus.RunAblations(ctx, cfg, opts)
			if err != nil {
				return cliutil.ExitFail, err
			}
			if err := emit(a.FillPattern, a.DataSize, a.TreeProfile, a.Recovery); err != nil {
				return cliutil.ExitFail, err
			}
		}
		var tail []*report.Table
		if has("headline") {
			tail = append(tail, set.Headline().Table())
		}
		if env.Metrics.Enabled() {
			tail = append(tail, report.SpanTree(cfg.Metrics))
		}
		if err := emit(tail...); err != nil {
			return cliutil.ExitFail, err
		}
		return cliutil.ExitOK, nil
	})
}

// slug turns a table title into a file name.
func slug(s string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(s) {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			b.WriteRune(r)
		case r == ' ' || r == ':' || r == '/':
			b.WriteByte('-')
		}
	}
	return strings.Trim(strings.ReplaceAll(b.String(), "--", "-"), "-")
}
