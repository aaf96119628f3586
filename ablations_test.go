package horus

import (
	"context"
	"strings"
	"testing"
)

func TestRunAblationsTestScale(t *testing.T) {
	a, err := RunAblations(context.Background(), TestConfig(), SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for name, tbl := range map[string]interface{ String() string }{
		"fill":     a.FillPattern,
		"datasize": a.DataSize,
		"tree":     a.TreeProfile,
		"recovery": a.Recovery,
	} {
		if out := tbl.String(); len(out) == 0 {
			t.Errorf("%s table empty", name)
		}
	}
	// The fill-pattern table must show the baseline's sensitivity: dense
	// row cheaper than the shuffled row.
	out := a.FillPattern.String()
	if !strings.Contains(out, "dense") || !strings.Contains(out, "shuffled") {
		t.Error("fill-pattern rows missing")
	}
	// The tree profile must include the counter level.
	if !strings.Contains(a.TreeProfile.String(), "L0") {
		t.Error("tree profile missing L0")
	}
}

// TestAblationEpisodesForkTheProbe pins a deliberate output change: the two
// custom ablation episodes run against forked sinks like every grid point,
// so each of their series carries the episode's "point" label, and the
// caller's recorders are left untouched.
func TestAblationEpisodesForkTheProbe(t *testing.T) {
	cfg := TestConfig()
	cfg.Timeline = NewTimelineRecorder(0)
	cfg.Timeseries = NewTimeseriesSampler(0, 0)
	cfg.Evlog = NewEvlog(0)
	ctx := context.Background()
	if _, err := ablateTreeProfile(ctx, cfg, SweepOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := ablateRecovery(ctx, cfg, SweepOptions{}); err != nil {
		t.Fatal(err)
	}
	points := map[string]string{"Base-LU": "tree-profile/Base-LU", "Horus-SLM": "recovery-model/Horus-SLM"}
	seen := map[string]int{}
	for _, s := range cfg.Timeseries.Snapshot().Series {
		if want := points[s.Labels["scheme"]]; s.Labels["point"] != want {
			t.Errorf("series %s %v: point label %q, want %q", s.Name, s.Labels, s.Labels["point"], want)
		}
		seen[s.Labels["point"]]++
	}
	for _, p := range points {
		if seen[p] == 0 {
			t.Errorf("no series labelled point=%q", p)
		}
	}
	if cfg.Timeline.Len() != 0 || cfg.Evlog.Len() != 0 {
		t.Errorf("caller's recorders hold %d events and %d records, want none", cfg.Timeline.Len(), cfg.Evlog.Len())
	}
}

func TestConfigHierarchyDefaults(t *testing.T) {
	var c Config
	h := c.hierarchyConfig()
	if h.TotalLines() != 295936 {
		t.Errorf("zero-value LLC should default to Table I (%d lines)", h.TotalLines())
	}
	c.LLCBytes = 8 << 20
	if c.hierarchyConfig().Levels[2].SizeBytes != 8<<20 {
		t.Error("LLCBytes override ignored")
	}
}

func TestNonSecureSkipsWarmup(t *testing.T) {
	cfg := TestConfig()
	sys := NewSystem(cfg, NonSecure)
	if err := sys.Warmup(); err != nil {
		t.Fatal(err)
	}
	if sys.Core.NVM.TotalWrites() != 0 {
		t.Error("non-secure warmup touched memory")
	}
}

func TestRecoverSerialRejectsBaselineState(t *testing.T) {
	cfg := TestConfig()
	sys := NewSystem(cfg, BaseLU)
	sys.Fill()
	res, err := sys.Drain()
	if err != nil {
		t.Fatal(err)
	}
	sys.Crash()
	if _, err := RecoverSerial(sys, res.Persist); err == nil {
		t.Error("RecoverSerial accepted baseline persistent state")
	}
	if _, err := RecoverParallel(sys, res.Persist); err == nil {
		t.Error("RecoverParallel accepted baseline persistent state")
	}
}
