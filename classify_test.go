package horus

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/bmt"
	"repro/internal/litmus"
)

// TestClassifyCHVSilentCorruption pins the oracle's two CHV
// silent-corruption branches. A completed Horus-SLM drain recovers what it
// wrote with verified MACs, so the oracle must object when that differs
// from the blocks it holds recovery to: a recovered address missing from
// them was "never drained", and a drain that wrote other bytes than the
// held ones has recovery come back with "wrong bytes".
func TestClassifyCHVSilentCorruption(t *testing.T) {
	cases := []struct {
		name    string
		drained func([]DirtyBlock) []DirtyBlock // what the drain writes
		held    func([]DirtyBlock) []DirtyBlock // what the oracle checks against
		want    CrashOutcome
		detail  string
	}{
		{"untouched", unchanged, unchanged, OutcomeRestored, ""},
		{"block-left-out", unchanged, func(b []DirtyBlock) []DirtyBlock { return b[1:] }, OutcomeSilentCorruption, "never drained"},
		{"bytes-altered", func(b []DirtyBlock) []DirtyBlock { b[len(b)/2].Data[7] ^= 0x10; return b }, unchanged, OutcomeSilentCorruption, "wrong bytes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ws := NewWorkloadSystem(TestConfig(), HorusSLM, DomainEPD)
			if err := ws.Run(defaultTortureWorkload(1)); err != nil {
				t.Fatal(err)
			}
			blocks := ws.Machine.DirtyBlocks()
			if len(blocks) < 2 {
				t.Fatalf("workload left %d dirty blocks, want at least 2", len(blocks))
			}
			res, err := ws.drainer.Drain(tc.drained(append([]DirtyBlock(nil), blocks...)))
			if err != nil {
				t.Fatal(err)
			}
			ws.Crash()
			got, detail, _, _ := classifyOutcome(ws.Core, res.Persist, tc.held(blocks), false)
			if got != tc.want || !strings.Contains(detail, tc.detail) {
				t.Fatalf("classifyOutcome = %v %q, want %v containing %q", got, detail, tc.want, tc.detail)
			}
		})
	}
}

// unchanged leaves the drained blocks as the workload left them.
func unchanged(b []DirtyBlock) []DirtyBlock { return b }

// TestClassifyBaselineOutcome pins the baseline oracle's four verdicts on a
// Base-LU episode. The drain writes a prefix of the dirty blocks (or all of
// them), and the NVM image may then be corrupted at one drained block
// before recovery and the post-recovery probe sweep run.
func TestClassifyBaselineOutcome(t *testing.T) {
	cases := []struct {
		name        string
		drain       func(n int) int // how many blocks the drain writes
		corrupt     func(n int) int // index of the block corrupted after the drain, -1 = none
		interrupted bool
		want        CrashOutcome
		detail      func(undrained, n int) string
		scanned     func(n int) int64 // wanted Forensic.BlocksScanned, -1 = no forensic
	}{
		{"restored", all, none, false, OutcomeRestored,
			func(int, int) string { return "" }, func(int) int64 { return -1 }},
		{"detected", all, half, false, OutcomeDetected,
			func(_, n int) string { return fmt.Sprintf("1/%d blocks failed verification (typed)", n) },
			func(n int) int64 { return int64(n / 2) }},
		{"partial", half, none, true, OutcomePartial,
			func(u, n int) string { return fmt.Sprintf("%d/%d blocks at authentic pre-drain values", u, n) },
			func(int) int64 { return -1 }},
		{"silent", half, none, false, OutcomeSilentCorruption,
			func(u, n int) string {
				return fmt.Sprintf("drain completed but %d/%d blocks verified with stale values", u, n)
			},
			func(int) int64 { return -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ws := NewWorkloadSystem(TestConfig(), BaseLU, DomainEPD)
			if err := ws.Run(defaultTortureWorkload(1)); err != nil {
				t.Fatal(err)
			}
			blocks := ws.Machine.DirtyBlocks()
			n := len(blocks)
			if n < 4 {
				t.Fatalf("workload left %d dirty blocks, want at least 4", n)
			}
			drained := tc.drain(n)
			res, err := ws.drainer.Drain(blocks[:drained])
			if err != nil {
				t.Fatal(err)
			}
			if i := tc.corrupt(n); i >= 0 {
				st := ws.Core.NVM.Store()
				b := st.ReadBlock(blocks[i].Addr)
				b[0] ^= 0x01
				st.WriteBlock(blocks[i].Addr, b)
			}
			ws.Crash()
			got, detail, f, _ := classifyBaselineOutcome(ws.Core, res.Persist, blocks, tc.interrupted)
			if want := tc.detail(n-drained, n); got != tc.want || detail != want {
				t.Fatalf("classifyBaselineOutcome = %v %q, want %v %q", got, detail, tc.want, want)
			}
			switch want := tc.scanned(n); {
			case want < 0 && f != nil:
				t.Fatalf("forensic %+v on a %v verdict", f, got)
			case want >= 0 && (f == nil || f.BlocksScanned != want || f.Phase != "post-recovery read"):
				t.Fatalf("forensic %+v, want phase %q with %d blocks scanned", f, "post-recovery read", want)
			}
		})
	}
}

func all(n int) int  { return n }
func half(n int) int { return n / 2 }
func none(int) int   { return -1 }

// TestCoverageTrialVerdicts pins coverageTrial's masked and silent verdicts
// on a Base-LU episode of the default litmus workload, whose evictions
// populate counter and MAC blocks no probed block depends on. A single-bit
// corruption no probe observes is masked. Held to a reference that disagrees with the first probed block,
// the same trial must report that block as verified with wrong plaintext.
func TestCoverageTrialVerdicts(t *testing.T) {
	cfg := TestConfig()
	ep, err := recordLitmusEpisode(cfg, BaseLU, defaultLitmusWorkload(cfg.Seed))
	if err != nil {
		t.Fatal(err)
	}
	addrs, ref, err := ep.referenceProbe(cfg)
	if err != nil {
		t.Fatal(err)
	}
	victim, found := uint64(0), false
	for _, region := range []bmt.Region{bmt.RegionMAC, bmt.RegionCounter} {
		for _, v := range ep.victimPool(region, false) {
			verdict, detail, f := ep.coverageTrial(cfg, litmus.SingleBit, v, 1, ref, addrs)
			if verdict == OutcomeRestored {
				if detail != "" || f != nil {
					t.Fatalf("masked trial on %#x: detail %q, forensic %+v", v, detail, f)
				}
				victim, found = v, true
				break
			}
		}
		if found {
			break
		}
	}
	if !found {
		t.Fatal("no single-bit counter or MAC corruption was masked")
	}
	wrong := slices.Clone(ref)
	wrong[0][0] ^= 0x01
	verdict, detail, f := ep.coverageTrial(cfg, litmus.SingleBit, victim, 1, wrong, addrs)
	if want := fmt.Sprintf("probe of %#x verified with wrong plaintext", addrs[0]); verdict != OutcomeSilentCorruption || detail != want || f != nil {
		t.Fatalf("trial against a wrong reference = %v %q %+v, want %v %q", verdict, detail, f, OutcomeSilentCorruption, want)
	}
}
