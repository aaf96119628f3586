package horus

import (
	"strings"
	"testing"
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
