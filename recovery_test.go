package horus

import (
	"fmt"
	"strings"
	"testing"
)

// crashedWorkload runs the default litmus workload on a fresh TestConfig
// machine, drains it and cuts power. The workload leaves metadata residue,
// so the drain's vault is due at recovery. It returns the machine, the
// drained blocks and the drain's persistent state.
func crashedWorkload(t *testing.T, cfg Config, scheme Scheme) (*WorkloadSystem, []DirtyBlock, PersistentState) {
	t.Helper()
	ws := NewWorkloadSystem(cfg, scheme, DomainEPD)
	if err := ws.Run(defaultLitmusWorkload(1)); err != nil {
		t.Fatal(err)
	}
	blocks := ws.Machine.DirtyBlocks()
	res, _, err := ws.CrashAndDrain()
	if err != nil {
		t.Fatal(err)
	}
	if res.Persist.Vault.Count == 0 {
		t.Fatalf("%v drain left an empty vault; the vault path would not run", scheme)
	}
	return ws, blocks, res.Persist
}

// A workload-machine recovery stamps the drain's scheme on the vault path,
// as System.Recover and the crash oracles do: no series may fall back to an
// "unknown" scheme label.
func TestWorkloadRecoverLabelsVaultScheme(t *testing.T) {
	for _, scheme := range []Scheme{HorusSLM, HorusDLM} {
		t.Run(scheme.String(), func(t *testing.T) {
			cfg := TestConfig()
			cfg.Metrics = NewMetricsRegistry()
			ws, _, ps := crashedWorkload(t, cfg, scheme)
			if _, err := ws.Recover(ps); err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			if err := cfg.Metrics.WritePrometheus(&b); err != nil {
				t.Fatal(err)
			}
			out := b.String()
			if n := strings.Count(out, `scheme="unknown"`); n > 0 {
				t.Errorf("%d series lines carry scheme=\"unknown\"", n)
			}
			want := fmt.Sprintf(`horus_recovery_time_ps{path="vault",scheme=%q}`, scheme.String())
			if !strings.Contains(out, want) {
				t.Errorf("no %s series", want)
			}
		})
	}
}

// The crash oracle names the recovery path that failed and reports the time
// recovery consumed up to the failure: a refused vault costs nothing, and a
// refused CHV read-back costs the vault restore that completed before it.
func TestOracleRecoveryPhaseAndPartialTime(t *testing.T) {
	clean, _, ps := crashedWorkload(t, TestConfig(), HorusSLM)
	rep, err := clean.Recover(ps)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Baseline == nil || rep.Baseline.RecoveryTime == 0 {
		t.Fatal("clean Horus-SLM recovery restored no vault")
	}
	vaultTime := rep.Baseline.RecoveryTime

	cases := []struct {
		name   string
		scheme Scheme
		victim func(ws *WorkloadSystem) uint64
		prefix string
		time   Time
	}{
		{"horus-vault", HorusSLM, func(ws *WorkloadSystem) uint64 { return ws.Core.Layout.VaultAddr(0) }, "metadata vault: ", 0},
		{"horus-chv", HorusSLM, func(ws *WorkloadSystem) uint64 { return ws.Core.Layout.CHVDataAddr(0) }, "CHV recovery: ", vaultTime},
		{"baseline-vault", BaseLU, func(ws *WorkloadSystem) uint64 { return ws.Core.Layout.VaultAddr(0) }, "baseline recovery: ", 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ws, blocks, ps := crashedWorkload(t, TestConfig(), tc.scheme)
			ws.Core.NVM.Store().CorruptByte(tc.victim(ws), 0, 0x01)
			got, detail, _, elapsed := classifyOutcome(ws.Core, ps, blocks, false)
			if got != OutcomeDetected || !strings.HasPrefix(detail, tc.prefix) {
				t.Fatalf("classifyOutcome = %v %q, want %v with prefix %q", got, detail, OutcomeDetected, tc.prefix)
			}
			if elapsed != tc.time {
				t.Errorf("recovery time %d ps, want %d ps", elapsed, tc.time)
			}
		})
	}
}
