package horus

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// cliBinaries builds the CLIs under test once per test binary and returns
// the directory holding them. The Go build cache makes repeat builds cheap;
// the build runs in the package directory, so the module context is the
// repo's own.
var cliBinaries = sync.OnceValues(func() (string, error) {
	dir, err := os.MkdirTemp("", "horus-cli-")
	if err != nil {
		return "", err
	}
	for _, name := range []string{"horus-drain", "horus-torture", "horus-litmus", "horus-fleet", "horus-recover", "horus-experiments"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(dir, name), "./cmd/"+name)
		if out, err := cmd.CombinedOutput(); err != nil {
			return "", &buildError{name: name, out: string(out), err: err}
		}
	}
	return dir, nil
})

type buildError struct {
	name string
	out  string
	err  error
}

func (e *buildError) Error() string {
	return "building " + e.name + ": " + e.err.Error() + "\n" + e.out
}

// TestCLIExitCodeContract pins the cross-CLI exit-code contract the CI
// jobs and the ops runbooks depend on, as cliutil.ExitOK, ExitFail and
// ExitSLO state it:
//
//	0 — run completed and every contract held
//	1 — oracle violation or fatal error (bad flags, harness failure)
//	2 — SLO violation (the run itself was sound, an objective was missed)
//
// Cases with pprof set also pass -pprof and require both profiles to be
// written, non-empty, whatever the exit status.
//
// go run must not be used here: it remaps the child's exit status, so the
// contract is only observable on the built binaries.
func TestCLIExitCodeContract(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the CLI binaries")
	}
	bin, err := cliBinaries()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		cli   string
		args  []string
		want  int
		pprof bool   // also pass -pprof DIR and require both profiles
		out   string // substring the output must contain, if set
	}{
		{name: "drain clean run", cli: "horus-drain",
			args: []string{"-scale", "test", "-scheme", "horus-slm"}},
		{name: "drain SLO violation", cli: "horus-drain",
			args: []string{"-scale", "test", "-scheme", "horus-slm", "-battery-j", "1e-9"}, want: 2},
		{name: "drain SLO violation profiled", cli: "horus-drain",
			args: []string{"-scale", "test", "-scheme", "horus-slm", "-battery-j", "1e-9"}, want: 2, pprof: true},
		{name: "drain bad scheme", cli: "horus-drain",
			args: []string{"-scale", "test", "-scheme", "bogus"}, want: 1},
		{name: "torture non-secure scheme", cli: "horus-torture",
			args: []string{"-scale", "test", "-scheme", "non-secure"}, want: 1},
		{name: "torture non-secure scheme profiled", cli: "horus-torture",
			args: []string{"-scale", "test", "-scheme", "non-secure"}, want: 1, pprof: true},
		{name: "litmus bad scheme", cli: "horus-litmus",
			args: []string{"-scheme", "bogus"}, want: 1},
		{name: "fleet clean run", cli: "horus-fleet",
			args: []string{"-machines", "4", "-racks", "2", "-sessions", "16",
				"-outages", "1ms:2ms:all"}},
		{name: "fleet storm SLO violation", cli: "horus-fleet",
			args: []string{"-machines", "4", "-racks", "2", "-sessions", "16",
				"-outages", "1ms:2ms:all", "-storm-slo", "1ns"}, want: 2},
		{name: "fleet bad schedule", cli: "horus-fleet",
			args: []string{"-outages", "bogus"}, want: 1},
		{name: "recover bad scale", cli: "horus-recover",
			args: []string{"-scale", "bogus"}, want: 1,
			out: `horus-recover: unknown scale "bogus" (want paper|test)`},
		{name: "experiments mixed-case scale", cli: "horus-experiments",
			args: []string{"-scale", "Test", "-exp", "fig6"}, out: "Fig. 6"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			args, dir := tc.args, ""
			if tc.pprof {
				dir = t.TempDir()
				args = append(args, "-pprof", dir)
			}
			cmd := exec.Command(filepath.Join(bin, tc.cli), args...)
			out, err := cmd.CombinedOutput()
			got := 0
			if err != nil {
				ee, ok := err.(*exec.ExitError)
				if !ok {
					t.Fatalf("%s %v: %v", tc.cli, tc.args, err)
				}
				got = ee.ExitCode()
			}
			if got != tc.want {
				t.Errorf("%s %v exited %d, want %d\noutput:\n%s",
					tc.cli, args, got, tc.want, out)
			}
			if tc.out != "" && !strings.Contains(string(out), tc.out) {
				t.Errorf("%s %v: output lacks %q:\n%s", tc.cli, args, tc.out, out)
			}
			if !tc.pprof {
				return
			}
			for _, name := range []string{"cpu.pprof", "heap.pprof"} {
				fi, err := os.Stat(filepath.Join(dir, name))
				if err != nil || fi.Size() == 0 {
					t.Errorf("%s %v: %s missing or empty (%v)", tc.cli, args, name, err)
				}
			}
		})
	}
}
