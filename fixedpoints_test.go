package horus

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/fixedpoints.txt with the current outputs")

const fixedPointsFile = "testdata/fixedpoints.txt"

// fixedPoint is one CLI invocation whose outputs are a fixed point: a
// change to any of them is deliberate and shows as a manifest diff. With
// parallel set it runs at -parallel 1 and -parallel 4, which must agree.
type fixedPoint struct {
	args     []string
	parallel bool
}

func fixedPoints() []fixedPoint {
	fps := []fixedPoint{
		{args: []string{"horus-torture", "-stride", "7", "-max-points", "12", "-cells", "-csv", "cells.csv"}, parallel: true},
		{args: []string{"horus-litmus", "-epochs", "3", "-max-orderings", "32", "-trials", "3", "-cells",
			"-csv", "cells.csv", "-coverage-csv", "coverage.csv"}, parallel: true},
		{args: []string{"horus-fleet", "-machines", "16", "-racks", "4", "-sessions", "64",
			"-outages", "1ms:2ms:0,1; 10ms:1ms:all", "-csv", "fleet.csv"}, parallel: true},
	}
	for _, s := range []string{"non-secure", "base-lu", "base-eu", "horus-slm", "horus-dlm"} {
		fps = append(fps,
			fixedPoint{args: []string{"horus-recover", "-scheme", s}},
			fixedPoint{args: []string{"horus-recover", "-scheme", s, "-attack", "splice"}})
	}
	return fps
}

// TestFixedPoints runs every fixed-point invocation in an empty directory
// and checks its exit code and the SHA-256 and size of its stdout, its
// stderr and every file it writes against testdata/fixedpoints.txt.
// Output paths are relative, so stdout needs no normalising. Run with
// -update to rewrite the manifest after a deliberate change.
func TestFixedPoints(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the CLI binaries")
	}
	bin, err := cliBinaries()
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	got.WriteString("# CLI fixed points at test scale: exit code, then size and SHA-256 of\n" +
		"# stdout, stderr and each written file. Rows marked parallel were run at\n" +
		"# -parallel 1 and -parallel 4 with identical results.\n" +
		"# Regenerate: go test -run TestFixedPoints -update .\n")
	for _, fp := range fixedPoints() {
		cmd := quoteArgs(fp.args)
		rec := runFixedPoint(t, bin, fp.args, fp.parallel, "1")
		if fp.parallel {
			if rec4 := runFixedPoint(t, bin, fp.args, true, "4"); rec4 != rec {
				t.Errorf("%s: -parallel 1 and -parallel 4 differ:\n%s\nvs\n%s", cmd, rec, rec4)
			}
			cmd += "  # parallel"
		}
		fmt.Fprintf(&got, "\n%s\n%s", cmd, rec)
	}

	if *update {
		if err := os.WriteFile(fixedPointsFile, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(fixedPointsFile)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got.String() != string(want) {
		wl, gl := strings.Split(string(want), "\n"), strings.Split(got.String(), "\n")
		for i := 0; i < max(len(wl), len(gl)); i++ {
			var w, g string
			if i < len(wl) {
				w = wl[i]
			}
			if i < len(gl) {
				g = gl[i]
			}
			if w != g {
				t.Errorf("%s line %d:\n want %q\n  got %q", fixedPointsFile, i+1, w, g)
			}
		}
		t.Fatalf("fixed points changed; if on purpose, rerun with -update and commit the manifest")
	}
}

// runFixedPoint runs one invocation in a fresh directory and renders its
// manifest record.
func runFixedPoint(t *testing.T, bin string, args []string, parallel bool, workers string) string {
	t.Helper()
	dir := t.TempDir()
	rest := args[1:]
	if parallel {
		rest = append(append([]string(nil), rest...), "-parallel", workers)
	}
	cmd := exec.Command(filepath.Join(bin, args[0]), rest...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	code := 0
	if err := cmd.Run(); err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("%s: %v", quoteArgs(args), err)
		}
		code = ee.ExitCode()
	}
	var rec strings.Builder
	fmt.Fprintf(&rec, "\texit %d\n", code)
	digest := func(name string, b []byte) {
		fmt.Fprintf(&rec, "\t%s %d %x\n", name, len(b), sha256.Sum256(b))
	}
	digest("stdout", stdout.Bytes())
	digest("stderr", stderr.Bytes())
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		b, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		digest(f.Name(), b)
	}
	return rec.String()
}

// quoteArgs renders an invocation as a shell command line.
func quoteArgs(args []string) string {
	q := make([]string, len(args))
	for i, a := range args {
		q[i] = a
		if strings.ContainsAny(a, " ;\"'") {
			q[i] = "'" + a + "'"
		}
	}
	return strings.Join(q, " ")
}
