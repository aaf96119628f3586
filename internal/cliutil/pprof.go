package cliutil

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
)

// ProfileFlags bundles the shared -pprof flag: when set, the command writes
// a CPU profile (cpu.pprof) covering its whole run and a heap profile
// (heap.pprof) at exit into the given directory.
type ProfileFlags struct {
	Dir string

	cpu *os.File
}

// AddProfileFlags registers the shared profiling flag on the default flag
// set; call before flag.Parse.
func AddProfileFlags() *ProfileFlags {
	pf := &ProfileFlags{}
	flag.StringVar(&pf.Dir, "pprof", "", "write cpu.pprof and heap.pprof profiles into this directory")
	return pf
}

// Start begins CPU profiling when -pprof was given; call Stop to finish
// both profiles. No-op without the flag.
func (pf *ProfileFlags) Start() error {
	if pf.Dir == "" {
		return nil
	}
	if err := os.MkdirAll(pf.Dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(pf.Dir, "cpu.pprof"))
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	pf.cpu = f
	return nil
}

// Stop finishes the CPU profile and writes the heap profile. No-op unless
// Start began profiling.
func (pf *ProfileFlags) Stop() {
	if pf.cpu == nil {
		return
	}
	pprof.StopCPUProfile()
	pf.cpu.Close()
	hp := filepath.Join(pf.Dir, "heap.pprof")
	f, err := os.Create(hp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pprof: %v\n", err)
		return
	}
	runtime.GC() // materialise reachable-heap stats before the snapshot
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintf(os.Stderr, "pprof: %v\n", err)
	}
	f.Close()
}
