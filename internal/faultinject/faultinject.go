// Package faultinject enumerates and injects crash points in the drain /
// recover pipeline. A drain episode is a deterministic stream of NVM writes;
// every write is a potential crash point ("step"). A CrashPlan picks one step
// and a fault flavor (clean power cut, torn 64 B write, bit flip, dropped
// flush); the Injector is the mem.WriteHook that applies the plan. A matrix
// driver replays an episode once per step per flavor.
package faultinject

import (
	"fmt"
	"strings"

	"repro/internal/mem"
	"repro/internal/sim"
)

// Flavor is a crash/corruption mode from the torture matrix (ISSUE 3 /
// paper §IV-C recoverability argument).
type Flavor int

const (
	// CleanCut models a clean power cut at a persist-ordering boundary:
	// the step-N write and everything after it never reach the NVM.
	CleanCut Flavor = iota
	// TornWrite models power loss mid-write: a prefix of the step-N block
	// lands, the rest keeps old content, and no later write lands.
	TornWrite
	// BitFlip lets the drain complete but flips one bit in the step-N
	// block (data, MAC, counter, or vault word — whatever step N wrote).
	BitFlip
	// DroppedWrite lets the drain complete but silently discards the
	// step-N write, e.g. a final metadata flush that never became durable.
	DroppedWrite
)

// Flavors is a flavor list with a flag-compatible textual form: its String
// is the comma-separated spelling ParseFlavors accepts, so a selection
// round-trips through flag plumbing losslessly.
type Flavors []Flavor

// String renders the list in ParseFlavors syntax ("clean-cut,torn-write,...").
func (fs Flavors) String() string {
	names := make([]string, len(fs))
	for i, f := range fs {
		names[i] = f.String()
	}
	return strings.Join(names, ",")
}

// AllFlavors returns every flavor in matrix order.
func AllFlavors() Flavors { return Flavors{CleanCut, TornWrite, BitFlip, DroppedWrite} }

// String names the flavor for flags and reports.
func (f Flavor) String() string {
	switch f {
	case CleanCut:
		return "clean-cut"
	case TornWrite:
		return "torn-write"
	case BitFlip:
		return "bit-flip"
	case DroppedWrite:
		return "dropped-write"
	}
	return fmt.Sprintf("flavor(%d)", int(f))
}

// Interrupting reports whether the flavor ends the drain at the faulted
// step (true for CleanCut and TornWrite) or lets it run to completion with
// a corrupted write in the stream (BitFlip, DroppedWrite). Interrupting
// flavors crash with the drain's in-flight persistent registers; completing
// flavors crash with the end-of-drain registers.
func (f Flavor) Interrupting() bool { return f == CleanCut || f == TornWrite }

// ParseFlavor maps a flag string ("clean-cut", "torn-write", "bit-flip",
// "dropped-write") to its Flavor.
func ParseFlavor(s string) (Flavor, error) {
	for _, f := range AllFlavors() {
		if strings.EqualFold(s, f.String()) {
			return f, nil
		}
	}
	return 0, fmt.Errorf("faultinject: unknown flavor %q (want one of %s)", s, FlavorNames())
}

// ParseFlavors parses a comma-separated flavor list; "all" or "" selects
// every flavor.
func ParseFlavors(s string) (Flavors, error) {
	if s == "" || strings.EqualFold(s, "all") {
		return AllFlavors(), nil
	}
	var out Flavors
	for _, part := range strings.Split(s, ",") {
		f, err := ParseFlavor(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

// FlavorNames returns the comma-separated flavor vocabulary (for usage text).
func FlavorNames() string { return AllFlavors().String() }

// CrashPlan selects one crash point in a drain episode.
type CrashPlan struct {
	// Step is the 0-based index of the NVM write to fault.
	Step int
	// Flavor is the fault applied at Step.
	Flavor Flavor
	// Seed deterministically derives the fault's free parameters (torn
	// prefix length, flipped byte and bit).
	Seed uint64
}

// FiredInfo records where a plan actually fired, for outcome reports.
type FiredInfo struct {
	Step  int    // write index the fault hit
	Addr  uint64 // NVM address of the faulted write
	Cat   string // access category of the faulted write
	Stage string // most recent MarkStage label ("" before the first mark)
}

// Injector is the mem.WriteHook for one CrashPlan. It is not safe for
// concurrent use; each episode replay gets its own Injector.
type Injector struct {
	plan  CrashPlan
	step  int
	cut   bool
	fired bool
	info  FiredInfo
	stage string

	// OnCut, if set, is invoked exactly once at the instant an
	// interrupting flavor fires, before the faulted write is applied.
	// The torture harness uses it to capture the drain's in-flight
	// persistent registers — the state a real crash would leave behind.
	OnCut func()
}

// NewInjector returns an injector for plan.
func NewInjector(plan CrashPlan) *Injector { return &Injector{plan: plan} }

// Fired reports whether the plan's fault was applied, and where.
func (in *Injector) Fired() (FiredInfo, bool) { return in.info, in.fired }

// OnStage records the current persist-ordering stage label.
func (in *Injector) OnStage(stage string) { in.stage = stage }

// OnWrite implements mem.WriteHook: counts the write, returns the faulted
// block at the chosen step — a torn prefix of b over old, or b with one bit
// flipped, or nothing for a cut or a dropped write — and, for interrupting
// flavors, suppresses every later write.
func (in *Injector) OnWrite(addr uint64, cat mem.Category, old, b mem.Block) (mem.Block, bool) {
	idx := in.step
	in.step++
	if in.cut {
		return old, false
	}
	if in.fired || idx != in.plan.Step {
		return b, true
	}
	in.fired = true
	in.info = FiredInfo{Step: idx, Addr: addr, Cat: string(cat), Stage: in.stage}
	if in.plan.Flavor.Interrupting() {
		in.cut = true
		if in.OnCut != nil {
			in.OnCut()
		}
	}
	h := sim.SplitMix64(in.plan.Seed ^ uint64(idx)*sim.SplitMixGamma)
	switch in.plan.Flavor {
	case TornWrite:
		n := 1 + int(h%(mem.BlockSize-1))
		copy(old[:n], b[:n])
		return old, true
	case BitFlip:
		b[h%mem.BlockSize] ^= 1 << ((h >> 8) % 8)
		return b, true
	}
	return old, false // CleanCut, DroppedWrite
}

// SampleSteps picks the crash points to exercise out of total steps. With
// stride ≤ 1 and max ≤ 0 every step is chosen (the full matrix). A stride
// keeps every stride-th step; max then caps the count by evenly thinning.
// The first and last step are always included — the boundary crashes (first
// drain write, final metadata flush) are the paper's headline cases.
func SampleSteps(total, stride, max int) []int {
	if total <= 0 {
		return nil
	}
	if stride < 1 {
		stride = 1
	}
	steps := make([]int, 0, total/stride+2)
	for s := 0; s < total; s += stride {
		steps = append(steps, s)
	}
	if steps[len(steps)-1] != total-1 {
		steps = append(steps, total-1)
	}
	if max > 0 && len(steps) > max {
		if max == 1 {
			return steps[:1]
		}
		thin := make([]int, 0, max)
		for i := 0; i < max; i++ {
			thin = append(thin, steps[i*(len(steps)-1)/(max-1)])
		}
		// The even thinning can repeat endpoints when max is tiny.
		steps = dedupSorted(thin)
	}
	return steps
}

func dedupSorted(s []int) []int {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}
