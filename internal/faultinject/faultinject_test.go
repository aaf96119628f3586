package faultinject

import (
	"bytes"
	"math/bits"
	"testing"

	"repro/internal/mem"
)

func pat(v byte) mem.Block {
	var b mem.Block
	for i := range b {
		b[i] = v
	}
	return b
}

func TestCleanCutSuppressesTail(t *testing.T) {
	cutSeen := false
	in := NewInjector(CrashPlan{Step: 3, Flavor: CleanCut})
	in.OnCut = func() { cutSeen = true }
	old, b := pat(0xAA), pat(0x11)
	for i := 0; i < 6; i++ {
		got, ok := in.OnWrite(uint64(i*64), mem.CatCHVData, old, b)
		if want := i < 3; ok != want || (ok && got != b) {
			t.Fatalf("write %d: landed %v (%x), want landed %v unchanged", i, ok, got[0], want)
		}
	}
	if !cutSeen {
		t.Fatal("OnCut was not invoked")
	}
	info, fired := in.Fired()
	if !fired || info.Step != 3 || info.Addr != 3*64 || info.Cat != string(mem.CatCHVData) {
		t.Fatalf("Fired() = %+v, %v", info, fired)
	}
}

func TestTornWriteInterruptsAndDerivesPrefix(t *testing.T) {
	in := NewInjector(CrashPlan{Step: 1, Flavor: TornWrite, Seed: 7})
	old, b := pat(0xAA), pat(0x11)
	in.OnWrite(0, mem.CatData, old, b)
	got, ok := in.OnWrite(64, mem.CatData, old, b)
	if !ok {
		t.Fatal("torn write landed nothing")
	}
	n := 0
	for n < mem.BlockSize && got[n] == b[n] {
		n++
	}
	if n < 1 || n >= mem.BlockSize || !bytes.Equal(got[n:], old[n:]) {
		t.Fatalf("torn block %x: want a 1..%d-byte prefix of new over old", got, mem.BlockSize-1)
	}
	if _, ok := in.OnWrite(128, mem.CatData, old, b); ok {
		t.Fatal("post-tear write landed")
	}
}

func TestCompletingFlavorsFireOnce(t *testing.T) {
	old, b := pat(0xAA), pat(0x11)
	for _, flavor := range []Flavor{BitFlip, DroppedWrite} {
		in := NewInjector(CrashPlan{Step: 2, Flavor: flavor, Seed: 42})
		var fired int
		for i := 0; i < 8; i++ {
			if got, ok := in.OnWrite(uint64(i*64), mem.CatMAC, old, b); !ok || got != b {
				fired++
				if i != 2 {
					t.Fatalf("%v fired at write %d, want 2", flavor, i)
				}
			}
		}
		if fired != 1 {
			t.Fatalf("%v fired %d times, want 1", flavor, fired)
		}
		if flavor.Interrupting() {
			t.Fatalf("%v claims to be interrupting", flavor)
		}
	}
}

func TestInjectorDeterministicParams(t *testing.T) {
	get := func(seed uint64) mem.Block {
		in := NewInjector(CrashPlan{Step: 0, Flavor: BitFlip, Seed: seed})
		got, _ := in.OnWrite(0, mem.CatData, mem.Block{}, mem.Block{})
		return got
	}
	a, b := get(99), get(99)
	if a != b {
		t.Fatalf("same plan produced different faults: %x vs %x", a, b)
	}
	if c := get(100); c == a {
		t.Log("different seeds gave the same flip parameters (possible but unlikely)")
	}
}

// TestFaultInjectorApplication runs each flavor through a real controller:
// what the injector returns is what lands on the medium, and every write,
// landed or not, is still issued.
func TestFaultInjectorApplication(t *testing.T) {
	old, new1, new2 := pat(0xAA), pat(0x11), pat(0x22)
	// faulted writes old at 0 and 64, installs an injector faulting the
	// first hooked write with flavor, then writes new1 to 0 and new2 to 64.
	faulted := func(t *testing.T, flavor Flavor) *mem.Controller {
		c := mem.NewController(mem.DefaultConfig())
		c.Write(0, 0, old, mem.CatData)
		c.Write(0, 64, old, mem.CatData)
		in := NewInjector(CrashPlan{Step: 0, Flavor: flavor, Seed: 7})
		in.OnCut = func() {
			if got := c.PeekRead(0); got != old {
				t.Fatalf("OnCut ran after the faulted write landed: got %x", got[0])
			}
		}
		c.SetWriteHook(in)
		c.Write(0, 0, new1, mem.CatData)
		c.Write(0, 64, new2, mem.CatData)
		if c.TotalWrites() != 4 {
			t.Fatalf("writes = %d, want 4 (faulted writes are still issued)", c.TotalWrites())
		}
		return c
	}

	t.Run("drop keeps old content", func(t *testing.T) {
		c := faulted(t, DroppedWrite)
		if got := c.PeekRead(0); got != old {
			t.Fatalf("dropped write changed content: got %x", got[0])
		}
		if got := c.PeekRead(64); got != new2 {
			t.Fatalf("write after a drop did not land: got %x", got[0])
		}
	})

	t.Run("tear mixes new prefix with old suffix", func(t *testing.T) {
		c := faulted(t, TornWrite)
		got := c.PeekRead(0)
		n := 0
		for n < mem.BlockSize && got[n] == new1[n] {
			n++
		}
		if n < 1 || n >= mem.BlockSize || !bytes.Equal(got[n:], old[n:]) {
			t.Fatalf("torn block %x: want a new prefix over an old suffix", got)
		}
		if got := c.PeekRead(64); got != old {
			t.Fatalf("post-tear write landed: got %x", got[0])
		}
	})

	t.Run("flip toggles exactly one bit", func(t *testing.T) {
		c := faulted(t, BitFlip)
		got, flipped := c.PeekRead(0), 0
		for i := range got {
			flipped += bits.OnesCount8(got[i] ^ new1[i])
		}
		if flipped != 1 {
			t.Fatalf("flip changed %d bits, want 1", flipped)
		}
		if got := c.PeekRead(64); got != new2 {
			t.Fatalf("write after a flip did not land: got %x", got[0])
		}
	})

	t.Run("cut suppresses this and all later writes", func(t *testing.T) {
		c := faulted(t, CleanCut)
		if got := c.PeekRead(0); got != old {
			t.Fatalf("cut write 0 landed: got %x", got[0])
		}
		if got := c.PeekRead(64); got != old {
			t.Fatalf("post-cut write landed: got %x", got[0])
		}
	})
}

func TestParseFlavors(t *testing.T) {
	all, err := ParseFlavors("all")
	if err != nil || len(all) != 4 {
		t.Fatalf("ParseFlavors(all) = %v, %v", all, err)
	}
	got, err := ParseFlavors("bit-flip, clean-cut")
	if err != nil || len(got) != 2 || got[0] != BitFlip || got[1] != CleanCut {
		t.Fatalf("ParseFlavors = %v, %v", got, err)
	}
	if _, err := ParseFlavors("nope"); err == nil {
		t.Fatal("unknown flavor did not error")
	}
}

// A flavor selection must survive the flag round-trip: rendering a Flavors
// list and re-parsing it yields the same list.
func TestParseFlavorsRoundTrip(t *testing.T) {
	all := AllFlavors()
	got, err := ParseFlavors(all.String())
	if err != nil {
		t.Fatalf("ParseFlavors(%q): %v", all.String(), err)
	}
	if len(got) != len(all) {
		t.Fatalf("round-trip = %v, want %v", got, all)
	}
	for i := range all {
		if got[i] != all[i] {
			t.Fatalf("round-trip[%d] = %v, want %v", i, got[i], all[i])
		}
	}
	sub := Flavors{BitFlip, CleanCut}
	got, err = ParseFlavors(sub.String())
	if err != nil || len(got) != 2 || got[0] != BitFlip || got[1] != CleanCut {
		t.Fatalf("subset round-trip = %v, %v", got, err)
	}
}

// SampleSteps edge cases: a stride larger than the episode still yields the
// boundary steps, and degenerate totals yield nothing.
func TestSampleStepsEdges(t *testing.T) {
	got := SampleSteps(10, 100, 0)
	if len(got) != 2 || got[0] != 0 || got[1] != 9 {
		t.Fatalf("stride>total sample = %v, want [0 9]", got)
	}
	if got := SampleSteps(1, 100, 0); len(got) != 1 || got[0] != 0 {
		t.Fatalf("single-step episode = %v, want [0]", got)
	}
	if got := SampleSteps(0, 3, 5); got != nil {
		t.Fatalf("zero-step episode = %v, want nil", got)
	}
	if got := SampleSteps(-4, 1, 0); got != nil {
		t.Fatalf("negative-step episode = %v, want nil", got)
	}
	// A non-positive stride behaves as stride 1.
	if got := SampleSteps(4, 0, 0); len(got) != 4 {
		t.Fatalf("stride 0 sample = %v, want all 4 steps", got)
	}
}

func TestSampleSteps(t *testing.T) {
	if got := SampleSteps(5, 1, 0); len(got) != 5 {
		t.Fatalf("full sample = %v", got)
	}
	got := SampleSteps(100, 7, 0)
	if got[0] != 0 || got[len(got)-1] != 99 {
		t.Fatalf("stride sample missing endpoints: %v", got)
	}
	capped := SampleSteps(100, 1, 10)
	if len(capped) > 10 || capped[0] != 0 || capped[len(capped)-1] != 99 {
		t.Fatalf("capped sample = %v", capped)
	}
	if got := SampleSteps(50, 1, 1); len(got) != 1 {
		t.Fatalf("max=1 sample = %v", got)
	}
	if got := SampleSteps(0, 1, 0); got != nil {
		t.Fatalf("empty episode sample = %v", got)
	}
}

func TestOutcomeContract(t *testing.T) {
	for _, o := range []Outcome{OutcomeRestored, OutcomePartial, OutcomeDetected} {
		if !o.OK() {
			t.Fatalf("%v should satisfy the contract", o)
		}
	}
	for _, o := range []Outcome{OutcomeSilentCorruption, OutcomeInternalError} {
		if o.OK() {
			t.Fatalf("%v should fail the contract", o)
		}
	}
}
