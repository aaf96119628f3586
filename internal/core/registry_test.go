package core

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/hierarchy"
	"repro/internal/secmem"
	"repro/internal/sim"
)

// TestSchemeRegistryRoundTrip checks register → lookup → property parity
// with the historical enum behavior for every built-in design.
func TestSchemeRegistryRoundTrip(t *testing.T) {
	want := []struct {
		s       Scheme
		name    string
		secure  bool
		usesCHV bool
		update  secmem.UpdateScheme
	}{
		{NonSecure, "NonSecure", false, false, secmem.LazyUpdate},
		{BaseLU, "Base-LU", true, false, secmem.LazyUpdate},
		{BaseEU, "Base-EU", true, false, secmem.EagerUpdate},
		{HorusSLM, "Horus-SLM", true, true, secmem.LazyUpdate},
		{HorusDLM, "Horus-DLM", true, true, secmem.LazyUpdate},
	}
	for _, w := range want {
		got, err := Lookup(w.name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", w.name, err)
		}
		if got != w.s {
			t.Errorf("Lookup(%q) = %d, want %d", w.name, got, w.s)
		}
		if w.s.String() != w.name {
			t.Errorf("%d.String() = %q, want %q", w.s, w.s.String(), w.name)
		}
		if w.s.Secure() != w.secure {
			t.Errorf("%v.Secure() = %v, want %v", w.s, w.s.Secure(), w.secure)
		}
		if w.s.UsesCHV() != w.usesCHV {
			t.Errorf("%v.UsesCHV() = %v, want %v", w.s, w.s.UsesCHV(), w.usesCHV)
		}
		if w.s.RuntimeScheme() != w.update {
			t.Errorf("%v.RuntimeScheme() = %v, want %v", w.s, w.s.RuntimeScheme(), w.update)
		}
	}
}

func TestSchemeRegistryUnknownName(t *testing.T) {
	_, err := Lookup("Horus-TLM")
	if err == nil {
		t.Fatal("Lookup of unregistered scheme must fail")
	}
	if !strings.Contains(err.Error(), "Horus-TLM") || !strings.Contains(err.Error(), "Horus-SLM") {
		t.Errorf("error should name the miss and the registered schemes: %v", err)
	}
}

func TestSchemeNamesOrder(t *testing.T) {
	names := SchemeNames()
	if len(names) < 5 {
		t.Fatalf("SchemeNames() = %v, want at least the 5 built-ins", names)
	}
	for i, want := range []string{"NonSecure", "Base-LU", "Base-EU", "Horus-SLM", "Horus-DLM"} {
		if names[i] != want {
			t.Errorf("SchemeNames()[%d] = %q, want %q", i, names[i], want)
		}
	}
}

// trivialScheme is a registered custom design used to prove extensibility:
// it drains in place (like NonSecure) but reports itself secure=false.
type trivialScheme struct{ drained int }

func (trivialScheme) Name() string                       { return "Trivial-Test" }
func (trivialScheme) Secure() bool                       { return false }
func (trivialScheme) UsesCHV() bool                      { return false }
func (trivialScheme) RuntimeScheme() secmem.UpdateScheme { return secmem.LazyUpdate }
func (s *trivialScheme) Drain(d *Drainer, blocks []hierarchy.DirtyBlock) (sim.Time, error) {
	s.drained += len(blocks)
	return d.DrainInPlace(blocks), nil
}

// trivialTest is the custom scheme, registered once per process: the scheme
// table is process-wide, so a repeated run (go test -count=N) must not
// register the name again.
var trivialTest = sync.OnceValue(func() Scheme {
	return Register("Trivial-Test", func() DrainScheme { return &trivialScheme{} })
})

func TestRegisterCustomScheme(t *testing.T) {
	s := trivialTest()
	got, err := Lookup("Trivial-Test")
	if err != nil || got != s {
		t.Fatalf("Lookup after Register = (%v, %v), want (%v, nil)", got, err, s)
	}
	if s.String() != "Trivial-Test" || s.Secure() || s.UsesCHV() {
		t.Error("custom scheme properties not served from the registry")
	}

	sys, h := buildSystem(t, s)
	blocks := fillWorstCase(h, 3)[:16]
	d := NewDrainer(s, sys, 0)
	res, err := d.Drain(blocks)
	if err != nil {
		t.Fatal(err)
	}
	if res.BlocksDrained != 16 || res.Scheme != s {
		t.Errorf("custom drain result wrong: %+v", res)
	}
	// Same primitive as NonSecure → same traffic shape.
	if res.MemWrites.Get("data") != 16 {
		t.Errorf("in-place writes = %d, want 16", res.MemWrites.Get("data"))
	}

	defer func() {
		if recover() == nil {
			t.Error("duplicate registration must panic")
		}
	}()
	Register("Trivial-Test", func() DrainScheme { return &trivialScheme{} })
}
