package cliutil

import (
	"reflect"
	"testing"

	horus "repro"
)

func TestParseScheme(t *testing.T) {
	cases := map[string]horus.Scheme{
		"ns": horus.NonSecure, "non-secure": horus.NonSecure, "NonSecure": horus.NonSecure,
		"lu": horus.BaseLU, "Base-LU": horus.BaseLU,
		"eu": horus.BaseEU, "base-eu": horus.BaseEU,
		"slm": horus.HorusSLM, "HORUS-SLM": horus.HorusSLM,
		"dlm": horus.HorusDLM, "horus-dlm": horus.HorusDLM,
	}
	for in, want := range cases {
		got, err := ParseScheme(in)
		if err != nil || got != want {
			t.Errorf("ParseScheme(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseScheme("bogus"); err == nil {
		t.Error("bogus scheme accepted")
	}
}

func TestParseDomain(t *testing.T) {
	cases := map[string]horus.PersistDomain{
		"adr": horus.DomainADR, "wpq": horus.DomainADRWPQ, "adr+wpq": horus.DomainADRWPQ,
		"bbb": horus.DomainBBB, "epd": horus.DomainEPD, "eADR": horus.DomainEPD,
	}
	for in, want := range cases {
		got, err := ParseDomain(in)
		if err != nil || got != want {
			t.Errorf("ParseDomain(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseDomain("dram"); err == nil {
		t.Error("bogus domain accepted")
	}
}

func TestMakeWorkload(t *testing.T) {
	cfg := horus.WorkloadConfig{Ops: 100, WorkingSet: 64 << 10, Seed: 1}
	for _, name := range []string{"kv", "txlog", "zipf", "uniform", "sequential", "graph"} {
		wl, err := MakeWorkload(name, cfg)
		if err != nil {
			t.Errorf("MakeWorkload(%q): %v", name, err)
			continue
		}
		if len(wl.Ops) != cfg.Ops {
			t.Errorf("%s: %d ops", name, len(wl.Ops))
		}
	}
	if _, err := MakeWorkload("nope", cfg); err == nil {
		t.Error("bogus workload accepted")
	}
}

func TestParseScale(t *testing.T) {
	p, err := ParseScale("paper")
	if err != nil || p.DataSize != 32<<30 {
		t.Error("paper scale wrong")
	}
	tc, err := ParseScale("test")
	if err != nil || tc.DataSize != 1<<30 {
		t.Error("test scale wrong")
	}
	if _, err := ParseScale("huge"); err == nil {
		t.Error("bogus scale accepted")
	}
}

func TestParseSchemes(t *testing.T) {
	got, err := ParseSchemes("slm, lu,DLM")
	want := []horus.Scheme{horus.HorusSLM, horus.BaseLU, horus.HorusDLM}
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("ParseSchemes = %v, %v; want %v", got, err, want)
	}
	if got, err := ParseSchemes(""); got != nil || err != nil {
		t.Errorf("empty list = %v, %v; want nil", got, err)
	}
	if _, err := ParseSchemes("slm,bogus"); err == nil {
		t.Error("bogus scheme in list accepted")
	}
}

func TestWorkloadFuncSetsSeed(t *testing.T) {
	base := horus.WorkloadConfig{Ops: 50, WorkingSet: 64 << 10, Seed: 1}
	mk, err := WorkloadFunc("kv", base)
	if err != nil {
		t.Fatal(err)
	}
	base.Seed = 7
	want, _ := MakeWorkload("kv", base)
	if got := mk(7); !reflect.DeepEqual(got, want) {
		t.Error("WorkloadFunc(seed 7) differs from MakeWorkload at seed 7")
	}
	if _, err := WorkloadFunc("nope", base); err == nil {
		t.Error("bogus workload accepted")
	}
}
