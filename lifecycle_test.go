package horus

import (
	"testing"
)

// The flagship integration test: run real workloads on a secure EPD
// machine, crash it mid-flight, drain under each scheme, recover, and
// verify that every pre-crash value is readable afterwards — through the
// recovered hierarchy for Horus, through verified in-place memory for the
// baselines.
func TestFullLifecycleWorkloadCrashRecover(t *testing.T) {
	wl := TxLogWorkload(WorkloadConfig{Ops: 4000, WorkingSet: 512 << 10, Seed: 21}, 2, 4)
	for _, scheme := range []Scheme{BaseLU, BaseEU, HorusSLM, HorusDLM} {
		t.Run(scheme.String(), func(t *testing.T) {
			cfg := TestConfig()
			ws := NewWorkloadSystem(cfg, scheme, DomainEPD)
			if err := ws.Run(wl); err != nil {
				t.Fatalf("run: %v", err)
			}
			st := ws.Stats()
			if st.Writes == 0 || st.Time <= 0 {
				t.Fatal("workload did not execute")
			}

			res, image, err := ws.CrashAndDrain()
			if err != nil {
				t.Fatalf("drain: %v", err)
			}
			if res.BlocksDrained == 0 {
				t.Fatal("nothing was dirty at the crash")
			}

			if _, err := ws.Recover(res.Persist); err != nil {
				t.Fatalf("recover: %v", err)
			}

			// Every dirty-at-crash value must read back correctly through
			// the machine (hierarchy for Horus, memory for baselines).
			for _, b := range image {
				got, err := ws.Machine.Read(b.Addr)
				if err != nil {
					t.Fatalf("post-recovery read %#x: %v", b.Addr, err)
				}
				if got != b.Data {
					t.Fatalf("post-recovery mismatch at %#x", b.Addr)
				}
			}
		})
	}
}

// After recovery the machine must be able to keep running and survive a
// second crash/recover cycle (drain counters persist across episodes).
func TestLifecycleTwoEpisodes(t *testing.T) {
	cfg := TestConfig()
	ws := NewWorkloadSystem(cfg, HorusSLM, DomainEPD)
	wl1 := KVStoreWorkload(WorkloadConfig{Ops: 2000, WorkingSet: 256 << 10, Seed: 5}, 4)
	if err := ws.Run(wl1); err != nil {
		t.Fatal(err)
	}
	res1, _, err := ws.CrashAndDrain()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ws.Recover(res1.Persist); err != nil {
		t.Fatal(err)
	}

	wl2 := ZipfWorkload(WorkloadConfig{Ops: 2000, WorkingSet: 256 << 10, Seed: 6}, 1.3)
	if err := ws.Run(wl2); err != nil {
		t.Fatalf("run after recovery: %v", err)
	}
	res2, image, err := ws.CrashAndDrain()
	if err != nil {
		t.Fatalf("second drain: %v", err)
	}
	if res2.Persist.DC <= res1.Persist.DC {
		t.Error("drain counter did not advance across episodes")
	}
	if _, err := ws.Recover(res2.Persist); err != nil {
		t.Fatalf("second recovery: %v", err)
	}
	for _, b := range image {
		got, err := ws.Machine.Read(b.Addr)
		if err != nil {
			t.Fatalf("read %#x: %v", b.Addr, err)
		}
		if got != b.Data {
			t.Fatalf("mismatch at %#x after second episode", b.Addr)
		}
	}
}

// EPD vs ADR at run time: the paper's §II-A motivation quantified.
func TestRuntimeEPDBeatsADR(t *testing.T) {
	wl := TxLogWorkload(WorkloadConfig{Ops: 5000, WorkingSet: 64 << 10, Seed: 7}, 1, 2)
	times := map[PersistDomain]RunStats{}
	for _, d := range []PersistDomain{DomainADR, DomainEPD} {
		ws := NewWorkloadSystem(TestConfig(), BaseLU, d)
		if err := ws.Run(wl); err != nil {
			t.Fatal(err)
		}
		times[d] = ws.Stats()
	}
	if times[DomainEPD].Time >= times[DomainADR].Time {
		t.Errorf("EPD (%v) not faster than ADR (%v)", times[DomainEPD].Time, times[DomainADR].Time)
	}
}

// The buffered persistence domains must survive the full lifecycle too:
// entries accepted by the battery-backed WPQ/BBB are durable, so after a
// crash both the persisted and the drained data recover.
func TestLifecycleBufferedDomains(t *testing.T) {
	for _, domain := range []PersistDomain{DomainADRWPQ, DomainBBB} {
		t.Run(domain.String(), func(t *testing.T) {
			cfg := TestConfig()
			ws := NewWorkloadSystem(cfg, HorusSLM, domain)
			wl := TxLogWorkload(WorkloadConfig{Ops: 3000, WorkingSet: 128 << 10, Seed: 33}, 2, 3)
			if err := ws.Run(wl); err != nil {
				t.Fatal(err)
			}
			if ws.Stats().PersistFlush == 0 {
				t.Fatal("no buffered persists exercised")
			}
			res, image, err := ws.CrashAndDrain()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ws.Recover(res.Persist); err != nil {
				t.Fatal(err)
			}
			for _, b := range image {
				got, err := ws.Machine.Read(b.Addr)
				if err != nil || got != b.Data {
					t.Fatalf("%v: post-recovery mismatch at %#x: %v", domain, b.Addr, err)
				}
			}
		})
	}
}

// A non-secure workload system exercises the plain path.
func TestWorkloadSystemNonSecure(t *testing.T) {
	ws := NewWorkloadSystem(TestConfig(), NonSecure, DomainEPD)
	wl := UniformWorkload(WorkloadConfig{Ops: 1000, WorkingSet: 1 << 20, Seed: 8, PersistPercent: 10})
	if err := ws.Run(wl); err != nil {
		t.Fatal(err)
	}
	res, _, err := ws.CrashAndDrain()
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalMACs() != 0 {
		t.Error("non-secure lifecycle used MACs")
	}
	if _, err := ws.Recover(res.Persist); err != nil {
		t.Fatal(err)
	}
}
