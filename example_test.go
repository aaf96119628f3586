package horus_test

import (
	"context"
	"fmt"

	horus "repro"
)

// The basic drain cycle: build a system, fill the hierarchy with the
// worst case, and drain it on a simulated outage.
func ExampleRunDrain() {
	cfg := horus.TestConfig()
	res, err := horus.RunDrain(cfg, horus.HorusSLM)
	if err != nil {
		panic(err)
	}
	fmt.Println("blocks drained:", res.BlocksDrained)
	fmt.Println("reads during drain:", res.MemReads.Total())
	fmt.Println("one MAC per drained block:",
		res.MACCalcs.Get("chv-data-mac") == int64(res.BlocksDrained))
	// Output:
	// blocks drained: 5152
	// reads during drain: 0
	// one MAC per drained block: true
}

// The full crash/recover loop with verification.
func ExampleSystem_Recover() {
	sys := horus.NewSystem(horus.TestConfig(), horus.HorusDLM)
	sys.Fill()
	res, err := sys.Drain()
	if err != nil {
		panic(err)
	}
	sys.Crash() // power lost: volatile state gone
	rec, err := sys.Recover(res.Persist)
	if err != nil {
		panic(err)
	}
	fmt.Println("blocks recovered:", len(rec.Horus.Blocks))
	fmt.Println("hierarchy restored:", sys.Hierarchy.DirtyCount() == res.BlocksDrained)
	// Output:
	// blocks recovered: 5152
	// hierarchy restored: true
}

// Tampering with the CHV while power is out is detected at recovery.
func ExampleSystem_Recover_attack() {
	sys := horus.NewSystem(horus.TestConfig(), horus.HorusSLM)
	sys.Fill()
	res, err := sys.Drain()
	if err != nil {
		panic(err)
	}
	sys.Crash()
	sys.Core.NVM.Store().CorruptByte(sys.Core.Layout.CHVDataAddr(3), 0, 0x01)
	_, err = sys.Recover(res.Persist)
	fmt.Println("recovery refused:", err != nil)
	// Output:
	// recovery refused: true
}

// Running an application workload on the EPD machine: persists are free.
func ExampleNewWorkloadSystem() {
	ws := horus.NewWorkloadSystem(horus.TestConfig(), horus.HorusSLM, horus.DomainEPD)
	wl := horus.KVStoreWorkload(horus.WorkloadConfig{
		Ops: 5000, WorkingSet: 128 << 10, Seed: 1,
	}, 4)
	if err := ws.Run(wl); err != nil {
		panic(err)
	}
	st := ws.Stats()
	fmt.Println("persist flushes under EPD:", st.PersistFlush)
	fmt.Println("persists elided:", st.PersistElided > 0)
	// Output:
	// persist flushes under EPD: 0
	// persists elided: true
}

// Comparing two schemes on the same configuration.
func ExampleRunDrainSet() {
	ds, err := horus.RunDrainSet(context.Background(), horus.TestConfig(),
		[]horus.Scheme{horus.NonSecure, horus.BaseLU, horus.HorusSLM}, horus.SweepOptions{})
	if err != nil {
		panic(err)
	}
	ns := ds.Results[horus.NonSecure].TotalMemAccesses()
	lu := ds.Results[horus.BaseLU].TotalMemAccesses()
	slm := ds.Results[horus.HorusSLM].TotalMemAccesses()
	fmt.Println("baseline blow-up >= 5x:", lu >= 5*ns)
	fmt.Println("Horus within 1.5x of non-secure:", slm*2 <= 3*ns)
	// Output:
	// baseline blow-up >= 5x: true
	// Horus within 1.5x of non-secure: true
}
