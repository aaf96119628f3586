// EPD vs ADR: the paper's motivation (§I, §II-A) quantified at run time.
// Persistent applications on an ADR system must flush every durable update
// through the (secure) memory path; an EPD system makes the caches part of
// the persistence domain, so persists are free. This example runs the
// paper's motivating workload classes — key-value store, analytical scan,
// transactional log, graph traversal — on both domains over a secure NVM
// and reports the run-time speedup EPD delivers, then crashes the EPD
// machine mid-run and shows Horus bringing it back.
package main

import (
	"fmt"
	"log"
	"os"

	horus "repro"
	"repro/internal/report"
)

func main() {
	cfg := horus.TestConfig()
	wcfg := horus.WorkloadConfig{Ops: 8000, WorkingSet: 96 << 10, Seed: 11}

	workloads := []*horus.Workload{
		horus.KVStoreWorkload(wcfg, 4),
		horus.TxLogWorkload(wcfg, 2, 4),
		horus.SequentialWorkload(withPersists(wcfg, 30)),
		horus.GraphWorkload(withPersists(wcfg, 30), 3),
	}

	t := &report.Table{
		Title:  "Run-time cost of durability: ADR vs EPD (secure NVM, lazy tree updates)",
		Header: []string{"workload", "ADR time", "EPD time", "EPD speedup", "persist flushes avoided"},
	}
	for _, wl := range workloads {
		var times [2]float64
		var flushes int64
		for i, domain := range []horus.PersistDomain{horus.DomainADR, horus.DomainEPD} {
			ws := horus.NewWorkloadSystem(cfg, horus.BaseLU, domain)
			if err := ws.Run(wl); err != nil {
				log.Fatal(err)
			}
			st := ws.Stats()
			times[i] = st.Time.Seconds()
			if domain == horus.DomainADR {
				flushes = st.PersistFlush
			}
		}
		t.AddRow(wl.Name,
			fmt.Sprintf("%.2fms", times[0]*1e3),
			fmt.Sprintf("%.2fms", times[1]*1e3),
			fmt.Sprintf("%.2fx", times[0]/times[1]),
			report.Count(flushes))
	}
	t.AddNote("EPD makes durability free at run time; the cost moves to the outage drain — which is what Horus makes affordable")
	t.Fprint(os.Stdout)

	// And the other half of the bargain: the EPD machine must survive the
	// crash. Run, crash mid-flight, drain with Horus, recover, verify.
	ws := horus.NewWorkloadSystem(cfg, horus.HorusSLM, horus.DomainEPD)
	if err := ws.Run(horus.TxLogWorkload(wcfg, 2, 4)); err != nil {
		log.Fatal(err)
	}
	res, image, err := ws.CrashAndDrain()
	if err != nil {
		log.Fatal(err)
	}
	if _, err := ws.Recover(res.Persist); err != nil {
		log.Fatal(err)
	}
	// Reads are timed through the MAC cache; the image is sorted by
	// address, so the run repeats exactly.
	for _, b := range image {
		got, err := ws.Machine.Read(b.Addr)
		if err != nil || got != b.Data {
			log.Fatalf("post-recovery verification failed at %#x: %v", b.Addr, err)
		}
	}
	fmt.Printf("crash mid-run: drained %d dirty lines in %v, recovered and verified all of them\n",
		res.BlocksDrained, res.DrainTime)
}

func withPersists(c horus.WorkloadConfig, pct int) horus.WorkloadConfig {
	c.PersistPercent = pct
	return c
}
