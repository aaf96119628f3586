// Battery sizing: the paper's motivating scenario. A data-center operator
// wants eADR-style persistence with memory security, and the power-hold-up
// budget — and therefore the per-server battery volume — is set by the
// worst-case draining episode. This example compares the four secure
// designs (plus the non-secure reference) and prints the Table II / Table
// III style summary, showing how Horus shrinks the battery by ~4-5x.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	horus "repro"
	"repro/internal/energy"
	"repro/internal/report"
)

func main() {
	cfg := horus.TestConfig() // switch to horus.DefaultConfig() for Table I scale
	schemes := horus.AllSchemes()

	ds, err := horus.RunDrainSet(context.Background(), cfg, schemes, horus.SweepOptions{})
	if err != nil {
		log.Fatal(err)
	}

	t := &report.Table{
		Title:  "Worst-case draining episode: energy and battery size",
		Header: []string{"scheme", "drain time", "energy", "SuperCap", "Li-thin"},
	}
	for _, s := range schemes {
		res := ds.Results[s]
		b := cfg.EnergyOf(res)
		t.AddRow(s.String(),
			res.DrainTime.String(),
			report.Joules(b.Total()),
			report.Cm3(energy.Volume(b.Total(), energy.SuperCap)),
			report.Cm3(energy.Volume(b.Total(), energy.LiThin)))
	}
	lu := cfg.EnergyOf(ds.Results[horus.BaseLU]).Total()
	slm := cfg.EnergyOf(ds.Results[horus.HorusSLM]).Total()
	t.AddNote("Horus-SLM shrinks the battery %.1fx vs the lazy baseline", lu/slm)
	t.Fprint(os.Stdout)

	fmt.Println("Every ~10% of battery volume is rack space and embodied carbon;")
	fmt.Println("the paper argues this is what gates secure-memory adoption in EPD servers.")
}
