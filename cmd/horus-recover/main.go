// Command horus-recover demonstrates the full crash/recover cycle: fill
// the cache hierarchy, drain it on a simulated outage, lose power, then
// recover — optionally with an attack injected into the NVM between the
// crash and the recovery, which the recovery must detect.
//
// Examples:
//
//	horus-recover -scheme horus-slm
//	horus-recover -scheme horus-dlm -attack splice
//	horus-recover -scheme base-lu -attack tamper-vault
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	horus "repro"
	"repro/internal/cliutil"
	"repro/internal/report"
)

func main() {
	var (
		schemeFlag = flag.String("scheme", "horus-slm", "base-lu | base-eu | horus-slm | horus-dlm")
		attackFlag = flag.String("attack", "none", "none | tamper-data | tamper-addr | tamper-mac | splice | tamper-vault")
		scaleFlag  = flag.String("scale", "test", "test | paper")
		seed       = flag.Int64("seed", 1, "fill seed")
	)
	tf := cliutil.AddTraceFlags()
	ff := cliutil.AddForensicFlags()
	cliutil.Main("horus-recover", false, func(env *cliutil.Env) (int, error) {
		base, err := cliutil.ParseScale(*scaleFlag)
		if err != nil {
			return cliutil.ExitFail, err
		}
		base.Seed = *seed
		cfg, err := env.Config(base)
		if err != nil {
			return cliutil.ExitFail, err
		}
		cfg.Timeline = tf.Recorder()
		cfg.Evlog = ff.Log()
		scheme, err := cliutil.ParseScheme(*schemeFlag)
		if err != nil {
			return cliutil.ExitFail, err
		}

		sys := horus.NewSystem(cfg, scheme)
		if err := sys.Warmup(); err != nil {
			return cliutil.ExitFail, err
		}
		n := sys.Fill()
		golden := sys.Hierarchy.Golden()
		fmt.Printf("filled hierarchy: %s dirty blocks\n", report.Count(int64(n)))

		res, err := sys.Drain()
		if err != nil {
			return cliutil.ExitFail, err
		}
		fmt.Printf("drained in %v (%s writes)\n", res.DrainTime, report.Count(res.MemWrites.Total()))

		sys.Crash()
		fmt.Println("power lost: caches and volatile metadata gone; persistent registers survive")

		if *attackFlag != "none" {
			if err := inject(sys, res, *attackFlag); err != nil {
				return cliutil.ExitFail, err
			}
			fmt.Printf("attacker modified NVM while power was out (%s)\n", *attackFlag)
		}

		// The drain's recording is snapshotted before recovery: each recovery
		// path brackets its own phase-local episode in the same recorder.
		var drainRec *horus.TimelineRecording
		if cfg.Timeline != nil {
			drainRec = cfg.Timeline.Recording()
		}

		writeEvlog := func() error {
			if ff.Path == "" {
				return nil
			}
			if err := ff.WriteJSONL(cfg.Evlog.Records()...); err != nil {
				return err
			}
			fmt.Printf("forensics: flight recorder (%d events) to %s\n", cfg.Evlog.Len(), ff.Path)
			return nil
		}

		rec, err := sys.Recover(res.Persist)
		var rerr *horus.RecoveryError
		switch {
		case errors.As(err, &rerr):
			fmt.Printf("recovery REFUSED: %v\n", err)
			if ff.Explain {
				f := horus.ForensicFromError(err, "recovery")
				f.Scheme = scheme.String()
				fmt.Println()
				report.ForensicTable(*f).Fprint(os.Stdout)
			}
			if err := writeEvlog(); err != nil {
				return cliutil.ExitFail, err
			}
			if *attackFlag == "none" {
				return cliutil.ExitFail, nil // should never refuse an untouched image
			}
			fmt.Println("attack detected — compromised state was not restored")
			env.PrintSpans() // Main's epilogue prints the metrics line after it
			return cliutil.ExitOK, nil
		case err != nil:
			return cliutil.ExitFail, err
		}
		if *attackFlag != "none" && scheme.UsesCHV() {
			fmt.Println("ERROR: attack went undetected")
			return cliutil.ExitFail, nil
		}

		fmt.Printf("recovered in %v\n", rec.Time())
		if scheme.UsesCHV() {
			ok := 0
			for addr, want := range golden {
				if got, found := sys.Hierarchy.Read(addr); found && got == want {
					ok++
				}
			}
			fmt.Printf("verified %s/%s recovered blocks match pre-crash contents\n",
				report.Count(int64(ok)), report.Count(int64(len(golden))))
		} else {
			fmt.Printf("metadata-cache vault re-installed (%d lines); in-place data verifies\n", res.Persist.Vault.Count)
		}
		if tf.Attrib {
			fmt.Println()
			report.AttributionTable(horus.AnalyzeTimeline(drainRec)).Fprint(os.Stdout)
			if atts := rec.Attributions(); len(atts) > 0 {
				fmt.Println()
				report.AttributionTableTitled("Recovery critical path by binding resource", "(recovery time)", atts...).Fprint(os.Stdout)
				for _, r := range rec.Timelines() {
					fmt.Println()
					report.GanttTitled("Recovery timeline: "+r.Episode, r).Fprint(os.Stdout)
				}
			}
		}
		if tf.Path != "" {
			recs := append([]*horus.TimelineRecording{drainRec}, rec.Timelines()...)
			if err := tf.WriteTrace(recs...); err != nil {
				return cliutil.ExitFail, err
			}
			fmt.Printf("timeline: drain + %d recovery path(s) to %s\n", len(rec.Timelines()), tf.Path)
		}
		if err := writeEvlog(); err != nil {
			return cliutil.ExitFail, err
		}
		env.PrintSpans()
		return cliutil.ExitOK, nil
	})
}

func inject(sys *horus.System, res horus.Result, attack string) error {
	lay := sys.Core.Layout
	store := sys.Core.NVM.Store()
	switch attack {
	case "tamper-data":
		store.CorruptByte(lay.CHVDataAddr(0), 0, 0x01)
	case "tamper-addr":
		a, _ := lay.CHVAddrBlockAddr(0)
		store.CorruptByte(a, 0, 0x01)
	case "tamper-mac":
		store.CorruptByte(lay.CHVMACBase, 0, 0x01)
	case "splice":
		a0, a1 := lay.CHVDataAddr(0), lay.CHVDataAddr(1)
		b0, b1 := store.ReadBlock(a0), store.ReadBlock(a1)
		store.WriteBlock(a0, b1)
		store.WriteBlock(a1, b0)
	case "tamper-vault":
		if res.Persist.Vault.Count == 0 {
			return fmt.Errorf("no vault to tamper with (eager scheme or no residue)")
		}
		store.CorruptByte(lay.VaultAddr(0), 0, 0x01)
	default:
		return fmt.Errorf("unknown attack %q", attack)
	}
	return nil
}
