// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus ablations for the design choices called out in
// DESIGN.md and microbenchmarks of the substrates.
//
// The figure benchmarks run at the paper's full Table I scale (32 GB PCM,
// 295 936 drained blocks) and report the figure's metric via
// b.ReportMetric: normalized ratios, drain milliseconds, joules, cm^3.
// Expect a few seconds per iteration for the baseline schemes. Set
// -benchtime=1x for a single pass of everything:
//
//	go test -bench=. -benchmem -benchtime=1x
package horus

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/energy"
	"repro/internal/hierarchy"
)

// benchConfig is the paper-scale configuration used by the figure benches.
func benchConfig() Config {
	return DefaultConfig()
}

// drainOnce runs a single draining episode and reports nothing.
func drainOnce(b *testing.B, cfg Config, s Scheme) Result {
	b.Helper()
	res, err := RunDrain(cfg, s)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// --------------------------------------------------------------------------
// Fig. 6: memory requests to flush the hierarchy (non-secure vs baselines).

func benchmarkFig6(b *testing.B, s Scheme) {
	cfg := benchConfig()
	var res, ns Result
	for i := 0; i < b.N; i++ {
		res = drainOnce(b, cfg, s)
		ns = drainOnce(b, cfg, NonSecure)
	}
	b.ReportMetric(float64(res.TotalMemAccesses()), "mem-accesses")
	b.ReportMetric(float64(res.TotalMemAccesses())/float64(ns.TotalMemAccesses()), "x-vs-nonsecure")
}

func BenchmarkFig6_BaseLU(b *testing.B) { benchmarkFig6(b, BaseLU) }
func BenchmarkFig6_BaseEU(b *testing.B) { benchmarkFig6(b, BaseEU) }

// --------------------------------------------------------------------------
// Fig. 11: draining time.

func benchmarkFig11(b *testing.B, s Scheme) {
	cfg := benchConfig()
	var res, ns Result
	for i := 0; i < b.N; i++ {
		res = drainOnce(b, cfg, s)
		ns = drainOnce(b, cfg, NonSecure)
	}
	b.ReportMetric(res.DrainTime.Seconds()*1e3, "drain-ms")
	b.ReportMetric(float64(res.DrainTime)/float64(ns.DrainTime), "x-vs-nonsecure")
}

func BenchmarkFig11_NonSecure(b *testing.B) { benchmarkFig11(b, NonSecure) }
func BenchmarkFig11_BaseLU(b *testing.B)    { benchmarkFig11(b, BaseLU) }
func BenchmarkFig11_BaseEU(b *testing.B)    { benchmarkFig11(b, BaseEU) }
func BenchmarkFig11_HorusSLM(b *testing.B)  { benchmarkFig11(b, HorusSLM) }
func BenchmarkFig11_HorusDLM(b *testing.B)  { benchmarkFig11(b, HorusDLM) }

// --------------------------------------------------------------------------
// Fig. 12: memory-write breakdown. The bench reports the figure's headline
// comparison: CHV MAC-block writes under SLM vs DLM (8x) and total writes.

func BenchmarkFig12_WriteBreakdown(b *testing.B) {
	cfg := benchConfig()
	var slm, dlm Result
	for i := 0; i < b.N; i++ {
		slm = drainOnce(b, cfg, HorusSLM)
		dlm = drainOnce(b, cfg, HorusDLM)
	}
	b.ReportMetric(float64(slm.MemWrites.Get("chv-mac")), "slm-chv-mac-writes")
	b.ReportMetric(float64(dlm.MemWrites.Get("chv-mac")), "dlm-chv-mac-writes")
	b.ReportMetric(float64(slm.MemWrites.Get("chv-mac"))/float64(dlm.MemWrites.Get("chv-mac")), "slm-over-dlm")
}

// --------------------------------------------------------------------------
// Fig. 13: MAC-calculation breakdown. Reports each scheme's total MACs and
// the DLM/SLM ratio (paper: 1.125x).

func BenchmarkFig13_MACBreakdown(b *testing.B) {
	cfg := benchConfig()
	results := map[Scheme]Result{}
	for i := 0; i < b.N; i++ {
		for _, s := range []Scheme{BaseLU, BaseEU, HorusSLM, HorusDLM} {
			results[s] = drainOnce(b, cfg, s)
		}
	}
	b.ReportMetric(float64(results[BaseLU].TotalMACs()), "base-lu-macs")
	b.ReportMetric(float64(results[BaseEU].TotalMACs()), "base-eu-macs")
	b.ReportMetric(float64(results[HorusSLM].TotalMACs()), "horus-slm-macs")
	b.ReportMetric(float64(results[HorusDLM].TotalMACs())/float64(results[HorusSLM].TotalMACs()), "dlm-over-slm")
}

// --------------------------------------------------------------------------
// Figs. 14 & 15: LLC-size sensitivity, normalized to Base-LU.

func benchmarkLLCSweepPoint(b *testing.B, llcBytes int) {
	cfg := benchConfig()
	cfg.LLCBytes = llcBytes
	var lu, slm, dlm Result
	for i := 0; i < b.N; i++ {
		lu = drainOnce(b, cfg, BaseLU)
		slm = drainOnce(b, cfg, HorusSLM)
		dlm = drainOnce(b, cfg, HorusDLM)
	}
	b.ReportMetric(float64(lu.TotalMemAccesses())/float64(slm.TotalMemAccesses()), "fig14-mem-reduction-slm")
	b.ReportMetric(float64(lu.TotalMemAccesses())/float64(dlm.TotalMemAccesses()), "fig14-mem-reduction-dlm")
	b.ReportMetric(float64(lu.TotalMACs())/float64(slm.TotalMACs()), "fig15-mac-reduction-slm")
	b.ReportMetric(float64(lu.TotalMACs())/float64(dlm.TotalMACs()), "fig15-mac-reduction-dlm")
}

func BenchmarkFig14_15_LLC8MB(b *testing.B)  { benchmarkLLCSweepPoint(b, 8<<20) }
func BenchmarkFig14_15_LLC16MB(b *testing.B) { benchmarkLLCSweepPoint(b, 16<<20) }
func BenchmarkFig14_15_LLC32MB(b *testing.B) { benchmarkLLCSweepPoint(b, 32<<20) }

// --------------------------------------------------------------------------
// Fig. 16: recovery time vs LLC size.

func benchmarkFig16(b *testing.B, llcBytes int, s Scheme) {
	cfg := benchConfig()
	cfg.LLCBytes = llcBytes
	var seconds float64
	for i := 0; i < b.N; i++ {
		sys := NewSystem(cfg, s)
		if err := sys.Warmup(); err != nil {
			b.Fatal(err)
		}
		sys.Fill()
		res, err := sys.Drain()
		if err != nil {
			b.Fatal(err)
		}
		sys.Crash()
		rec, err := sys.Recover(res.Persist)
		if err != nil {
			b.Fatal(err)
		}
		seconds = rec.Time().Seconds()
	}
	b.ReportMetric(seconds, "recovery-s")
}

func BenchmarkFig16_LLC8MB_SLM(b *testing.B)   { benchmarkFig16(b, 8<<20, HorusSLM) }
func BenchmarkFig16_LLC32MB_SLM(b *testing.B)  { benchmarkFig16(b, 32<<20, HorusSLM) }
func BenchmarkFig16_LLC128MB_SLM(b *testing.B) { benchmarkFig16(b, 128<<20, HorusSLM) }
func BenchmarkFig16_LLC8MB_DLM(b *testing.B)   { benchmarkFig16(b, 8<<20, HorusDLM) }
func BenchmarkFig16_LLC32MB_DLM(b *testing.B)  { benchmarkFig16(b, 32<<20, HorusDLM) }
func BenchmarkFig16_LLC128MB_DLM(b *testing.B) { benchmarkFig16(b, 128<<20, HorusDLM) }

// --------------------------------------------------------------------------
// Tables II & III: energy and battery volume.

func BenchmarkTable2_3_Energy(b *testing.B) {
	cfg := benchConfig()
	results := map[Scheme]Result{}
	for i := 0; i < b.N; i++ {
		for _, s := range Table2Schemes() {
			results[s] = drainOnce(b, cfg, s)
		}
	}
	for _, s := range Table2Schemes() {
		br := cfg.EnergyOf(results[s])
		b.ReportMetric(br.Total(), fmt.Sprintf("J-%s", s))
		b.ReportMetric(energy.Volume(br.Total(), energy.SuperCap), fmt.Sprintf("cm3-supercap-%s", s))
	}
}

// --------------------------------------------------------------------------
// Headline claims (abstract / §I): 8x memory requests, 7.8x MACs, 5x time.

func BenchmarkHeadline(b *testing.B) {
	cfg := benchConfig()
	var h Headline
	for i := 0; i < b.N; i++ {
		// One worker: the two paper-scale drains run one after the other.
		ds, err := RunDrainSet(context.Background(), cfg, []Scheme{BaseLU, HorusSLM}, SweepOptions{Parallel: 1})
		if err != nil {
			b.Fatal(err)
		}
		h = ds.Headline()
	}
	b.ReportMetric(h.MemReduction, "mem-reduction-x")
	b.ReportMetric(h.MACReduction, "mac-reduction-x")
	b.ReportMetric(h.TimeReduction, "time-reduction-x")
}

// --------------------------------------------------------------------------
// Ablations (DESIGN.md §5).

// DLM trades one extra MAC computation per 8 blocks for 8x fewer MAC-block
// writes; sweep the effect at paper scale.
func BenchmarkAblationDLMGroup(b *testing.B) {
	cfg := benchConfig()
	var slm, dlm Result
	for i := 0; i < b.N; i++ {
		slm = drainOnce(b, cfg, HorusSLM)
		dlm = drainOnce(b, cfg, HorusDLM)
	}
	b.ReportMetric(float64(dlm.TotalMACs())/float64(slm.TotalMACs()), "mac-overhead-x")
	b.ReportMetric(float64(slm.MemWrites.Total())/float64(dlm.MemWrites.Total()), "write-saving-x")
}

// Metadata-cache size sensitivity: the baselines' drain cost depends on the
// tree cache; Horus is oblivious.
func BenchmarkAblationMetaCache(b *testing.B) {
	for _, kb := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("tree%dKB", kb), func(b *testing.B) {
			cfg := benchConfig()
			cfg.Sec.TreeCacheBytes = kb << 10
			var lu, slm Result
			for i := 0; i < b.N; i++ {
				lu = drainOnce(b, cfg, BaseLU)
				slm = drainOnce(b, cfg, HorusSLM)
			}
			b.ReportMetric(float64(lu.TotalMemAccesses())/295936.0, "lu-accesses-per-block")
			b.ReportMetric(float64(slm.TotalMemAccesses())/295936.0, "horus-accesses-per-block")
		})
	}
}

// Fill-pattern sensitivity: dense fill (best case for the baselines) vs the
// paper's evenly spread worst case vs a fully shuffled sparse fill.
func BenchmarkAblationFillPattern(b *testing.B) {
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"dense", func(c *Config) { c.FillPattern = hierarchy.PatternDense }},
		{"paper-strided", func(c *Config) {}},
		{"shuffled-sparse", func(c *Config) {
			c.FillPattern = hierarchy.PatternWorstCaseSparse
			c.FlushShuffle = true
		}},
	}
	for _, cse := range cases {
		b.Run(cse.name, func(b *testing.B) {
			cfg := benchConfig()
			cse.mut(&cfg)
			var lu, slm Result
			for i := 0; i < b.N; i++ {
				lu = drainOnce(b, cfg, BaseLU)
				slm = drainOnce(b, cfg, HorusSLM)
			}
			b.ReportMetric(float64(lu.TotalMemAccesses())/295936.0, "lu-accesses-per-block")
			b.ReportMetric(float64(slm.TotalMemAccesses())/295936.0, "horus-accesses-per-block")
		})
	}
}

// Bank-count sensitivity: draining time is bandwidth-bound, so the hold-up
// budget scales with memory parallelism for every scheme.
func BenchmarkAblationBanks(b *testing.B) {
	for _, banks := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("banks%d", banks), func(b *testing.B) {
			cfg := benchConfig()
			cfg.Mem.Banks = banks
			var ns, slm Result
			for i := 0; i < b.N; i++ {
				ns = drainOnce(b, cfg, NonSecure)
				slm = drainOnce(b, cfg, HorusSLM)
			}
			b.ReportMetric(ns.DrainTime.Seconds()*1e3, "nonsecure-drain-ms")
			b.ReportMetric(slm.DrainTime.Seconds()*1e3, "horus-drain-ms")
		})
	}
}

// Recovery-mechanism comparison: Horus CHV read-back vs the Anubis-style
// metadata vault vs Osiris scan-and-rebuild, for the same crashed state.
func BenchmarkAblationRecoveryMechanisms(b *testing.B) {
	b.Run("horus-chv", func(b *testing.B) {
		cfg := TestConfig()
		var t float64
		for i := 0; i < b.N; i++ {
			_, rec, err := RunRecovery(cfg, HorusSLM)
			if err != nil {
				b.Fatal(err)
			}
			t = rec.Time().Seconds()
		}
		b.ReportMetric(t*1e3, "recovery-ms")
	})
	b.Run("anubis-vault", func(b *testing.B) {
		cfg := TestConfig()
		var t float64
		for i := 0; i < b.N; i++ {
			_, rec, err := RunRecovery(cfg, BaseLU)
			if err != nil {
				b.Fatal(err)
			}
			t = rec.Time().Seconds()
		}
		b.ReportMetric(t*1e3, "recovery-ms")
	})
	b.Run("osiris-rebuild", func(b *testing.B) {
		cfg := TestConfig()
		cfg.Sec.OsirisStopLoss = 4
		var t float64
		for i := 0; i < b.N; i++ {
			ws := NewWorkloadSystem(cfg, BaseLU, DomainADR)
			wl := KVStoreWorkload(WorkloadConfig{Ops: 4000, WorkingSet: 256 << 10, Seed: 17}, 4)
			if err := ws.Run(wl); err != nil {
				b.Fatal(err)
			}
			ws.Crash()
			res, err := ws.RecoverWithOsiris()
			if err != nil {
				b.Fatal(err)
			}
			t = res.RecoveryTime.Seconds()
		}
		b.ReportMetric(t*1e3, "recovery-ms")
	})
}

// Recovery-aware vs recovery-oblivious baseline drain (§IV-B: draining
// with recovery-awareness — persisting metadata per write, Osiris-style —
// costs even more than the already-expensive oblivious baseline).
func BenchmarkAblationRecoveryAwareDrain(b *testing.B) {
	cfg := benchConfig()
	var oblivious, aware Result
	for i := 0; i < b.N; i++ {
		oblivious = drainOnce(b, cfg, BaseLU)
		awareCfg := cfg
		awareCfg.Sec.OsirisStopLoss = 4
		aware = drainOnce(b, awareCfg, BaseLU)
	}
	b.ReportMetric(float64(oblivious.MemWrites.Total()), "oblivious-writes")
	b.ReportMetric(float64(aware.MemWrites.Total()), "aware-writes")
	b.ReportMetric(float64(aware.MemWrites.Total())/float64(oblivious.MemWrites.Total()), "aware-over-oblivious")
}

// NVM technology sweep: the write latency varies widely across candidate
// persistent memories; the drain-time gap between Horus and the baseline
// is bandwidth-driven and holds across them.
func BenchmarkAblationNVMWriteLatency(b *testing.B) {
	for _, writeNs := range []int{200, 500, 1000} {
		b.Run(fmt.Sprintf("write%dns", writeNs), func(b *testing.B) {
			cfg := benchConfig()
			cfg.Mem.WriteLatency = Time(writeNs) * 1000 // ns -> ps
			var lu, slm Result
			for i := 0; i < b.N; i++ {
				lu = drainOnce(b, cfg, BaseLU)
				slm = drainOnce(b, cfg, HorusSLM)
			}
			b.ReportMetric(lu.DrainTime.Seconds()*1e3, "lu-drain-ms")
			b.ReportMetric(slm.DrainTime.Seconds()*1e3, "horus-drain-ms")
			b.ReportMetric(float64(lu.DrainTime)/float64(slm.DrainTime), "reduction-x")
		})
	}
}

// Victim-selection policy: preferring clean victims in the metadata caches
// trades clean re-fetches for fewer dirty write-backs (each of which
// cascades into a parent update under the lazy scheme).
func BenchmarkAblationCleanVictims(b *testing.B) {
	for _, prefer := range []bool{false, true} {
		name := "lru"
		if prefer {
			name = "prefer-clean"
		}
		b.Run(name, func(b *testing.B) {
			cfg := benchConfig()
			cfg.Sec.PreferCleanVictims = prefer
			var lu Result
			for i := 0; i < b.N; i++ {
				lu = drainOnce(b, cfg, BaseLU)
			}
			b.ReportMetric(float64(lu.MemReads.Total()), "reads")
			b.ReportMetric(float64(lu.MemWrites.Total()), "writes")
			b.ReportMetric(lu.DrainTime.Seconds()*1e3, "drain-ms")
		})
	}
}

// Memory-capacity decoupling (§I: Horus "decouples the required backup
// power budget from the memory capacity"): growing the protected NVM
// deepens the integrity tree and inflates the baseline's drain, while
// Horus's cost per block stays constant.
func BenchmarkAblationDataSize(b *testing.B) {
	for _, gb := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("%dGB", gb), func(b *testing.B) {
			cfg := benchConfig()
			cfg.DataSize = uint64(gb) << 30
			var lu, slm Result
			for i := 0; i < b.N; i++ {
				lu = drainOnce(b, cfg, BaseLU)
				slm = drainOnce(b, cfg, HorusSLM)
			}
			blocks := float64(lu.BlocksDrained)
			b.ReportMetric(float64(lu.TotalMemAccesses())/blocks, "lu-accesses-per-block")
			b.ReportMetric(float64(slm.TotalMemAccesses())/blocks, "horus-accesses-per-block")
			b.ReportMetric(lu.DrainTime.Seconds()*1e3, "lu-drain-ms")
			b.ReportMetric(slm.DrainTime.Seconds()*1e3, "horus-drain-ms")
		})
	}
}

// Recovery parallelism: the paper's Fig. 16 estimate is a conservative
// single read stream; a bank-parallel read-back shows the available
// headroom at paper scale (128 MB LLC).
func BenchmarkAblationParallelRecovery(b *testing.B) {
	cfg := benchConfig()
	cfg.LLCBytes = 128 << 20
	var serial, parallel float64
	for i := 0; i < b.N; i++ {
		sys := NewSystem(cfg, HorusSLM)
		sys.Fill()
		res, err := sys.Drain()
		if err != nil {
			b.Fatal(err)
		}
		sys.Crash()
		s, err := RecoverSerial(sys, res.Persist)
		if err != nil {
			b.Fatal(err)
		}
		sys.Core.Sec.Crash()
		p, err := RecoverParallel(sys, res.Persist)
		if err != nil {
			b.Fatal(err)
		}
		serial, parallel = s.Seconds(), p.Seconds()
	}
	b.ReportMetric(serial, "serial-recovery-s")
	b.ReportMetric(parallel, "parallel-recovery-s")
	b.ReportMetric(serial/parallel, "speedup-x")
}

// CHV wear levelling: rotation regions trade reserved NVM capacity for
// endurance of the vault cells.
func BenchmarkAblationCHVRotation(b *testing.B) {
	for _, regions := range []int{1, 4} {
		b.Run(fmt.Sprintf("regions%d", regions), func(b *testing.B) {
			const episodes = 8
			var maxWear int64
			for i := 0; i < b.N; i++ {
				cfg := TestConfig()
				cfg.CHVRegions = regions
				sys := NewSystem(cfg, HorusSLM)
				sys.Fill()
				for e := 0; e < episodes; e++ {
					res, err := sys.Drain()
					if err != nil {
						b.Fatal(err)
					}
					sys.Crash()
					if _, err := sys.Recover(res.Persist); err != nil {
						b.Fatal(err)
					}
				}
				lay := sys.Core.Layout
				maxWear, _ = sys.Core.NVM.WearInRange(lay.CHVDataBase, lay.VaultBase)
			}
			b.ReportMetric(float64(maxWear), "max-chv-cell-writes")
			b.ReportMetric(float64(episodes)/float64(maxWear), "wear-levelling-x")
		})
	}
}

// --------------------------------------------------------------------------
// Substrate microbenchmarks (host-CPU performance of the simulator itself).

func BenchmarkMicroSecureWrite(b *testing.B) {
	cfg := TestConfig()
	sys := NewSystem(cfg, BaseLU)
	var now int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := (uint64(i) * 4096) % cfg.DataSize
		done, err := sys.Core.Sec.WriteBlock(0, addr, [64]byte{0: byte(i)})
		if err != nil {
			b.Fatal(err)
		}
		now += int64(done)
	}
	_ = now
}

func BenchmarkMicroHorusDrainPerBlock(b *testing.B) {
	cfg := TestConfig()
	sys := NewSystem(cfg, HorusSLM)
	sys.Fill()
	blocks := sys.Hierarchy.DirtyBlocks()
	b.ResetTimer()
	drained := 0
	for drained < b.N {
		res, err := sys.Drain()
		if err != nil {
			b.Fatal(err)
		}
		drained += res.BlocksDrained
		b.StopTimer()
		sys = NewSystem(cfg, HorusSLM)
		sys.Fill()
		b.StartTimer()
	}
	_ = blocks
}

// --------------------------------------------------------------------------
// Observability overhead guard: the nil-registry fast path of the
// instrumentation added for the obs subsystem must stay within noise of the
// pre-instrumentation hot loop (<5% on the Fig. 11 drain path). Compare:
//
//	go test -bench=ObsOverhead -benchtime=5x
//
// "disabled" runs with cfg.Metrics == nil (every handle is a nil no-op);
// "enabled" attaches a live registry so the cost of real recording is
// visible next to it.

func benchmarkObsOverhead(b *testing.B, reg *MetricsRegistry) {
	cfg := TestConfig()
	cfg.Metrics = reg
	for i := 0; i < b.N; i++ {
		if _, err := RunDrain(cfg, HorusSLM); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkObsDisabledOverhead(b *testing.B) {
	b.Run("disabled", func(b *testing.B) { benchmarkObsOverhead(b, nil) })
	b.Run("enabled", func(b *testing.B) { benchmarkObsOverhead(b, NewMetricsRegistry()) })
}

// BenchmarkTimelineDisabledOverhead is the same contract for the timeline
// recorder: with cfg.Timeline == nil the tracer hook in sim.Resource.Reserve
// is a single pointer check, so the "disabled" sub must match an untraced
// run. "enabled" shows the cost of recording every reservation.
func benchmarkTimelineOverhead(b *testing.B, traced bool) {
	b.ReportAllocs()
	cfg := TestConfig()
	for i := 0; i < b.N; i++ {
		if traced {
			cfg.Timeline = NewTimelineRecorder(0)
		}
		if _, err := RunDrain(cfg, HorusSLM); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTimelineDisabledOverhead(b *testing.B) {
	b.Run("disabled", func(b *testing.B) { benchmarkTimelineOverhead(b, false) })
	b.Run("enabled", func(b *testing.B) { benchmarkTimelineOverhead(b, true) })
}

// BenchmarkTimeseriesDisabledOverhead is the same contract for the
// time-series sampler: with cfg.Timeseries == nil every per-event hook
// (per-block drain samples, per-access bank-depth samples) is a single
// pointer check with zero allocations, so the "disabled" sub must match an
// unsampled run. "enabled" shows the cost of live windowed recording.
func benchmarkTimeseriesOverhead(b *testing.B, sampled bool) {
	b.ReportAllocs()
	cfg := TestConfig()
	for i := 0; i < b.N; i++ {
		if sampled {
			cfg.Timeseries = NewTimeseriesSampler(0, 0)
		}
		if _, err := RunDrain(cfg, HorusSLM); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTimeseriesDisabledOverhead(b *testing.B) {
	b.Run("disabled", func(b *testing.B) { benchmarkTimeseriesOverhead(b, false) })
	b.Run("enabled", func(b *testing.B) { benchmarkTimeseriesOverhead(b, true) })
}
