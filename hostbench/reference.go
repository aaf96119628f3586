package main

import horus "repro"

// drainRef pins one scheme's simulated outputs at seed 1. The paper-scale
// values are the ones EXPERIMENTS.md reports (Figs. 6, 11, 12, 13 and 16);
// the test-scale values are the same quantities at TestConfig.
type drainRef struct {
	drainPs, recoverPs          int64
	reads, writes, macs, aesOps int64
	vaultLines                  int // metadata-vault lines restored by recovery
}

// references maps a machine scale to the pinned outputs per scheme. At
// paper scale these are EXPERIMENTS.md's Fig. 11 drain times (9.49, 72.6,
// 119.4, 12.7 and 11.7 ms), its Fig. 6 request counts (Base-LU 9.78x and
// Base-EU 8.06x the 295,936 non-secure writes), the Fig. 12 write totals and
// the Fig. 13 MAC totals.
var references = map[string]map[string]drainRef{
	"paper": {
		"nonsecure": {drainPs: 9_489_075_000, writes: 295_936},
		"base-lu": {drainPs: 72_599_239_000, recoverPs: 3_190_875_000, reads: 1_531_980, writes: 1_361_592,
			macs: 2_305_139, aesOps: 295_936, vaultLines: 14_130},
		"base-eu": {drainPs: 119_351_572_500, reads: 1_037_575, writes: 1_348_729, macs: 3_405_063, aesOps: 295_936},
		"horus-slm": {drainPs: 12_673_650_000, recoverPs: 75_036_430_000, writes: 384_378,
			macs: 312_462, aesOps: 295_936, vaultLines: 12_851},
		"horus-dlm": {drainPs: 11_661_766_500, recoverPs: 71_499_070_000, writes: 352_010,
			macs: 349_454, aesOps: 295_936, vaultLines: 12_851},
	},
	"test": {
		"nonsecure": {drainPs: 169_535_000, writes: 5_152},
		"base-lu": {drainPs: 1_416_703_500, recoverPs: 98_390_000, reads: 32_004, writes: 26_151,
			macs: 47_922, aesOps: 5_152, vaultLines: 435},
		"base-eu": {drainPs: 1_768_877_000, reads: 20_134, writes: 25_798, macs: 51_046, aesOps: 5_152},
		"horus-slm": {drainPs: 240_270_000, recoverPs: 1_355_165_000, writes: 6_935,
			macs: 5_718, aesOps: 5_152, vaultLines: 440},
		"horus-dlm": {drainPs: 222_770_000, recoverPs: 1_293_660_000, writes: 6_372,
			macs: 6_362, aesOps: 5_152, vaultLines: 440},
	},
}

// lookupRef returns the pinned outputs for a scale and seed, or nil where
// only the invariants apply.
func lookupRef(scale string, seed int64) map[string]drainRef {
	if seed != 1 {
		return nil
	}
	return references[scale]
}

// checkEpisode checks one drain and its recovery: invariants that hold at any
// seed, then the pinned outputs where ref has them.
func checkEpisode(c *checker, id string, lines int, res horus.Result, rec *horus.RecoveryReport, ref map[string]drainRef) {
	s := res.Scheme
	eq(c, id+" blocks drained", res.BlocksDrained, lines)
	c.expect(res.DrainTime > 0, "%s: drain time %v", id, res.DrainTime)
	w := res.MemWrites
	if s.UsesCHV() {
		// One address block and one MAC block per eight drained blocks; DLM
		// folds eight MAC blocks into one.
		groups := int64(lines+7) / 8
		macBlocks := groups
		if s == horus.HorusDLM {
			macBlocks = (groups + 7) / 8
		}
		eq(c, id+" chv-data writes", w.Get("chv-data"), int64(lines))
		eq(c, id+" chv-addr writes", w.Get("chv-addr"), groups)
		eq(c, id+" chv-mac writes", w.Get("chv-mac"), macBlocks)
	} else {
		eq(c, id+" data writes", w.Get("data"), int64(lines))
	}
	if rec == nil {
		c.expect(false, "%s: no recovery report", id)
		return
	}
	if s.UsesCHV() {
		restored := -1
		if rec.Horus != nil {
			restored = len(rec.Horus.Blocks)
		}
		eq(c, id+" CHV blocks recovered", restored, lines)
	}
	r, ok := ref[id]
	if !ok {
		return
	}
	eq(c, id+" drain time (ps)", int64(res.DrainTime), r.drainPs)
	eq(c, id+" NVM reads", res.MemReads.Total(), r.reads)
	eq(c, id+" NVM writes", res.MemWrites.Total(), r.writes)
	eq(c, id+" MACs", res.TotalMACs(), r.macs)
	eq(c, id+" AES ops", res.AESOps, r.aesOps)
	eq(c, id+" recovery time (ps)", int64(rec.Time()), r.recoverPs)
	vault := 0
	if rec.Baseline != nil {
		vault = rec.Baseline.LinesRestored
	}
	eq(c, id+" vault lines restored", vault, r.vaultLines)
}
