package core

import (
	"runtime"

	"repro/internal/cme"
	"repro/internal/hierarchy"
	"repro/internal/mem"
	"repro/internal/shard"
)

// The sharded drain pipeline (DESIGN.md §13).
//
// The drain's timed state machine — drain-counter advance, engine issue
// slots, bank reservations, register coalescing, sampling — stays strictly
// serial and is byte-for-byte the code that runs at -shards=1. What fans out
// across shard-owned crypto contexts is only the *functional* crypto of the
// CHV stream drains: OTP generation, data-MAC and second-level-MAC byte
// computation. Those values are pure functions of (address, counter,
// content); every worker writes its results into pre-assigned slots of
// pre-sized slices, so the bytes are identical no matter how many shards
// compute them or in what order workers finish. The serial replay then
// consumes the slots in drain order, issuing the exact same timed operations
// it always did. Baseline drains and the metadata flush always run serially.
//
// Consequence: drain results — ciphertext, MACs, Result counters, -trace
// timelines, /timeseries.json — are bit-identical at any shard count, which
// TestShardedDrainDeterminism pins per scheme.

// shardMinBlocks is the fan-out threshold: below it the per-drain setup
// (clone pool, precompute slices, goroutine join) costs more than it saves,
// so small drains always take the inline path. Outputs are identical either
// way; the threshold is purely a performance knob.
const shardMinBlocks = 64

// resolveShards maps the configured shard count to the effective one:
// zero or negative means GOMAXPROCS (the -shards flag default).
func resolveShards(configured int) int {
	if configured > 0 {
		return configured
	}
	return runtime.GOMAXPROCS(0)
}

// shardEngines returns the drainer's shard-owned crypto contexts, building
// them on first use: engines[w] is worker w's private clone of the system
// key engine (shared cipher schedule and MAC key, private scratch — see
// cme.Engine's ownership contract).
func (d *Drainer) shardEngines() []*cme.Engine {
	if len(d.engines) != d.shards {
		d.engines = make([]*cme.Engine, d.shards)
		for w := range d.engines {
			d.engines[w] = d.sys.Enc.Clone()
		}
	}
	return d.engines
}

// chvPre holds the precomputed functional crypto of one CHV drain: per-block
// ciphertext and first-level MAC, plus (DLM only) the second-level MAC of
// every group of eight. Slot i corresponds to drain slot i, counter value
// startDC+i — exactly the values the serial loop computes inline.
type chvPre struct {
	ct  []mem.Block
	mac []cme.MAC
	l2  []cme.MAC // one per 8-block group; DLM only
}

// precomputeCHV fans the CHV stream's crypto out across the shard engines.
// Worker ranges are 8-aligned so each MAC group (the unit the DLM
// second-level MAC folds over) lives entirely inside one worker's range.
func (d *Drainer) precomputeCHV(blocks []hierarchy.DirtyBlock, dlm bool) *chvPre {
	if d.shards <= 1 || len(blocks) < shardMinBlocks {
		return nil
	}
	n := len(blocks)
	pre := &chvPre{ct: make([]mem.Block, n), mac: make([]cme.MAC, n)}
	if dlm {
		pre.l2 = make([]cme.MAC, (n+7)/8)
	}
	engines := d.shardEngines()
	dc0 := d.dc // counter for drain slot i is dc0+i (the serial loop's d.dc++)
	shard.Run(d.shards, func(w int) {
		lo, hi := shard.CutAligned(n, d.shards, w, 8)
		eng := engines[w]
		for i := lo; i < hi; i++ {
			a := blocks[i].Addr | DrainPadDomain
			ctr := dc0 + uint64(i)
			ct := eng.Encrypt(a, ctr, blocks[i].Data)
			pre.ct[i] = ct
			pre.mac[i] = eng.DataMAC(a, ctr, ct)
		}
		if dlm {
			for g := lo / 8; g*8 < hi; g++ {
				end := min(g*8+8, n)
				pre.l2[g] = eng.MACOverMACs(DrainPadDomain|uint64(g), pre.mac[g*8:end])
			}
		}
	})
	return pre
}
