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

// chvWindow is how many drain slots the sharded pipeline precomputes at a
// time. It is a multiple of 8, so every MAC group lies inside one window,
// and it bounds the precompute's buffers to about 150 KB per drain instead
// of a ciphertext and a MAC per drained line (20 MB for a paper-scale Horus
// drain). Outputs are identical at any value; like shardMinBlocks it is a
// performance constant, not a knob.
const chvWindow = 2048

// chvPre holds the precomputed functional crypto of one window of a CHV
// drain: per-slot ciphertext and first-level MAC, plus (DLM only) the
// second-level MAC of every group of eight. Buffer index k holds drain slot
// lo+k, counter value dc0+lo+k — exactly the values the serial loop
// computes inline. The buffers are reused by every window of the walk.
type chvPre struct {
	blocks  []hierarchy.DirtyBlock
	dlm     bool
	dc0     uint64 // counter for drain slot i is dc0+i (the serial loop's d.dc++)
	engines []*cme.Engine
	lo, hi  int // the window's drain slots [lo, hi)
	ct      []mem.Block
	mac     []cme.MAC
	l2      []cme.MAC // one per 8-block group; DLM only
}

// precomputeCHV prepares the CHV stream's windowed crypto precompute over
// the shard engines; the serial loop fills each window as it reaches it.
func (d *Drainer) precomputeCHV(blocks []hierarchy.DirtyBlock, dlm bool) *chvPre {
	if d.shards <= 1 || len(blocks) < shardMinBlocks {
		return nil
	}
	w := min(len(blocks), chvWindow)
	pre := &chvPre{
		blocks:  blocks,
		dlm:     dlm,
		dc0:     d.dc,
		engines: d.shardEngines(),
		ct:      make([]mem.Block, w),
		mac:     make([]cme.MAC, w),
	}
	if dlm {
		pre.l2 = make([]cme.MAC, (w+7)/8)
	}
	return pre
}

// fill computes the window starting at drain slot lo (a multiple of
// chvWindow) across the shard engines. Worker ranges are 8-aligned so each
// MAC group (the unit the DLM second-level MAC folds over) lives entirely
// inside one worker's range.
func (p *chvPre) fill(lo int) {
	n := min(len(p.blocks)-lo, chvWindow)
	p.lo, p.hi = lo, lo+n
	g0 := lo / 8
	shard.Run(len(p.engines), func(w int) {
		wlo, whi := shard.CutAligned(n, len(p.engines), w, 8)
		if wlo == whi {
			// More workers than MAC groups: an empty range ends at n,
			// inside the last worker's partial group, which it must
			// not fold again.
			return
		}
		eng := p.engines[w]
		for k := wlo; k < whi; k++ {
			b := &p.blocks[lo+k]
			a := b.Addr | DrainPadDomain
			ctr := p.dc0 + uint64(lo+k)
			ct := eng.Encrypt(a, ctr, b.Data)
			p.ct[k] = ct
			p.mac[k] = eng.DataMAC(a, ctr, ct)
		}
		if p.dlm {
			for g := wlo / 8; g*8 < whi; g++ {
				end := min(g*8+8, n)
				p.l2[g] = eng.MACOverMACs(DrainPadDomain|uint64(g0+g), p.mac[g*8:end])
			}
		}
	})
}
