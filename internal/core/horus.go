package core

import (
	"encoding/binary"
	"fmt"

	"repro/internal/cme"
	"repro/internal/hierarchy"
	"repro/internal/mem"
	"repro/internal/sim"
)

// DrainPadDomain is OR-ed into the address fed to the OTP/MAC engines for
// CHV traffic. Run-time counter-mode pads are generated from (address,
// split-counter value) and Horus pads from (address, drain counter); the
// domain bit guarantees the two families can never collide for the same
// address, preserving pad uniqueness across run time and draining.
const DrainPadDomain = uint64(1) << 63

// DrainCHV drains the hierarchy into the CHV (Fig. 9) — the Horus drain
// primitive, exported for registered scheme variants to compose. dlm
// selects the double-level MAC coalescing of Horus-DLM (Fig. 10):
//
//  1. each flushed block is encrypted with the drain counter (DC) as the
//     counter-mode IV, DC incrementing per flush;
//  2. original addresses coalesce eight-at-a-time in an on-chip register
//     and are written as address blocks;
//  3. a MAC over (address, drain counter, ciphertext) is computed per
//     block; SLM coalesces eight MACs per MAC block, DLM hashes each
//     group of eight into a second-level MAC and writes one MAC block per
//     64 drained blocks (Fig. 10);
//  4. ciphertext, address and MAC blocks are written sequentially to the
//     CHV — no run-time security metadata is read, verified or updated.
func (d *Drainer) DrainCHV(blocks []hierarchy.DirtyBlock, dlm bool) sim.Time {
	lay := d.sys.Layout
	if uint64(len(blocks)) > lay.CHVCapacity {
		panic(fmt.Sprintf("core: %d blocks exceed CHV capacity %d", len(blocks), lay.CHVCapacity))
	}
	sec := d.sys.Sec
	nvm := d.sys.NVM
	nvm.MarkStage("drain:chv-stream")

	// Sharded pipeline: precompute the stream's functional crypto across the
	// shard-owned engines, one window ahead of the loop's first use of it
	// (nil at -shards=1 or for small drains). The timed loop below is
	// unchanged either way — it issues the same engine slots and writes the
	// same bytes, merely skipping the inline byte computation when a
	// precomputed slot exists (DESIGN.md §13).
	pre := d.precomputeCHV(blocks, dlm)

	var t sim.Time
	var addrReg [8]uint64 // address-coalescing register (§IV-D)
	var macReg1 []cme.MAC // first-level MAC register
	var macReg2 []cme.MAC // second-level MAC register (DLM only)
	var macReady sim.Time // completion time of the MACs buffered so far
	var l2Ready sim.Time  // completion time of buffered L2 MACs
	flushAddrReg := func(upto int, lastSlot uint64) {
		blk := packAddrs(addrReg[:upto])
		a, _ := lay.CHVAddrBlockAddrR(d.region, lastSlot)
		done := nvm.Write(0, a, blk, mem.CatCHVAddr)
		t = sim.MaxTime(t, done)
	}
	flushMACReg1SLM := func(lastSlot uint64) {
		a, _ := lay.CHVMACBlockAddrR(d.region, lastSlot)
		done := nvm.Write(macReady, a, mem.Block(cme.PackMACs(macReg1)), mem.CatCHVMAC)
		t = sim.MaxTime(t, done)
		macReg1 = macReg1[:0]
	}
	foldMACReg1DLM := func(group uint64) {
		// One second-level MAC per full (or final partial) group of eight.
		var l2 cme.MAC
		if pre != nil {
			l2 = pre.l2[int(group)-pre.lo/8]
		} else {
			l2 = d.sys.Enc.MACOverMACs(DrainPadDomain|group, macReg1)
		}
		tm := sec.IssueMAC(macReady, MACCHVL2)
		l2Ready = sim.MaxTime(l2Ready, tm)
		macReg2 = append(macReg2, l2)
		macReg1 = macReg1[:0]
	}
	flushMACReg2DLM := func(lastSlot uint64) {
		a, _ := lay.CHVMACBlockAddrDLMR(d.region, lastSlot)
		done := nvm.Write(l2Ready, a, mem.Block(cme.PackMACs(macReg2)), mem.CatCHVMAC)
		t = sim.MaxTime(t, done)
		macReg2 = macReg2[:0]
	}

	for i, b := range blocks {
		slot := uint64(i)
		ctr := d.dc
		d.dc++
		if pre != nil && i == pre.hi {
			pre.fill(i)
		}

		// Encrypt with the drain counter as IV (Step 1, Fig. 9).
		tAES := sec.IssueAES(0)
		var ct mem.Block
		if pre != nil {
			ct = pre.ct[i-pre.lo]
		} else {
			ct = d.sys.Enc.Encrypt(b.Addr|DrainPadDomain, ctr, b.Data)
		}

		// MAC over (address, drain counter, ciphertext) (Step 3).
		tMAC := sec.IssueMAC(tAES, MACCHVData)
		macReady = sim.MaxTime(macReady, tMAC)
		var m cme.MAC
		if pre != nil {
			m = pre.mac[i-pre.lo]
		} else {
			m = d.sys.Enc.DataMAC(b.Addr|DrainPadDomain, ctr, ct)
		}

		// Write the ciphertext to its CHV slot (Step 4).
		done := nvm.Write(tAES, lay.CHVDataAddrR(d.region, slot), ct, mem.CatCHVData)
		t = sim.MaxTime(t, done)
		d.sampleBlock(t)

		// Coalesce the address (Step 2).
		addrReg[i%8] = b.Addr
		if i%8 == 7 {
			flushAddrReg(8, slot)
		}

		// Coalesce the MAC.
		macReg1 = append(macReg1, m)
		if len(macReg1) == 8 {
			if dlm {
				foldMACReg1DLM(slot / 8)
			} else {
				flushMACReg1SLM(slot)
			}
		}
		if dlm && len(macReg2) == 8 {
			flushMACReg2DLM(slot)
		}
	}

	// Tail: flush partially filled registers.
	nvm.MarkStage("drain:chv-tail")
	n := len(blocks)
	if n > 0 {
		last := uint64(n - 1)
		if n%8 != 0 {
			flushAddrReg(n%8, last)
		}
		if len(macReg1) > 0 {
			if dlm {
				foldMACReg1DLM(last / 8)
			} else {
				flushMACReg1SLM(last)
			}
		}
		if dlm && len(macReg2) > 0 {
			flushMACReg2DLM(last)
		}
	}
	return t
}

// packAddrs packs up to eight 64-bit addresses into one block.
func packAddrs(addrs []uint64) mem.Block {
	if len(addrs) > 8 {
		panic("core: at most 8 addresses per address block")
	}
	var b mem.Block
	for i, a := range addrs {
		binary.LittleEndian.PutUint64(b[i*8:(i+1)*8], a)
	}
	return b
}

// unpackAddrs splits an address block into its eight slots.
func unpackAddrs(b mem.Block) [8]uint64 {
	var out [8]uint64
	for i := 0; i < 8; i++ {
		out[i] = binary.LittleEndian.Uint64(b[i*8 : (i+1)*8])
	}
	return out
}

// UnpackAddrs is the exported form used by the recovery package.
func UnpackAddrs(b mem.Block) [8]uint64 { return unpackAddrs(b) }
