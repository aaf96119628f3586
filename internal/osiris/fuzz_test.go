package osiris

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cme"
	"repro/internal/mem"
	"repro/internal/sim"
)

// fuzzImage runs stop-loss writes on a fresh system, crashes it and returns
// the post-crash NVM image, its addresses and the address of a counter block
// with a non-zero major: hot blocks advance counters past the stop-loss
// several times, and block 0 overflows its minor counter.
func fuzzImage(f *testing.F) (*mem.Store, []uint64, uint64) {
	sys := osirisSystem(f)
	rng := rand.New(rand.NewSource(7))
	var now sim.Time
	put := func(addr uint64, b mem.Block) {
		done, err := sys.Sec.WriteBlock(now, addr, b)
		if err != nil {
			f.Fatalf("write %#x: %v", addr, err)
		}
		now = done
	}
	for i := 0; i < 300; i++ {
		put(uint64(rng.Intn(40))*4096, mem.Block{0: byte(i), 1: byte(i >> 8)})
	}
	put(64, mem.Block{0: 0x55})
	for i := 0; i < cme.MinorLimit+5; i++ {
		put(0, mem.Block{0: byte(i)})
	}
	sys.Sec.Crash()
	img := sys.NVM.Store().Snapshot()
	return img, img.AddressesInRange(0, sys.Layout.End), sys.Layout.CounterBlockAddr(0)
}

// FuzzOsirisRecover flips bits of one block of a crashed Osiris image and
// picks the stop-loss, then runs the reconstruction. The contract under
// fuzz: no panic, and every failure at a positive stop-loss is a typed
// *osiris.Error. A non-positive stop-loss is a usage error.
func FuzzOsirisRecover(f *testing.F) {
	img, addrs, ctr := fuzzImage(f)
	ctrIdx := uint64(slices.Index(addrs, ctr))
	f.Add(uint64(0), uint8(0), uint8(0), uint8(stopLoss))          // unmutated
	f.Add(uint64(0), uint8(0), uint8(0), uint8(0))                 // stop-loss 0
	f.Add(uint64(0), uint8(0), uint8(0), uint8(1))                 // stop-loss below the run-time one
	f.Add(uint64(3), uint8(9), uint8(0x40), uint8(stopLoss))       // flip a bit of some block
	f.Add(ctrIdx, uint8(8), uint8(0x03), uint8(stopLoss))          // roll minors of the overflowed block
	f.Add(ctrIdx, uint8(0), uint8(0x01), uint8(cme.MinorLimit+10)) // major - 1, window spans the old major
	f.Fuzz(func(t *testing.T, idx uint64, off, mask, sl uint8) {
		sys := osirisSystem(t)
		sys.NVM.Store().CopyFrom(img)
		if mask != 0 {
			sys.NVM.Store().CorruptByte(addrs[idx%uint64(len(addrs))], int(off)%mem.BlockSize, mask)
		}
		_, err := Recover(sys, int(sl), "base-lu")
		if sl == 0 {
			if err == nil {
				t.Fatal("stop-loss 0 accepted")
			}
			return
		}
		var oe *Error
		if err != nil && !errors.As(err, &oe) {
			t.Fatalf("recovery failed with untyped error %T: %v", err, err)
		}
	})
}
