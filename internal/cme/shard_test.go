package cme

import (
	"math/rand"
	"sync"
	"testing"
)

// TestCloneMatchesParent pins that a clone is the same cryptographic engine:
// identical pads and MACs for identical inputs, against both the parent and
// the independent CTR/streaming-SHA256 references.
func TestCloneMatchesParent(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	for trial := 0; trial < 16; trial++ {
		parent := NewEngine(rng.Uint64())
		clone := parent.Clone()
		for i := 0; i < 32; i++ {
			addr, counter := rng.Uint64()&^63, rng.Uint64()
			var pt [64]byte
			rng.Read(pt[:])
			if clone.OTP(addr, counter) != refPad(parent.block, addr, counter) {
				t.Fatalf("clone OTP diverges from CTR reference at (%#x, %d)", addr, counter)
			}
			ct := parent.Encrypt(addr, counter, pt)
			if clone.Encrypt(addr, counter, pt) != ct {
				t.Fatalf("clone Encrypt diverges from parent at (%#x, %d)", addr, counter)
			}
			if clone.DataMAC(addr, counter, ct) != refKeyedHash(parent.macKey, []uint64{addr, counter}, ct[:]) {
				t.Fatalf("clone DataMAC diverges from streaming reference at (%#x, %d)", addr, counter)
			}
		}
	}
}

// TestCloneScratchIsIndependent pins the point of Clone: interleaving calls
// on the parent must not clobber a clone's in-flight results (they would if
// the OTP scratch were shared).
func TestCloneScratchIsIndependent(t *testing.T) {
	parent := NewEngine(7)
	clone := parent.Clone()
	want := parent.OTP(64, 3)
	got := clone.OTP(64, 3)
	_ = parent.OTP(128, 9) // clobber parent scratch
	if got != want {
		t.Fatal("clone OTP result changed after a parent call: scratch is shared")
	}
}

// TestShardEngineHammerRace is the enforced concurrency contract of the
// shard-owned engine (run under -race in CI): N clones of one engine run the
// CHV drain's crypto — Encrypt, DataMAC and MACOverMACs per 8-block group —
// over the same block run concurrently, repeatedly, to interleave their
// scratch usage, and every shard's ciphertexts and MACs must be
// byte-identical to the serial parent path. A shared scratch buffer or any
// hidden mutable state would fail the race detector and the byte comparison.
func TestShardEngineHammerRace(t *testing.T) {
	const shards = 8
	const blocks = 512
	const rounds = 16

	parent := NewEngine(99)
	rng := rand.New(rand.NewSource(99))
	addrs := make([]uint64, blocks)
	ctrs := make([]uint64, blocks)
	plains := make([][64]byte, blocks)
	for i := 0; i < blocks; i++ {
		addrs[i] = uint64(i) * 64
		ctrs[i] = rng.Uint64() % 1024
		rng.Read(plains[i][:])
	}

	// seal computes every block's ciphertext and data MAC, then the MAC over
	// each group of eight data MACs.
	seal := func(e *Engine, cts [][64]byte, macs, groups []MAC) {
		for i := range addrs {
			cts[i] = e.Encrypt(addrs[i], ctrs[i], plains[i])
			macs[i] = e.DataMAC(addrs[i], ctrs[i], cts[i])
		}
		for g := range groups {
			groups[g] = e.MACOverMACs(uint64(g), macs[g*8:g*8+8])
		}
	}

	// Serial oracle through the parent engine.
	wantCT := make([][64]byte, blocks)
	wantMAC := make([]MAC, blocks)
	wantGroup := make([]MAC, blocks/8)
	seal(parent, wantCT, wantMAC, wantGroup)

	var wg sync.WaitGroup
	errs := make(chan string, shards)
	for s := 0; s < shards; s++ {
		eng := parent.Clone()
		wg.Add(1)
		go func(eng *Engine) {
			defer wg.Done()
			cts := make([][64]byte, blocks)
			macs := make([]MAC, blocks)
			groups := make([]MAC, blocks/8)
			for r := 0; r < rounds; r++ {
				seal(eng, cts, macs, groups)
				for i := 0; i < blocks; i++ {
					if cts[i] != wantCT[i] || macs[i] != wantMAC[i] {
						errs <- "shard output diverges from serial path"
						return
					}
				}
				for g := range groups {
					if groups[g] != wantGroup[g] {
						errs <- "shard group MAC diverges from serial path"
						return
					}
				}
			}
		}(eng)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}
