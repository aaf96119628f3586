package core

import (
	"reflect"
	"testing"

	"repro/internal/hierarchy"
	"repro/internal/mem"
)

// TestWindowedCHVPrecomputeMatchesSerial drains a CHV stream that spans
// several precompute windows and ends in a partial MAC group (its block
// count is not a multiple of 8) at one shard and at three, and requires the
// same Result and the same NVM image, written in the same order.
func TestWindowedCHVPrecomputeMatchesSerial(t *testing.T) {
	const n = 2*chvWindow + 13
	if n%8 == 0 {
		t.Fatal("block count must leave a partial MAC group")
	}
	blocks := make([]hierarchy.DirtyBlock, n)
	for i := range blocks {
		blocks[i] = hierarchy.DirtyBlock{Addr: uint64(i) * 16384, Data: mem.Block{0: byte(i), 1: byte(i >> 8), 63: 0x5a}}
	}
	type image struct {
		addrs  []uint64
		blocks []mem.Block
	}
	drain := func(scheme Scheme, shards int) (Result, image) {
		sys, _ := buildSystem(t, scheme)
		sys.Shards = shards
		res, err := NewDrainer(scheme, sys, 0).Drain(blocks)
		if err != nil {
			t.Fatalf("%v shards=%d: %v", scheme, shards, err)
		}
		var img image
		sys.NVM.Store().Each(func(a uint64, b mem.Block) {
			img.addrs = append(img.addrs, a)
			img.blocks = append(img.blocks, b)
		})
		return res, img
	}
	for _, scheme := range []Scheme{HorusSLM, HorusDLM} {
		res1, img1 := drain(scheme, 1)
		res3, img3 := drain(scheme, 3)
		if res1.BlocksDrained != n {
			t.Fatalf("%v: drained %d blocks, want %d", scheme, res1.BlocksDrained, n)
		}
		if !reflect.DeepEqual(res1, res3) {
			t.Errorf("%v: Result diverges at shards=3\n serial: %+v\nsharded: %+v", scheme, res1, res3)
		}
		if !reflect.DeepEqual(img1, img3) {
			t.Errorf("%v: NVM image or write order diverges at shards=3", scheme)
		}
	}
}
