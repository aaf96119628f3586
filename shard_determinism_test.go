package horus

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"repro/internal/mem"
)

// drainArtifacts runs one full warmup+fill+drain episode at the given shard
// count with every observer attached and returns all of its observable
// output: the Result, the NVM's full content, the event timeline and the
// time-series JSON.
func drainArtifacts(t *testing.T, scheme Scheme, shards int) (Result, []uint64, []mem.Block, *TimelineRecording, []byte) {
	t.Helper()
	cfg := TestConfig()
	cfg.Shards = shards
	rec := NewTimelineRecorder(0)
	cfg.Timeline = rec
	ts := NewTimeseriesSampler(5_000_000, 4096)
	cfg.Timeseries = ts

	sys := NewSystem(cfg, scheme)
	if err := sys.Warmup(); err != nil {
		t.Fatalf("%v shards=%d: warmup: %v", scheme, shards, err)
	}
	sys.Fill()
	res, err := sys.Drain()
	if err != nil {
		t.Fatalf("%v shards=%d: drain: %v", scheme, shards, err)
	}

	store := sys.Core.NVM.Store()
	addrs := store.AddressesInRange(0, math.MaxUint64)
	content := make([]mem.Block, len(addrs))
	for i, a := range addrs {
		content[i] = store.ReadBlock(a)
	}
	var tsJSON bytes.Buffer
	if err := ts.WriteJSON(&tsJSON); err != nil {
		t.Fatalf("%v shards=%d: timeseries: %v", scheme, shards, err)
	}
	return res, addrs, content, rec.Recording(), tsJSON.Bytes()
}

// TestShardedDrainDeterminism is the pipeline's acceptance property: for
// every scheme, a drain at -shards=N (N in {2, 4, 8}) is byte-identical to
// the serial -shards=1 drain — same Result (times, counters, persistent
// registers including the tree and vault roots), same NVM bytes at every
// populated address, same event timeline, same time-series JSON. TestConfig
// drains 5,152 lines, so a CHV drain crosses two boundaries of the
// 2,048-slot precompute window and ends inside a third window.
func TestShardedDrainDeterminism(t *testing.T) {
	for _, scheme := range AllSchemes() {
		res1, addrs1, blocks1, rec1, ts1 := drainArtifacts(t, scheme, 1)
		for _, shards := range []int{2, 4, 8} {
			resN, addrsN, blocksN, recN, tsN := drainArtifacts(t, scheme, shards)
			if !reflect.DeepEqual(res1, resN) {
				t.Errorf("%v: Result diverges at shards=%d\n serial: %+v\nsharded: %+v", scheme, shards, res1, resN)
			}
			if !reflect.DeepEqual(addrs1, addrsN) {
				t.Errorf("%v: populated address set diverges at shards=%d (%d vs %d addresses)",
					scheme, shards, len(addrs1), len(addrsN))
			} else if !reflect.DeepEqual(blocks1, blocksN) {
				for i := range blocks1 {
					if blocks1[i] != blocksN[i] {
						t.Errorf("%v: NVM content diverges at shards=%d, addr %#x", scheme, shards, addrs1[i])
						break
					}
				}
			}
			if !reflect.DeepEqual(rec1.Events, recN.Events) {
				t.Errorf("%v: timeline diverges at shards=%d (%d vs %d events)",
					scheme, shards, len(rec1.Events), len(recN.Events))
			}
			if !bytes.Equal(ts1, tsN) {
				t.Errorf("%v: time-series JSON diverges at shards=%d", scheme, shards)
			}
		}
	}
}

// baselineDrainAllocSlack is how many more heap objects a baseline drain at
// Shards=4 may allocate than the same drain at Shards=1. Baseline drains
// push every line through the serial secure write path, so the shard count
// has nothing to fan out; per-block work tied to it would show up as
// thousands of extra objects.
const baselineDrainAllocSlack = 16

// drainMallocs runs Warmup → Fill at TestConfig with the given shard count
// and returns the number of heap objects the Drain alone allocates.
func drainMallocs(t *testing.T, scheme Scheme, shards int) uint64 {
	t.Helper()
	cfg := TestConfig()
	cfg.Shards = shards
	sys := NewSystem(cfg, scheme)
	if err := sys.Warmup(); err != nil {
		t.Fatalf("%v shards=%d: warmup: %v", scheme, shards, err)
	}
	sys.Fill()
	var err error
	n := countMallocs(func() { _, err = sys.Drain() })
	if err != nil {
		t.Fatalf("%v shards=%d: drain: %v", scheme, shards, err)
	}
	return n
}

// TestBaselineDrainAllocsIndependentOfShards keeps per-block speculation out
// of the baseline drains: raising the shard count must not raise what a
// BaseLU or BaseEU drain allocates beyond a small fixed slack.
func TestBaselineDrainAllocsIndependentOfShards(t *testing.T) {
	for _, scheme := range []Scheme{BaseLU, BaseEU} {
		serial := drainMallocs(t, scheme, 1)
		sharded := drainMallocs(t, scheme, 4)
		if sharded > serial+baselineDrainAllocSlack {
			t.Errorf("%v: drain allocates %d objects at shards=4, %d at shards=1 (slack %d)",
				scheme, sharded, serial, baselineDrainAllocSlack)
		}
	}
}

// chvPrecomputeByteSlack bounds how many more bytes a Horus-DLM drain at
// Shards=4 may allocate than at Shards=1: one precompute window (2,048
// drain slots of ciphertext, MAC and second-level MAC, about 146 KB) plus
// the shard engine clones. Measured with go1.24 on linux/amd64: 152,176
// bytes at TestConfig's 5,152 lines (392,176 when the precompute held one
// slot per drained line).
const chvPrecomputeByteSlack = 192 << 10

// TestCHVPrecomputeBytesBounded keeps the sharded CHV precompute windowed:
// its buffers must not grow with the number of drained lines.
func TestCHVPrecomputeBytesBounded(t *testing.T) {
	drainBytes := func(shards int) uint64 {
		cfg := TestConfig()
		cfg.Shards = shards
		sys := NewSystem(cfg, HorusDLM)
		if err := sys.Warmup(); err != nil {
			t.Fatalf("shards=%d: warmup: %v", shards, err)
		}
		sys.Fill()
		var err error
		n := countBytes(func() { _, err = sys.Drain() })
		if err != nil {
			t.Fatalf("shards=%d: drain: %v", shards, err)
		}
		return n
	}
	serial, sharded := drainBytes(1), drainBytes(4)
	t.Logf("Horus-DLM drain allocates %d bytes at shards=1, %d at shards=4", serial, sharded)
	if sharded > serial+chvPrecomputeByteSlack {
		t.Errorf("Horus-DLM drain allocates %d bytes at shards=4, %d at shards=1 (slack %d)",
			sharded, serial, chvPrecomputeByteSlack)
	}
}

// TestShardedDrainRecovers pins that a sharded drain leaves recoverable
// state: crash after a -shards=8 drain, then verified recovery, for a CHV
// scheme and a baseline.
func TestShardedDrainRecovers(t *testing.T) {
	for _, scheme := range []Scheme{BaseLU, HorusDLM} {
		cfg := TestConfig()
		cfg.Shards = 8
		sys := NewSystem(cfg, scheme)
		if err := sys.Warmup(); err != nil {
			t.Fatalf("%v: warmup: %v", scheme, err)
		}
		sys.Fill()
		res, err := sys.Drain()
		if err != nil {
			t.Fatalf("%v: drain: %v", scheme, err)
		}
		sys.Crash()
		if _, err := sys.Recover(res.Persist); err != nil {
			t.Fatalf("%v: recovery after sharded drain: %v", scheme, err)
		}
	}
}
