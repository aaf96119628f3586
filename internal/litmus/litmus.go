// Package litmus implements persistency-model litmus testing for the drain
// pipeline (ROADMAP item 5, modelled on "Lost in Interpretation"): it
// records the NVM writes of one drain episode segmented into epochs at the
// persist-ordering barriers (the mem.MarkStage labels), then enumerates the
// crash states a legal reordering of writes within an epoch could leave
// behind.
//
// Epoch model: a persist barrier orders everything before it against
// everything after it, so writes of different epochs never reorder. Within
// an epoch the memory system may persist writes in any order, except that
// two writes to the same address persist in program order (cache
// coherence). A crash at epoch e's closing barrier therefore leaves
// durable: every write of epochs < e, plus an arbitrary prefix of an
// admissible permutation of epoch e — equivalently, any subset of epoch e
// that is prefix-closed per address (a later write to an address landed
// only if every earlier write to that address landed).
//
// The package is pure bookkeeping and combinatorics; materialising an
// ordering into a persistent state and running recovery against it is the
// root package's litmus driver.
package litmus

import "repro/internal/mem"

// Write is one recorded NVM write of a drain episode.
type Write struct {
	// Step is the global write index within the episode (program order).
	Step int
	// Addr is the NVM block address.
	Addr uint64
	// Cat is the access category the controller charged the write to.
	Cat mem.Category
	// Data is the committed block content.
	Data mem.Block
}

// Epoch is a maximal run of writes between two persist barriers.
type Epoch struct {
	// Index is the epoch's position in barrier order.
	Index int
	// Stage is the MarkStage label that opened the epoch (e.g.
	// "drain:chv-stream", "meta:vault-payload").
	Stage string
	// Lo and Hi delimit the epoch's writes as a half-open range of global
	// write indices [Lo, Hi). Epochs with no writes are not recorded.
	Lo, Hi int
}

// Size returns the number of writes in the epoch.
func (e Epoch) Size() int { return e.Hi - e.Lo }

// Recorder captures a drain episode's write stream and its epoch structure.
// It is a mem.WriteHook that lets every write land unchanged, so installing
// it via SetWriteHook records a fault-free episode byte-for-byte.
//
// Not safe for concurrent use; record one episode per Recorder.
type Recorder struct {
	writes []Write
	epochs []Epoch
	stage  string

	// OnEpochClose, if set, is invoked each time a non-empty epoch closes
	// (a new stage mark arrives, or Finish is called). The litmus driver
	// uses it to snapshot the drainer's persistent registers at the
	// barrier — the register file a crash at that barrier would leave.
	OnEpochClose func(e Epoch)
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// OnWrite implements mem.WriteHook: append the write and let it land
// unchanged.
func (r *Recorder) OnWrite(addr uint64, cat mem.Category, _, b mem.Block) (mem.Block, bool) {
	r.writes = append(r.writes, Write{Step: len(r.writes), Addr: addr, Cat: cat, Data: b})
	return b, true
}

// OnStage implements mem.WriteHook: a stage mark is a persist barrier,
// closing the epoch in progress and opening one labelled with the new stage.
func (r *Recorder) OnStage(stage string) {
	r.closeEpoch()
	r.stage = stage
}

// Finish closes the trailing epoch after the episode's last write. Call it
// once when the drain returns.
func (r *Recorder) Finish() { r.closeEpoch() }

func (r *Recorder) closeEpoch() {
	lo := 0
	if n := len(r.epochs); n > 0 {
		lo = r.epochs[n-1].Hi
	}
	if hi := len(r.writes); hi > lo {
		e := Epoch{Index: len(r.epochs), Stage: r.stage, Lo: lo, Hi: hi}
		r.epochs = append(r.epochs, e)
		if r.OnEpochClose != nil {
			r.OnEpochClose(e)
		}
	}
}

// Writes returns the recorded write stream in program order.
func (r *Recorder) Writes() []Write { return r.writes }

// Epochs returns the recorded (non-empty) epochs in barrier order.
func (r *Recorder) Epochs() []Epoch { return r.epochs }

// EpochWrites returns the slice of the write stream belonging to e.
func (r *Recorder) EpochWrites(e Epoch) []Write { return r.writes[e.Lo:e.Hi] }
