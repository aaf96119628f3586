package mem

// FaultKind selects how a fault corrupts (or suppresses) one NVM write.
type FaultKind int

const (
	// FaultNone leaves the write untouched.
	FaultNone FaultKind = iota
	// FaultDrop silently discards the write: the medium keeps its old
	// content and the controller reports the write as durable. Models a
	// final metadata flush that never reached the NVM.
	FaultDrop
	// FaultTear commits only the first TornBytes bytes of the new block;
	// the rest keeps the old content. Models a torn 64 B write where the
	// persistence domain cut power mid-transfer.
	FaultTear
	// FaultFlip commits the write with one bit flipped (Byte, Mask).
	// Models media corruption of a flushed block/MAC/vault word.
	FaultFlip
	// FaultCut commits nothing — this write and every later write are
	// suppressed, modelling a clean power cut at this persist boundary.
	// The caller's injector is responsible for suppressing the later
	// writes (it keeps returning FaultCut once fired).
	FaultCut
)

// String names the fault kind for reports.
func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultDrop:
		return "drop"
	case FaultTear:
		return "tear"
	case FaultFlip:
		return "flip"
	case FaultCut:
		return "cut"
	}
	return "unknown"
}

// Fault describes the corruption to apply to a single write.
type Fault struct {
	Kind      FaultKind
	Byte      int  // FaultFlip: byte offset within the block (mod BlockSize)
	Mask      byte // FaultFlip: XOR mask; zero masks are promoted to 1
	TornBytes int  // FaultTear: bytes of the new data that land (clamped to [1, BlockSize))
}

// FaultInjector is consulted by the controller on every durable write and at
// every named persist-ordering boundary. Implementations decide, typically by
// counting writes, when and how to corrupt the stream. A nil injector means
// fault-free operation.
//
// The injector lives in this package (rather than in internal/faultinject)
// so that mem has no upward dependencies; faultinject provides the concrete
// crash-plan implementation.
type FaultInjector interface {
	// OnWrite is called once per Write, before the data is committed to
	// the store, with the target address and access category. The
	// returned Fault is applied to this write.
	OnWrite(addr uint64, cat Category) Fault
	// OnStage is called at named persist-ordering boundaries (e.g.
	// "drain:blocks", "drain:meta-flush") so injectors can attribute
	// write steps to pipeline stages.
	OnStage(stage string)
}

// WriteRecorder is an optional extension a FaultInjector may implement to
// observe the content of every write that actually commits to the medium.
// OnWrite fires before the store is touched and never sees data; recorders
// (the litmus epoch recorder) need the committed bytes to replay orderings.
// It is called once per committed write with the post-fault content — for a
// dropped or cut write it is not called at all.
type WriteRecorder interface {
	OnWriteCommitted(addr uint64, cat Category, b Block)
}

// SetFaultInjector installs (or, with nil, removes) the fault injector
// consulted on every subsequent write. If the injector also implements
// WriteRecorder, the controller reports every committed write's content to
// it (the type assertion is cached here, off the per-write hot path).
func (c *Controller) SetFaultInjector(f FaultInjector) {
	c.fault = f
	c.recorder, _ = f.(WriteRecorder)
}

// MarkStage forwards a persist-ordering boundary label to the installed
// fault injector. Drain schemes and the metadata-flush path call it so that
// injected crash points can be attributed to pipeline stages. No-op without
// an injector.
func (c *Controller) MarkStage(stage string) {
	if c.fault != nil {
		c.fault.OnStage(stage)
	}
	if c.tl != nil {
		c.tl.SetStage(stage)
	}
}

// applyFault merges the faulted view of a write into the store. It returns
// false when the store must not be touched at all (drop/cut), and otherwise
// the possibly-corrupted block to commit.
func applyFault(f Fault, old, b Block) (Block, bool) {
	switch f.Kind {
	case FaultDrop, FaultCut:
		return Block{}, false
	case FaultTear:
		n := f.TornBytes
		if n < 1 {
			n = 1
		}
		if n >= BlockSize {
			n = BlockSize - 1
		}
		nb := old
		copy(nb[:n], b[:n])
		return nb, true
	case FaultFlip:
		mask := f.Mask
		if mask == 0 {
			mask = 1
		}
		nb := b
		nb[f.Byte%BlockSize] ^= mask
		return nb, true
	}
	return b, true
}
