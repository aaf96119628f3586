package mem

// WriteHook sees every NVM write and every named persist-ordering boundary.
// The crash oracles install one: the fault injector (internal/faultinject)
// decides what a faulted write leaves on the medium, and the litmus epoch
// recorder (internal/litmus) logs the write stream by epoch. A nil hook
// means every write lands as issued.
type WriteHook interface {
	// OnWrite is called once per Write, after the access is timed,
	// counted and worn and before the medium is touched, with the target
	// address, the access category, the block's current content and the
	// issued block. It returns the block that lands, or false when
	// nothing does (the medium keeps old).
	OnWrite(addr uint64, cat Category, old, b Block) (Block, bool)
	// OnStage is called at named persist-ordering boundaries (e.g.
	// "drain:blocks", "drain:meta-flush").
	OnStage(stage string)
}

// SetWriteHook installs (or, with nil, removes) the hook consulted on every
// subsequent write.
func (c *Controller) SetWriteHook(h WriteHook) { c.hook = h }

// MarkStage forwards a persist-ordering boundary label to the installed
// write hook and the timeline. Drain schemes and the metadata-flush path
// call it so that crash points and epochs can be attributed to pipeline
// stages.
func (c *Controller) MarkStage(stage string) {
	if c.hook != nil {
		c.hook.OnStage(stage)
	}
	if c.tl != nil {
		c.tl.SetStage(stage)
	}
}
