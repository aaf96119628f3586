package secmem

import (
	"repro/internal/cme"
	"repro/internal/mem"
	"repro/internal/sim"
)

// WriteBlock performs a secure write of one plaintext block to its home
// address: fetch + verify the counter block, advance the counter (handling
// minor-counter overflow with a region re-encryption), update the tree
// (eagerly or lazily), update the data MAC, encrypt and write the
// ciphertext. This is the run-time write path and also the per-line path
// the baseline secure EPD drains use (Fig. 8 part B).
func (c *Controller) WriteBlock(now sim.Time, addr uint64, plain mem.Block) (sim.Time, error) {
	ctrAddr := c.lay.CounterBlockAddr(addr)
	ctrIndex := c.lay.CounterBlockIndex(addr)
	raw, t, err := c.ensureNode(now, 0, ctrIndex)
	if err != nil {
		return t, err
	}
	cb := cme.DecodeCounterBlock(raw)
	old := cb
	slot := cme.CounterIndex(addr)
	overflowed := cb.Increment(slot)
	newRaw := cb.Encode()
	c.markDirty(c.ctrCache, ctrAddr, newRaw)

	if n := c.cfg.OsirisStopLoss; n > 0 && (overflowed || cb.Counter(slot)%uint64(n) == 0) {
		// Osiris stop-loss: persist the counter block so the NVM copy
		// never lags the truth by more than n increments (overflows always
		// persist, since they re-base every counter in the region). The
		// line stays dirty-tracked so the lazy tree-update invariant
		// (parent entry matches persisted child at eviction time) is
		// preserved; the extra write is the price of vault-free
		// recoverability.
		t = c.nvm.Write(t, ctrAddr, newRaw, mem.CatCounter)
		c.osirisPersists++
	}

	if overflowed {
		if t, err = c.reencryptRegion(t, addr, &old, &cb); err != nil {
			return t, err
		}
	}

	if c.cfg.Scheme == EagerUpdate {
		if t, err = c.propagateEager(t, 0, ctrIndex, newRaw); err != nil {
			return t, err
		}
	}

	// Encrypt: the OTP depends on the (new) counter.
	counter := cb.Counter(slot)
	tAES := c.issueAES(t)
	ct := c.eng.Encrypt(addr, counter, plain)

	// Data MAC over (address, counter, ciphertext), stored in its MAC block.
	macBlockAddr := c.lay.MACBlockAddr(addr)
	macBlk, t2 := c.ensureMACBlock(t, macBlockAddr)
	tMAC := c.issueMAC(sim.MaxTime(tAES, t2), MACData)
	setEntry(&macBlk, cme.MACSlot(addr), c.eng.DataMAC(addr, counter, ct))
	c.markDirty(c.macCache, macBlockAddr, macBlk)

	if c.cfg.OsirisStopLoss > 0 {
		// Osiris co-locates the MAC with the data (ECC bits), so the MAC
		// is durable with every data write; model that as a write-through
		// of the MAC block.
		c.nvm.Write(tMAC, macBlockAddr, macBlk, mem.CatMAC)
	}

	done := c.nvm.Write(sim.MaxTime(tAES, tMAC), addr, ct, mem.CatData)
	return done, nil
}

// ReadBlock performs a secure read: fetch + verify the counter, fetch the
// MAC block, read and decrypt the ciphertext, and verify the data MAC.
func (c *Controller) ReadBlock(now sim.Time, addr uint64) (mem.Block, sim.Time, error) {
	ctrIndex := c.lay.CounterBlockIndex(addr)
	raw, t, err := c.ensureNode(now, 0, ctrIndex)
	if err != nil {
		return mem.Block{}, t, err
	}
	cb := cme.DecodeCounterBlock(raw)
	slot := cme.CounterIndex(addr)
	counter := cb.Counter(slot)

	macBlockAddr := c.lay.MACBlockAddr(addr)
	macBlk, t := c.ensureMACBlock(t, macBlockAddr)
	stored := entryOf(macBlk, cme.MACSlot(addr))

	ct, t := c.nvm.Read(t, addr, mem.CatData)

	if counter == 0 && stored == zeroMAC && ct.IsZero() {
		// Never-written block: defined to read as zero plaintext.
		return mem.Block{}, t, nil
	}

	tAES := c.issueAES(t)
	t = c.issueMAC(t, MACVerify)
	if c.eng.DataMAC(addr, counter, ct) != stored {
		return mem.Block{}, t, &IntegrityError{
			Kind: KindTamper, Addr: addr,
			Detail: "data MAC mismatch",
		}
	}
	plain := c.eng.Decrypt(addr, counter, ct)
	return plain, sim.MaxTime(t, tAES), nil
}

// ProbeBlock is a functional ReadBlock: it runs the same read, verification
// walk and cache fills, so every state change ReadBlock makes — cache fills
// and evictions, dirty write-backs (with their wear, fault-injector and
// write-recorder hooks), parent-entry updates — happens here too, and the
// same typed IntegrityError comes back. What it skips is time: no bank, bus
// or crypto-engine reservation, no access, MAC, AES or level-fetch counter,
// and no metrics, time-series, timeline or observer call. The crash oracles
// use it for their probe sweeps, whose simulated time nothing reads.
func (c *Controller) ProbeBlock(addr uint64) (b mem.Block, err error) {
	c.functional = true
	defer func() { c.functional = false }()
	c.nvm.Functionally(func() { b, _, err = c.ReadBlock(0, addr) })
	return b, err
}

// reencryptRegion handles a minor-counter overflow: every block sharing the
// major counter is read, decrypted with its old counter, re-encrypted with
// its new counter, its MAC recomputed, and written back (§II-B). The
// triggering block itself is skipped — its new ciphertext is written by the
// caller.
func (c *Controller) reencryptRegion(now sim.Time, triggerAddr uint64, old, upd *cme.CounterBlock) (sim.Time, error) {
	base := triggerAddr - triggerAddr%cme.CounterRegionBytes
	trigger := cme.CounterIndex(triggerAddr)
	t := now
	for i := 0; i < cme.BlocksPerCounter; i++ {
		if i == trigger {
			continue
		}
		oldCtr := old.Counter(i)
		if oldCtr == 0 {
			continue // never written; nothing to re-encrypt
		}
		blockAddr := base + uint64(i)*mem.BlockSize
		ct, tt := c.nvm.Read(t, blockAddr, mem.CatData)
		tt = c.issueAES(tt)
		plain := c.eng.Decrypt(blockAddr, oldCtr, ct)
		newCtr := upd.Counter(i)
		tt = c.issueAES(tt)
		nct := c.eng.Encrypt(blockAddr, newCtr, plain)
		// Refresh the data MAC for the new counter.
		macBlockAddr := c.lay.MACBlockAddr(blockAddr)
		macBlk, tt := c.ensureMACBlock(tt, macBlockAddr)
		tt = c.issueMAC(tt, MACData)
		setEntry(&macBlk, cme.MACSlot(blockAddr), c.eng.DataMAC(blockAddr, newCtr, nct))
		c.markDirty(c.macCache, macBlockAddr, macBlk)
		if c.cfg.OsirisStopLoss > 0 {
			c.nvm.Write(tt, macBlockAddr, macBlk, mem.CatMAC)
		}
		t = c.nvm.Write(tt, blockAddr, nct, mem.CatData)
	}
	return t, nil
}
