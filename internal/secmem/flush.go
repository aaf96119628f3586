package secmem

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/bmt"
	"repro/internal/cache"
	"repro/internal/cme"
	"repro/internal/mem"
	"repro/internal/sim"
)

// VaultLine is one metadata-cache line captured in the vault.
type VaultLine struct {
	Addr    uint64
	Content mem.Block
}

// VaultRecord is the persistent-register state left by a lazy metadata
// flush: the number of vaulted lines and the root MAC of the small tree
// protecting them. It survives the crash on-chip and anchors recovery.
type VaultRecord struct {
	Count int
	Root  cme.MAC
	// Parity records that the flush appended leaf-MAC and XOR-parity
	// blocks (Soteria-style resilience, cited §I/[38]): recovery can then
	// repair a single corrupted vault block per 8-block group instead of
	// refusing.
	Parity bool
}

// vaultPayloadBlocks returns how many payload blocks (lines + packed
// address blocks) a vault with count lines occupies.
func vaultPayloadBlocks(count int) int { return count + (count+7)/8 }

// VaultLayout describes where the optional resilience blocks sit: payload
// first, then ceil(T/8) leaf-MAC blocks, then ceil(T/8) parity blocks.
func vaultParityLayout(count int) (payload, groups int) {
	payload = vaultPayloadBlocks(count)
	groups = (payload + 7) / 8
	return payload, groups
}

// FlushMetadataCaches drains the security-metadata caches at the end of an
// EPD drain (§IV-B).
//
// Under the eager scheme the tree root register is always current, so dirty
// lines are simply written back to their home locations.
//
// Under the lazy scheme, in-place write-back would require propagating
// every update to the root; instead the dirty lines are written to a
// reserved vault region together with their addresses, protected by a small
// eagerly-built integrity tree whose root stays in a persistent on-chip
// register (the Anubis approach the paper adopts).
func (c *Controller) FlushMetadataCaches(now sim.Time) (VaultRecord, sim.Time) {
	if c.cfg.Scheme == EagerUpdate {
		return VaultRecord{}, c.flushInPlace(now)
	}
	return c.flushToVault(now)
}

// flushInPlace writes every dirty metadata line to its home address.
func (c *Controller) flushInPlace(now sim.Time) sim.Time {
	c.nvm.MarkStage("meta:in-place")
	t := now
	for _, line := range c.dirtyLinesOrdered() {
		done := c.nvm.Write(now, line.Addr, line.Content, mem.CatMetaFlush)
		t = sim.MaxTime(t, done)
		c.cleanLine(line.Addr)
	}
	return t
}

// flushToVault writes dirty lines and their addresses to the vault region
// and computes the protecting small-tree root. With Config.VaultParity it
// also appends per-block leaf MACs and XOR parity so recovery can repair a
// single corrupted block per group.
func (c *Controller) flushToVault(now sim.Time) (VaultRecord, sim.Time) {
	lines := c.dirtyLinesOrdered()
	need := uint64(vaultPayloadBlocks(len(lines)))
	if c.cfg.VaultParity {
		_, groups := vaultParityLayout(len(lines))
		need += 2 * uint64(groups)
	}
	if need > c.lay.VaultBlocks {
		panic(fmt.Sprintf("secmem: vault capacity %d too small for %d blocks", c.lay.VaultBlocks, need))
	}
	vaultContent := vaultPayload(lines)
	c.nvm.MarkStage("meta:vault-payload")
	t := now
	// Content blocks first, then packed address blocks. Note the cached
	// lines are NOT cleaned: their newest value is persistent in the vault,
	// not at their home address, so the volatile dirty state must stand
	// until power is lost (recovery re-installs it from the vault).
	for i, blk := range vaultContent {
		done := c.nvm.Write(now, c.lay.VaultAddr(uint64(i)), blk, mem.CatMetaFlush)
		t = sim.MaxTime(t, done)
	}
	var tMac sim.Time = t
	root := ComputeVaultRoot(c.eng, vaultContent, func() {
		tMac = c.issueMAC(tMac, MACMetaProtect)
	})
	t = sim.MaxTime(t, tMac)

	rec := VaultRecord{Count: len(lines), Root: root}
	if c.cfg.VaultParity {
		c.nvm.MarkStage("meta:vault-parity")
		payload, groups := vaultParityLayout(len(lines))
		// Leaf-MAC blocks: 8 per block, positions payload..payload+groups.
		for g := 0; g < groups; g++ {
			var macs []cme.MAC
			for i := g * 8; i < (g+1)*8 && i < payload; i++ {
				tMac = c.issueMAC(tMac, MACMetaProtect)
				macs = append(macs, c.eng.NodeMAC(1<<20, uint64(i), vaultContent[i]))
			}
			done := c.nvm.Write(now, c.lay.VaultAddr(uint64(payload+g)), cme.PackMACs(macs), mem.CatMetaFlush)
			t = sim.MaxTime(t, sim.MaxTime(done, tMac))
		}
		// Parity blocks: XOR of each group, positions payload+groups.. .
		for g := 0; g < groups; g++ {
			var p mem.Block
			for i := g * 8; i < (g+1)*8 && i < payload; i++ {
				for k := range p {
					p[k] ^= vaultContent[i][k]
				}
			}
			done := c.nvm.Write(now, c.lay.VaultAddr(uint64(payload+groups+g)), p, mem.CatMetaFlush)
			t = sim.MaxTime(t, done)
		}
		rec.Parity = true
	}
	return rec, t
}

// dirtyLinesOrdered snapshots every dirty metadata line across the three
// caches in a deterministic order (by address). A flush runs between
// operations, when no eviction cascade holds lines in the write-back
// buffer.
func (c *Controller) dirtyLinesOrdered() []VaultLine {
	if len(c.wb) != 0 {
		panic("secmem: metadata flush during an eviction cascade")
	}
	var out []VaultLine
	if len(c.pool) > 0 {
		out = make([]VaultLine, 0, len(c.pool)-1-len(c.free))
	}
	for _, ca := range []*cache.Cache{c.ctrCache, c.macCache, c.treeCache} {
		ca.EachDirty(func(addr uint64, owner int32) {
			out = append(out, VaultLine{Addr: addr, Content: c.pool[owner]})
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// cacheOfAddr returns the metadata cache responsible for a counter, tree or
// data-MAC address; any other address panics, naming the operation.
func (c *Controller) cacheOfAddr(addr uint64, op string) *cache.Cache {
	if level, _, isNode := c.lay.Coord(addr); isNode {
		return c.cacheFor(level)
	}
	if c.lay.RegionOf(addr) != bmt.RegionMAC {
		panic(fmt.Sprintf("secmem: %s unexpected address %#x", op, addr))
	}
	return c.macCache
}

// cleanLine clears the dirty state of a metadata line after it has been
// made persistent (in place or in the vault).
func (c *Controller) cleanLine(addr uint64) {
	ca := c.cacheOfAddr(addr, "cleaning")
	if way := ca.WayOf(addr); way >= 0 {
		if s := ca.Owner(way); s != 0 {
			c.releaseSlot(s)
			ca.SetOwner(way, 0)
		}
		ca.Clean(addr)
	}
}

// ReinstallMetadata restores vaulted lines into the metadata caches as
// dirty content, recreating the pre-crash logical state. It is the
// recovery-side counterpart of flushToVault; verification of the vault
// content happens in the recovery package before this is called.
func (c *Controller) ReinstallMetadata(lines []VaultLine) {
	for _, line := range lines {
		ca := c.cacheOfAddr(line.Addr, "reinstalling")
		if ca.Contains(line.Addr) {
			c.markDirty(ca, line.Addr, line.Content)
			continue
		}
		c.insertLine(0, ca, line.Addr, true, line.Content)
	}
}

// vaultPayload builds the serial vault payload of a lazy metadata flush:
// the dirty lines' content followed by their addresses packed eight per
// block. Pure: depends only on the ordered line snapshot.
func vaultPayload(lines []VaultLine) []mem.Block {
	addrBlocks := (len(lines) + 7) / 8
	out := make([]mem.Block, 0, len(lines)+addrBlocks)
	for _, line := range lines {
		out = append(out, line.Content)
	}
	for bi := 0; bi < addrBlocks; bi++ {
		var blk mem.Block
		for s := 0; s < 8 && bi*8+s < len(lines); s++ {
			binary.LittleEndian.PutUint64(blk[s*8:(s+1)*8], lines[bi*8+s].Addr)
		}
		out = append(out, blk)
	}
	return out
}

// ComputeVaultRoot builds the small eager integrity tree over the vault
// blocks (8-ary, as Table I's "Merkle Tree over secure cache") and returns
// its root MAC. onMAC is invoked once per MAC computation so callers can
// charge engines/counters.
func ComputeVaultRoot(eng *cme.Engine, blocks []mem.Block, onMAC func()) cme.MAC {
	if len(blocks) == 0 {
		return cme.MAC{}
	}
	// Leaf level: one MAC per vault block, bound to its position.
	level := make([]cme.MAC, len(blocks))
	for i, b := range blocks {
		onMAC()
		level[i] = eng.NodeMAC(1<<20, uint64(i), b)
	}
	tag := uint64(1)
	for len(level) > 1 {
		next := make([]cme.MAC, 0, (len(level)+7)/8)
		for i := 0; i < len(level); i += 8 {
			end := i + 8
			if end > len(level) {
				end = len(level)
			}
			onMAC()
			next = append(next, eng.MACOverMACs(tag<<32|uint64(i/8), level[i:end]))
		}
		level = next
		tag++
	}
	return level[0]
}
