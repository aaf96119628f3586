// Package addrmap is the simulator's one table keyed by 64-byte-aligned
// block addresses. It replaces Go maps on the hot paths (the NVM store, the
// cache hierarchy's dirty-line index, the secure controller's dirty metadata
// lines and the crash oracle's per-cell address sets): linear probing over a
// power-of-two slot array keeps a lookup to one multiply, one mask and a
// short scan, with no per-entry allocation and no iteration-order
// randomisation to pay for.
//
// Keys are stored tagged (addr|1) so the zero slot value means "empty";
// address zero is a legal block address and stays representable because
// aligned addresses have their low six bits clear. Delete uses backward-shift
// deletion, so probing stays tombstone-free whatever the mix of inserts and
// deletes; a table that never deletes pays nothing for it.
package addrmap

// Map is an open-addressed hash table from block address to V. The zero
// value is an empty table; it allocates on first insertion and grows on
// demand, so a table that is never written costs nothing.
type Map[V any] struct {
	keys []uint64 // addr|1 when occupied, 0 when empty
	vals []V      // zero in every empty slot: Ref inserts by setting the key
	n    int
}

// minSlots is the initial slot count of a lazily grown table.
const minSlots = 64

// hash spreads a block address over the slot space: the address is reduced
// to its block number (low six bits are alignment zeros) and mixed with a
// 64-bit Fibonacci multiplier.
func hash(addr uint64) uint64 {
	return (addr >> 6) * 0x9E3779B97F4A7C15
}

// find returns the slot holding addr, or the empty slot where a probe for it
// ends. The table must have slots, and the load limit keeps one empty.
func (m *Map[V]) find(addr uint64) uint64 {
	mask := uint64(len(m.keys) - 1)
	tagged := addr | 1
	i := hash(addr) & mask
	for m.keys[i] != tagged && m.keys[i] != 0 {
		i = (i + 1) & mask
	}
	return i
}

// Get returns the value for addr and whether it is present.
func (m *Map[V]) Get(addr uint64) (V, bool) {
	if m.n > 0 {
		if i := m.find(addr); m.keys[i] != 0 {
			return m.vals[i], true
		}
	}
	var zero V
	return zero, false
}

// Has reports whether addr is present.
func (m *Map[V]) Has(addr uint64) bool {
	return m.n > 0 && m.keys[m.find(addr)] != 0
}

// Ref returns a pointer to the value slot for addr, inserting a zero value
// if absent. The pointer is only valid until the next Ref or Delete (growth
// rehashes into new arrays; deletion shifts entries). Only an insertion past
// Cap grows the table.
func (m *Map[V]) Ref(addr uint64) *V {
	if len(m.keys) == 0 {
		m.keys = make([]uint64, minSlots)
		m.vals = make([]V, minSlots)
	}
	i := m.find(addr)
	if m.keys[i] == 0 {
		if m.n == m.Cap() {
			m.grow()
			i = m.find(addr)
		}
		m.keys[i] = addr | 1
		m.n++
	}
	return &m.vals[i]
}

// Delete removes addr and reports whether it was present. The entries after
// it in its probe run are shifted back into the hole, so every remaining
// key stays reachable from its home slot without tombstones.
func (m *Map[V]) Delete(addr uint64) bool {
	if m.n == 0 {
		return false
	}
	i := m.find(addr)
	if m.keys[i] == 0 {
		return false
	}
	mask := uint64(len(m.keys) - 1)
	var zero V
	for j := (i + 1) & mask; m.keys[j] != 0; j = (j + 1) & mask {
		// The entry at j may fill the hole at i only if its home slot does
		// not lie cyclically in (i, j]: then its probe from home passes i.
		home := hash(m.keys[j]&^1) & mask
		if (j-home)&mask >= (j-i)&mask {
			m.keys[i], m.vals[i] = m.keys[j], m.vals[j]
			i = j
		}
	}
	m.keys[i], m.vals[i] = 0, zero
	m.n--
	return true
}

// Reset empties the table and releases its arrays, so a table that once
// held a large working set does not keep it live; the next insertion starts
// again from the minimum size.
func (m *Map[V]) Reset() { *m = Map[V]{} }

// Cap returns how many entries the table holds before it next grows: the
// slot count at the 3/4 load limit.
func (m *Map[V]) Cap() int { return len(m.keys) / 4 * 3 }

// Reserve sizes the table for at least n entries at the load limit, so a
// burst of known footprint does not pay repeated doubling rehashes (each
// copies the whole value array). It never shrinks.
func (m *Map[V]) Reserve(n int) {
	slots := minSlots
	for slots*3 < n*4 {
		slots *= 2
	}
	if slots <= len(m.keys) {
		return
	}
	if m.n == 0 {
		m.keys = make([]uint64, slots)
		m.vals = make([]V, slots)
		return
	}
	oldKeys, oldVals := m.keys, m.vals
	m.keys = make([]uint64, slots)
	m.vals = make([]V, slots)
	m.rehash(oldKeys, oldVals)
}

// grow doubles the slot array and rehashes every occupied slot.
func (m *Map[V]) grow() {
	oldKeys, oldVals := m.keys, m.vals
	m.keys = make([]uint64, 2*len(oldKeys))
	m.vals = make([]V, 2*len(oldVals))
	m.rehash(oldKeys, oldVals)
}

// rehash reinserts every occupied slot of the old arrays.
func (m *Map[V]) rehash(oldKeys []uint64, oldVals []V) {
	for i, k := range oldKeys {
		if k != 0 {
			j := m.find(k &^ 1)
			m.keys[j] = k
			m.vals[j] = oldVals[i]
		}
	}
}

// Len returns the number of entries.
func (m *Map[V]) Len() int { return m.n }

// Each calls fn for every (addr, value) entry in slot order, which depends
// on the table's history. Callers needing a deterministic order sort the
// results. fn must not insert or delete.
func (m *Map[V]) Each(fn func(addr uint64, v V)) {
	for i, k := range m.keys {
		if k != 0 {
			fn(k&^1, m.vals[i])
		}
	}
}

// Clone returns a deep copy of the table (values are copied as Go values).
func (m *Map[V]) Clone() Map[V] {
	out := Map[V]{n: m.n}
	if m.keys != nil {
		out.keys = append([]uint64(nil), m.keys...)
		out.vals = append([]V(nil), m.vals...)
	}
	return out
}

// CopyFrom makes m a slot-for-slot copy of src: the same entries in the same
// slots, so Each visits them in src's order and later insertions land where
// they would in src. When m's arrays already have src's length they are
// overwritten in place, so a table recycled against one source allocates
// nothing; otherwise m takes a fresh Clone.
func (m *Map[V]) CopyFrom(src *Map[V]) {
	if len(m.keys) != len(src.keys) {
		*m = src.Clone()
		return
	}
	copy(m.keys, src.keys)
	copy(m.vals, src.vals)
	m.n = src.n
}
