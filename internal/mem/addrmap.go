package mem

// addrMap is an open-addressed hash table keyed by 64-byte-aligned block
// addresses. It replaces Go maps on the simulator's per-access hot path
// (the sparse block store and the wear counters): linear probing over a
// power-of-two slot array keeps a lookup to one multiply, one mask and a
// short scan, with no per-entry allocation and no iteration-order
// randomisation to pay for.
//
// Keys are stored tagged (addr|1) so the zero slot value means "empty";
// address zero is a legal block address and stays representable because
// aligned addresses have their low six bits clear. The table never deletes
// (the simulator only accumulates blocks and wear), which keeps probing
// tombstone-free.
type addrMap[V any] struct {
	keys []uint64 // addr|1 when occupied, 0 when empty
	vals []V
	n    int
}

// addrMapMinSlots is the initial slot count of a lazily grown table.
const addrMapMinSlots = 256

// hashAddr spreads a block address over the slot space: the address is
// reduced to its block number (low six bits are alignment zeros) and mixed
// with a 64-bit Fibonacci multiplier.
func hashAddr(addr uint64) uint64 {
	return (addr >> 6) * 0x9E3779B97F4A7C15
}

// find returns the slot holding addr, or the empty slot where a probe for it
// ends. The table must have slots, and the load limit keeps one empty.
func (m *addrMap[V]) find(addr uint64) uint64 {
	mask := uint64(len(m.keys) - 1)
	tagged := addr | 1
	i := hashAddr(addr) & mask
	for m.keys[i] != tagged && m.keys[i] != 0 {
		i = (i + 1) & mask
	}
	return i
}

// get returns the value for addr and whether it is present.
func (m *addrMap[V]) get(addr uint64) (V, bool) {
	if m.n > 0 {
		if i := m.find(addr); m.keys[i] != 0 {
			return m.vals[i], true
		}
	}
	var zero V
	return zero, false
}

// ref returns a pointer to the value slot for addr, inserting a zero value
// if absent. The pointer is only valid until the next ref call (growth
// rehashes into new arrays). Only an insertion past cap grows the table.
func (m *addrMap[V]) ref(addr uint64) *V {
	if len(m.keys) == 0 {
		m.keys = make([]uint64, addrMapMinSlots)
		m.vals = make([]V, addrMapMinSlots)
	}
	i := m.find(addr)
	if m.keys[i] == 0 {
		if m.n == m.cap() {
			m.grow()
			i = m.find(addr)
		}
		m.keys[i] = addr | 1
		m.n++
	}
	return &m.vals[i]
}

// cap returns how many entries the table holds before it next grows: the
// slot count at the 3/4 load limit.
func (m *addrMap[V]) cap() int { return len(m.keys) / 4 * 3 }

// reserve sizes the table for at least n entries at the target load factor,
// avoiding repeated doubling-rehash cycles (each copies the full 64-byte
// value array) when the eventual footprint is known up front.
func (m *addrMap[V]) reserve(n int) {
	slots := addrMapMinSlots
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
func (m *addrMap[V]) grow() {
	oldKeys, oldVals := m.keys, m.vals
	m.keys = make([]uint64, 2*len(oldKeys))
	m.vals = make([]V, 2*len(oldVals))
	m.rehash(oldKeys, oldVals)
}

// rehash reinserts every occupied slot of the old arrays.
func (m *addrMap[V]) rehash(oldKeys []uint64, oldVals []V) {
	for i, k := range oldKeys {
		if k != 0 {
			j := m.find(k &^ 1)
			m.keys[j] = k
			m.vals[j] = oldVals[i]
		}
	}
}

// len returns the number of entries.
func (m *addrMap[V]) len() int { return m.n }

// each calls fn for every (addr, value) entry in unspecified order. Callers
// needing determinism sort the results (AddressesInRange does).
func (m *addrMap[V]) each(fn func(addr uint64, v V)) {
	for i, k := range m.keys {
		if k != 0 {
			fn(k&^1, m.vals[i])
		}
	}
}

// clone returns a deep copy of the table.
func (m *addrMap[V]) clone() addrMap[V] {
	out := addrMap[V]{n: m.n}
	if m.keys != nil {
		out.keys = append([]uint64(nil), m.keys...)
		out.vals = append([]V(nil), m.vals...)
	}
	return out
}
