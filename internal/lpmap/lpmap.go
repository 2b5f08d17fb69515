// Package lpmap is the exact-match hash table shared by the switch's
// whitelist, blacklist and steer tables and LowSlow's flow table: open
// addressing with linear probing over a power-of-two array, the key and
// value stored inline in the slot, probed with a hash the caller already
// has (DESIGN.md §8.3). A probe is an index computed from that hash and,
// nearly always, one slot.
//
// Deletion shifts the rest of the probe run back over the hole, so no slot
// is ever a tombstone and a miss stops at the first free slot for the
// map's whole life. The array doubles before an insert would take it past
// its Fill.
package lpmap

import "iter"

// Fill is a map's maximum load: the share of its slots that may be live.
// It is fixed when the map is built.
type Fill uint8

// The two fills in use.
const (
	// Half keeps probe runs short; it is the zero value's.
	Half Fill = iota
	// ThreeQuarters is for a map whose slots are large: LowSlow's 64-byte
	// slots at half load cost churn peak RSS (DESIGN.md §17).
	ThreeQuarters
)

// limit is the number of live entries an array of size slots may hold.
func (f Fill) limit(size int) int {
	if f == ThreeQuarters {
		return size - size/4
	}
	return size / 2
}

// minSlots is the smallest array a map allocates.
const minSlots = 8

// Map maps K to V. The zero value is an empty map at Half; reads on a nil
// *Map answer as an empty map. Values are addressed in place: a pointer
// Get or Put returns is valid until the next Put, Del or Reset.
type Map[K comparable, V any] struct {
	slots []Slot[K, V]
	n     int // live entries
	limit int // fill.limit(len(slots)): a Put of a new key at n == limit grows
	fill  Fill
}

// Slot is one entry of a Map. tag is the entry's hash with the live bit
// set, so a free slot — all zero — is told from a live one by the word a
// probe compares anyway. Its size is the map's memory per slot.
type Slot[K comparable, V any] struct {
	tag uint64
	key K
	val V
}

// live marks an occupied slot's tag. It costs the comparison one bit of
// the hash; the key comparison behind it is what decides.
const live = 1 << 63

// New returns an empty map at fill with an array that holds n entries.
func New[K comparable, V any](fill Fill, n int) *Map[K, V] {
	m := &Map[K, V]{fill: fill}
	m.Reset(n)
	return m
}

// Len is the number of entries.
func (m *Map[K, V]) Len() int {
	if m == nil {
		return 0
	}
	return m.n
}

// Get returns the value stored under k, whose hash is h, or nil.
func (m *Map[K, V]) Get(h uint64, k K) *V {
	if m == nil || m.n == 0 {
		return nil
	}
	tag, mask := h|live, uint64(len(m.slots)-1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := &m.slots[i]
		if s.tag == tag && s.key == k {
			return &s.val
		}
		if s.tag == 0 {
			return nil
		}
	}
}

// Put returns the value stored under k, whose hash is h, first storing a
// zero value there when k is absent.
func (m *Map[K, V]) Put(h uint64, k K) *V {
	if m.n >= m.limit {
		if v := m.Get(h, k); v != nil {
			return v
		}
		m.resize(max(minSlots, 2*len(m.slots)))
	}
	tag, mask := h|live, uint64(len(m.slots)-1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := &m.slots[i]
		if s.tag == tag && s.key == k {
			return &s.val
		}
		if s.tag == 0 {
			s.tag, s.key = tag, k
			m.n++
			return &s.val
		}
	}
}

// Del removes k, whose hash is h, and reports whether it was present.
// Every later entry of the probe run whose home lies at or before the
// hole moves back into it.
func (m *Map[K, V]) Del(h uint64, k K) bool {
	if m == nil || m.n == 0 {
		return false
	}
	tag, mask := h|live, uint64(len(m.slots)-1)
	i := h & mask
	for {
		s := &m.slots[i]
		if s.tag == tag && s.key == k {
			break
		}
		if s.tag == 0 {
			return false
		}
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; m.slots[j].tag != 0; j = (j + 1) & mask {
		// The entry at j may fill the hole at i iff i is still on its
		// probe path: its distance from home reaches back at least to i.
		if (j-m.slots[j].tag)&mask >= (j-i)&mask {
			m.slots[i], i = m.slots[j], j
		}
	}
	m.slots[i] = Slot[K, V]{}
	m.n--
	return true
}

// Reset empties the map for n entries. It keeps its array when n entries
// fit there, and otherwise replaces it with the smallest one they fit.
func (m *Map[K, V]) Reset(n int) {
	m.n = 0
	if n <= m.limit {
		clear(m.slots)
		return
	}
	size := minSlots
	for m.fill.limit(size) < n {
		size *= 2
	}
	m.slots, m.limit = make([]Slot[K, V], size), m.fill.limit(size)
}

// resize moves the entries into a new array of size slots.
func (m *Map[K, V]) resize(size int) {
	old := m.slots
	m.slots, m.limit = make([]Slot[K, V], size), m.fill.limit(size)
	mask := uint64(size - 1)
	for i := range old {
		if s := &old[i]; s.tag != 0 {
			j := s.tag & mask
			for m.slots[j].tag != 0 {
				j = (j + 1) & mask
			}
			m.slots[j] = *s
		}
	}
}

// All yields the entries in slot order, which follows the hashes and the
// map's history: a caller that needs an order sorts what it reads.
func (m *Map[K, V]) All() iter.Seq2[K, V] {
	return func(yield func(K, V) bool) {
		if m == nil {
			return
		}
		for i := range m.slots {
			if s := &m.slots[i]; s.tag != 0 && !yield(s.key, s.val) {
				return
			}
		}
	}
}
