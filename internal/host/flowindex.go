package host

import "math/bits"

// flowIndex maps flow hashes to positions in a record slice its owner
// keeps: an open-addressed, linear-probed table of uint64 slots, a power
// of two long and at most half full. A slot holds the top 32 bits of the
// hash's remix above the position + 1 (0 = empty). The home slot is the
// remix's top bits too, so growing re-homes every slot from the slot alone
// and never reads a record. The zero value is an empty index.
type flowIndex struct {
	slots []uint64
	shift uint // 64 - log2(len(slots))
	n     int
}

// minIndexSlots is the smallest table an index allocates.
const minIndexSlots = 16

// remix is Fibonacci hashing: a bijection whose top bits depend on every
// bit of h. Neither end of the raw hash is free to home on. Records reach
// the host in FlowCache row order, which is low-bit order; and every flow
// of one cluster worker, or of one shard, shares the hash's top bits
// (DESIGN.md §12).
func remix(h uint64) uint64 { return h * 0x9e3779b97f4a7c15 }

// indexSlots is the slot count of an index sized to hold n positions
// without growing; it holds half as many.
func indexSlots(n int) int {
	size := minIndexSlots
	for size < 2*n {
		size *= 2
	}
	return size
}

// find returns the position whose record has hash h and satisfies same,
// or -1.
func (ix *flowIndex) find(h uint64, same func(pos int) bool) int {
	pos, _ := ix.probe(h, same)
	return pos
}

// probe walks h's probe path once. It returns the position whose record
// has hash h and satisfies same, or -1 and the empty slot that ended the
// walk, where insert puts h (-1 in a table not allocated yet).
func (ix *flowIndex) probe(h uint64, same func(pos int) bool) (pos, slot int) {
	if len(ix.slots) == 0 {
		return -1, -1
	}
	g := remix(h)
	mask := len(ix.slots) - 1
	for i := int(g >> ix.shift); ; i = (i + 1) & mask {
		s := ix.slots[i]
		if s == 0 {
			return -1, i
		}
		if s>>32 == g>>32 && same(int(uint32(s))-1) {
			return int(uint32(s)) - 1, i
		}
	}
}

// insert records pos under hash h, which must not be indexed yet, in
// slot: the empty slot probe returned for h, or -1 to find it here. A
// table that has to grow first finds it again.
func (ix *flowIndex) insert(h uint64, slot, pos int) {
	if 2*(ix.n+1) > len(ix.slots) {
		ix.resize(max(minIndexSlots, 2*len(ix.slots)))
		slot = -1
	}
	g := remix(h)
	if slot < 0 {
		slot = ix.free(g)
	}
	ix.slots[slot] = g>>32<<32 | uint64(pos+1)
	ix.n++
}

// reserve grows the table once so that it holds n positions without
// growing: the size the doublings of insert would reach at n, no larger.
func (ix *flowIndex) reserve(n int) {
	if size := indexSlots(n); size > len(ix.slots) {
		ix.resize(size)
	}
}

// free returns the first empty slot on the probe path of remixed hash g;
// a slot stands for its own g here.
func (ix *flowIndex) free(g uint64) int {
	mask := len(ix.slots) - 1
	i := int(g >> ix.shift)
	for ix.slots[i] != 0 {
		i = (i + 1) & mask
	}
	return i
}

// resize moves every slot into a fresh table of size slots.
func (ix *flowIndex) resize(size int) {
	old := ix.slots
	ix.slots = make([]uint64, size)
	ix.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for _, s := range old {
		if s != 0 {
			ix.slots[ix.free(s)] = s
		}
	}
}
