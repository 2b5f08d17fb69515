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
// (DESIGN.md §16).
func remix(h uint64) uint64 { return h * 0x9e3779b97f4a7c15 }

// newFlowIndex returns an index sized to hold n positions without growing
// (none allocated for n = 0: an idle interval's layer stays empty).
func newFlowIndex(n int) flowIndex {
	var ix flowIndex
	if n == 0 {
		return ix
	}
	size := minIndexSlots
	for size < 2*n {
		size *= 2
	}
	ix.resize(size)
	return ix
}

// find returns the position whose record has hash h and satisfies same,
// or -1.
func (ix *flowIndex) find(h uint64, same func(pos int) bool) int {
	if ix.n == 0 {
		return -1
	}
	g := remix(h)
	mask := len(ix.slots) - 1
	for i := int(g >> ix.shift); ; i = (i + 1) & mask {
		s := ix.slots[i]
		if s == 0 {
			return -1
		}
		if s>>32 == g>>32 && same(int(uint32(s))-1) {
			return int(uint32(s)) - 1
		}
	}
}

// add records pos under hash h, which must not be indexed yet.
func (ix *flowIndex) add(h uint64, pos int) {
	if 2*(ix.n+1) > len(ix.slots) {
		ix.resize(max(minIndexSlots, 2*len(ix.slots)))
	}
	g := remix(h)
	ix.slots[ix.free(g)] = g>>32<<32 | uint64(pos+1)
	ix.n++
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
