package detect

import "smartwatch/internal/packet"

// lsTable is LowSlow's flow table: open addressing with linear probing,
// lsFlow stored inline in the slot, probed with the flow hash the platform
// already computed for the FlowCache (snic.Ctx.FlowHash). A tracked packet costs
// one index computation and normally one cache line, where the Go map it
// replaced cost a hash of the 13-byte key, a control-word group, a key
// slot and the *lsFlow heap object behind it (DESIGN.md §11.2).
//
// It is an exact map: the slot holds the full key, deletion shifts the
// rest of the probe run back (no tombstones, so a miss stops at the first
// free slot for the table's whole life) and the array doubles at 3/4
// load. Nothing iterates it except its own growth.
type lsTable struct {
	slots []lsSlot
	mask  uint64
	n     int
}

// lsSlot is one table entry: 8 + 16 + 40 = 64 bytes, one cache line. tag
// is the flow hash with lsLive set, so a free slot — all zero — is told
// from a live one by the word a probe compares anyway.
type lsSlot struct {
	tag uint64
	key packet.FlowKey
	f   lsFlow
}

// lsLive marks an occupied slot's tag. It costs the comparison one bit of
// the hash; the key comparison behind it is what decides.
const lsLive = 1 << 63

// lsTableMinSlots is the initial array (4 KB): small, because every
// experiment run builds its own detector and most track a few flows.
const lsTableMinSlots = 64

func newLSTable() *lsTable {
	return &lsTable{slots: make([]lsSlot, lsTableMinSlots), mask: lsTableMinSlots - 1}
}

func (t *lsTable) len() int { return t.n }

// get returns the flow stored under (hash, k), or nil. The pointer is
// into the slot array: it is valid until the next put or del.
func (t *lsTable) get(hash uint64, k packet.FlowKey) *lsFlow {
	tag := hash | lsLive
	for i := hash & t.mask; ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		if s.tag == tag && s.key == k {
			return &s.f
		}
		if s.tag == 0 {
			return nil
		}
	}
}

// put stores a zeroed flow under (hash, k), which must not be present,
// and returns it. It may grow the table first.
func (t *lsTable) put(hash uint64, k packet.FlowKey) *lsFlow {
	if 4*(t.n+1) > 3*len(t.slots) {
		t.grow()
	}
	t.n++
	return t.place(hash|lsLive, k)
}

// place claims the first free slot of (tag, k)'s probe run.
func (t *lsTable) place(tag uint64, k packet.FlowKey) *lsFlow {
	i := tag & t.mask
	for t.slots[i].tag != 0 {
		i = (i + 1) & t.mask
	}
	s := &t.slots[i]
	s.tag, s.key = tag, k
	return &s.f
}

func (t *lsTable) grow() {
	old := t.slots
	t.slots = make([]lsSlot, 2*len(old))
	t.mask = uint64(len(t.slots) - 1)
	for i := range old {
		if s := &old[i]; s.tag != 0 {
			*t.place(s.tag, s.key) = s.f
		}
	}
}

// del removes (hash, k) if present. Every later entry of the probe run
// whose home slot lies at or before the hole moves back into it, so no
// lookup ever has to step over a deleted slot.
func (t *lsTable) del(hash uint64, k packet.FlowKey) {
	tag := hash | lsLive
	i := hash & t.mask
	for {
		s := &t.slots[i]
		if s.tag == tag && s.key == k {
			break
		}
		if s.tag == 0 {
			return
		}
		i = (i + 1) & t.mask
	}
	for j := (i + 1) & t.mask; t.slots[j].tag != 0; j = (j + 1) & t.mask {
		// The entry at j may fill the hole at i iff i is still on its
		// probe path: its distance from home reaches back at least to i.
		if (j-t.slots[j].tag)&t.mask >= (j-i)&t.mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = lsSlot{}
	t.n--
}
