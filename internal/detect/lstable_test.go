package detect

import (
	"testing"
	"unsafe"

	"smartwatch/internal/packet"
	"smartwatch/internal/stats"
)

// The slot is the table's memory and its cache footprint: 104 bytes grown
// at half load cost churn +13 % peak RSS in a prototype (DESIGN.md §17).
// Keep it at one line.
func TestLowSlowTableSlotSize(t *testing.T) {
	if got := unsafe.Sizeof(lsSlot{}); got > 64 {
		t.Fatalf("lsSlot is %d bytes, want <= 64 (tag 8 + key 16 + flow 40)", got)
	}
}

// tblKey builds the i-th test key and the hash the test stores it under.
// The table takes the hash from its caller, so the classes below force
// the collisions a real hash only produces by luck:
//
//	i%8 = 1     one hash for every key (equal hash, unequal key)
//	i%8 = 2, 6  sixteen neighbouring homes in the low 32 bits, different
//	            high bits (equal and adjacent homes at any table size)
//	i%8 = 3, 7  all-ones low bits but for a small offset (homes in the
//	            last slots of the array at any size: runs wrap to slot 0)
//	otherwise   the key's real hash
func tblKey(i int) (packet.FlowKey, uint64) {
	k := packet.FlowKey{
		LoIP: packet.Addr(i), HiIP: packet.Addr(0x0a000000 + i>>3),
		LoPort: uint16(i), HiPort: 443, Proto: packet.ProtoTCP,
	}
	switch i % 8 {
	case 1:
		return k, 0x9e3779b97f4a7c15
	case 2, 6:
		return k, uint64(i)<<32 | uint64(0x00c0ff00+(i>>3)%16*3)
	case 3, 7:
		return k, ^uint64(0) - uint64((i>>3)%5)
	}
	return k, k.Hash()
}

type tblModel map[packet.FlowKey]int64 // key -> stamp written into firstTs

// check compares the whole table with the model: every model key is found
// with its stamp, and no slot is live beyond them.
func (m tblModel) check(t *testing.T, tbl *lsTable, universe int, when string) {
	t.Helper()
	if tbl.len() != len(m) {
		t.Fatalf("%s: table holds %d flows, model %d", when, tbl.len(), len(m))
	}
	live := 0
	for i := range tbl.slots {
		if tbl.slots[i].tag != 0 {
			live++
		}
	}
	if live != len(m) {
		t.Fatalf("%s: %d live slots, model holds %d", when, live, len(m))
	}
	for i := 0; i < universe; i++ {
		k, h := tblKey(i)
		f := tbl.get(h, k)
		stamp, ok := m[k]
		switch {
		case ok && f == nil:
			t.Fatalf("%s: key %d lost", when, i)
		case !ok && f != nil:
			t.Fatalf("%s: key %d present, model says deleted", when, i)
		case ok && f.firstTs != stamp:
			t.Fatalf("%s: key %d carries stamp %d, want %d", when, i, f.firstTs, stamp)
		}
	}
}

// TestLowSlowTableMatchesMap drives lsTable and a Go map through the same
// seeded random put/get/del sequence. A pointer returned by get or put is
// used only before the next put or del, as in the detector.
func TestLowSlowTableMatchesMap(t *testing.T) {
	const universe = 3000 // ~2 400 live at the top of a fill wave: six doublings from 64 slots
	steps := 400_000
	if testing.Short() {
		steps = 100_000
	}
	rng := stats.NewRand(16)
	tbl := newLSTable()
	model := tblModel{}
	var puts, dels, grows int
	for step := 0; step < steps; step++ {
		i := rng.IntN(universe)
		k, h := tblKey(i)
		f := tbl.get(h, k)
		stamp, ok := model[k]
		if (f != nil) != ok {
			t.Fatalf("step %d: key %d present=%v, model %v", step, i, f != nil, ok)
		}
		if ok && f.firstTs != stamp {
			t.Fatalf("step %d: key %d carries stamp %d, want %d", step, i, f.firstTs, stamp)
		}
		// Fill in waves so the table crosses every growth threshold with
		// long runs in place, then drains back through them.
		fill := step/(steps/8)%2 == 0
		switch {
		case !ok && (fill || rng.IntN(4) == 0):
			before := len(tbl.slots)
			f = tbl.put(h, k)
			if *f != (lsFlow{}) {
				t.Fatalf("step %d: put returned a used flow %+v", step, *f)
			}
			f.firstTs = int64(step) + 1
			model[k] = f.firstTs
			puts++
			if len(tbl.slots) != before {
				grows++
				model.check(t, tbl, universe, "after growth")
			}
		case ok && (!fill || rng.IntN(4) == 0):
			tbl.del(h, k)
			delete(model, k)
			dels++
		case ok:
			// Write through the pointer, as OnPacket does.
			f.firstTs = -int64(step) - 1
			model[k] = f.firstTs
		}
		if step%5000 == 0 {
			model.check(t, tbl, universe, "periodic")
		}
	}
	model.check(t, tbl, universe, "final")
	if grows < 4 || puts < 10_000 || dels < 10_000 {
		t.Fatalf("sequence too tame: %d puts, %d dels, %d growths", puts, dels, grows)
	}
	// Deleting an absent key is a no-op.
	k, h := tblKey(universe + 1)
	tbl.del(h, k)
	model.check(t, tbl, universe, "after absent del")
}

// TestLowSlowTableRuns spells out the cases the random walk only reaches
// by chance: one probe run that wraps the end of the array, an entry
// deleted from its head, middle and tail, a foreign entry inside the run
// that must not be pulled in front of its own home, and growth in the
// middle of a run.
func TestLowSlowTableRuns(t *testing.T) {
	key := func(i int) packet.FlowKey { return packet.FlowKey{LoIP: packet.Addr(i + 1), Proto: packet.ProtoTCP} }
	const runLen = 6
	for _, victim := range []int{0, 3, runLen - 1} {
		tbl := newLSTable()
		home := uint64(len(tbl.slots) - 3) // run covers slots 61,62,63,0,1,2
		hashes := make([]uint64, 0, runLen+1)
		for i := 0; i < runLen; i++ {
			hashes = append(hashes, home+uint64(i)<<20) // equal home, unequal hash
			tbl.put(hashes[i], key(i)).firstTs = int64(i)
		}
		// A key whose home is slot 1, displaced to slot 3 behind the run,
		// and one sitting in its own home, slot 4, right behind that.
		hashes = append(hashes, 1)
		tbl.put(1, key(runLen)).firstTs = runLen
		tbl.put(4, key(runLen+1))
		if tbl.slots[0].tag == 0 || tbl.slots[3].key != key(runLen) || tbl.slots[4].key != key(runLen+1) || tbl.slots[5].tag != 0 {
			t.Fatalf("run did not wrap as laid out")
		}

		tbl.del(hashes[victim], key(victim))
		for i := 0; i <= runLen; i++ {
			f := tbl.get(hashes[i], key(i))
			if i == victim {
				if f != nil {
					t.Errorf("victim %d still present", victim)
				}
				continue
			}
			if f == nil || f.firstTs != int64(i) {
				t.Errorf("after deleting run[%d]: entry %d = %+v", victim, i, f)
			}
		}
		// The displaced key moved back by one but never in front of slot 1.
		if tbl.slots[2].tag == 0 || tbl.slots[2].key != key(runLen) {
			t.Errorf("after deleting run[%d]: home-1 key not at slot 2", victim)
		}
		// The hole ends up at slot 3; the key at home in slot 4 stays put.
		if tbl.slots[3].tag != 0 || tbl.slots[4].key != key(runLen+1) || tbl.get(4, key(runLen+1)) == nil {
			t.Errorf("after deleting run[%d]: slot 3 not freed or the slot-4 key moved", victim)
		}
	}

	// Growth with a run in place: 48 equal-home entries fill 3/4 of 64
	// slots, the 49th doubles the array.
	tbl := newLSTable()
	for i := 0; i < 49; i++ {
		tbl.put(7+uint64(i)<<32, key(i)).firstTs = int64(i)
	}
	if len(tbl.slots) != 128 {
		t.Fatalf("table has %d slots after 49 puts, want 128", len(tbl.slots))
	}
	for i := 0; i < 49; i++ {
		if f := tbl.get(7+uint64(i)<<32, key(i)); f == nil || f.firstTs != int64(i) {
			t.Fatalf("entry %d lost across growth: %+v", i, f)
		}
	}
}
