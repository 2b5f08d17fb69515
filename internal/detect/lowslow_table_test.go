package detect

import (
	"slices"
	"testing"

	"smartwatch/internal/lpmap"
	"smartwatch/internal/packet"
	"smartwatch/internal/stats"
)

// The tests below drive LowSlow's flow table as NewLowSlow builds it: an
// lpmap.Map at three-quarters fill sized for lsFlowsMin flows (64 slots),
// holding lsFlow inline. The map's own model test covers it at both fills;
// these hold the detector's configuration of it to the same properties.

// newFlowTable returns the flow table of a fresh detector.
func newFlowTable() *lpmap.Map[packet.FlowKey, lsFlow] {
	return NewLowSlow(LowSlowConfig{}).flows
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
// with its stamp, and the table holds nothing beyond them.
func (m tblModel) check(t *testing.T, tbl *lpmap.Map[packet.FlowKey, lsFlow], universe int, when string) {
	t.Helper()
	if tbl.Len() != len(m) {
		t.Fatalf("%s: table holds %d flows, model %d", when, tbl.Len(), len(m))
	}
	live := 0
	for k, f := range tbl.All() {
		if stamp, ok := m[k]; !ok || f.firstTs != stamp {
			t.Fatalf("%s: table lists %v with stamp %d, model has %d (present %v)", when, k, f.firstTs, stamp, ok)
		}
		live++
	}
	if live != len(m) {
		t.Fatalf("%s: %d live entries listed, model holds %d", when, live, len(m))
	}
	for i := 0; i < universe; i++ {
		k, h := tblKey(i)
		f := tbl.Get(h, k)
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

// flowTableGrows reports whether a table that now holds n flows has just
// crossed a growth threshold: 64 slots at 3/4 fill hold 48, and every
// doubling doubles that.
func flowTableGrows(n int) bool {
	for limit := lsFlowsMin; limit < n; limit *= 2 {
		if n == limit+1 {
			return true
		}
	}
	return false
}

// TestLowSlowTableMatchesMap drives the flow table and a Go map through
// the same seeded random put/get/del sequence. A pointer returned by Get
// or Put is used only before the next Put or Del, as in the detector.
func TestLowSlowTableMatchesMap(t *testing.T) {
	const universe = 3000 // ~2 400 live at the top of a fill wave: six doublings from 64 slots
	steps := 400_000
	if testing.Short() {
		steps = 100_000
	}
	rng := stats.NewRand(16)
	tbl := newFlowTable()
	model := tblModel{}
	var puts, dels, grows, peak int
	for step := 0; step < steps; step++ {
		i := rng.IntN(universe)
		k, h := tblKey(i)
		f := tbl.Get(h, k)
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
			f = tbl.Put(h, k)
			if *f != (lsFlow{}) {
				t.Fatalf("step %d: put returned a used flow %+v", step, *f)
			}
			f.firstTs = int64(step) + 1
			model[k] = f.firstTs
			puts++
			if n := tbl.Len(); n > peak {
				peak = n
				if flowTableGrows(n) {
					grows++
					model.check(t, tbl, universe, "after growth")
				}
			}
		case ok && (!fill || rng.IntN(4) == 0):
			if !tbl.Del(h, k) {
				t.Fatalf("step %d: del of present key %d reported absent", step, i)
			}
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
	if tbl.Del(h, k) {
		t.Fatal("del of an absent key reported it present")
	}
	model.check(t, tbl, universe, "after absent del")
}

// TestLowSlowTableRuns spells out the cases the random walk only reaches
// by chance: one probe run that wraps the end of the array, an entry
// deleted from its head, middle and tail, a foreign entry inside the run
// that must not be pulled in front of its own home, and growth in the
// middle of a run. Slot order is read through All, which walks the array.
func TestLowSlowTableRuns(t *testing.T) {
	key := func(i int) packet.FlowKey { return packet.FlowKey{LoIP: packet.Addr(i + 1), Proto: packet.ProtoTCP} }
	order := func(tbl *lpmap.Map[packet.FlowKey, lsFlow]) []int64 {
		var out []int64
		for _, f := range tbl.All() {
			out = append(out, f.firstTs)
		}
		return out
	}
	const runLen = 6
	for _, victim := range []int{0, 3, runLen - 1} {
		tbl := newFlowTable()
		// All-ones low bits but for 2: home is the third slot from the
		// end at any size, so the run covers slots 61,62,63,0,1,2 of 64.
		home := ^uint64(0) - 2
		hashes := make([]uint64, 0, runLen+2)
		for i := 0; i < runLen; i++ {
			hashes = append(hashes, home^uint64(i)<<40) // equal home, unequal hash
			tbl.Put(hashes[i], key(i)).firstTs = int64(i)
		}
		// A key whose home is slot 1, displaced to slot 3 behind the run,
		// and one sitting in its own home, slot 4, right behind that.
		hashes = append(hashes, 1, 4)
		tbl.Put(1, key(runLen)).firstTs = runLen
		tbl.Put(4, key(runLen+1)).firstTs = runLen + 1
		if got, want := order(tbl), []int64{3, 4, 5, 6, 7, 0, 1, 2}; !slices.Equal(got, want) {
			t.Fatalf("run did not wrap as laid out: slot order %v, want %v", got, want)
		}

		if !tbl.Del(hashes[victim], key(victim)) {
			t.Fatalf("victim %d not found", victim)
		}
		for i := 0; i <= runLen+1; i++ {
			f := tbl.Get(hashes[i], key(i))
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
		// The run's survivors close up from slot 61, the displaced key
		// moves back by one but never in front of slot 1, and the key at
		// home in slot 4 stays put.
		var run []int64
		for i := 0; i < runLen; i++ {
			if i != victim {
				run = append(run, int64(i))
			}
		}
		want := append(append(slices.Clone(run[3:]), runLen, runLen+1), run[:3]...)
		if got := order(tbl); !slices.Equal(got, want) {
			t.Errorf("after deleting run[%d]: slot order %v, want %v", victim, got, want)
		}
	}

	// Growth with a run in place: 48 equal-home entries fill 3/4 of 64
	// slots, the 49th doubles the array.
	tbl := newFlowTable()
	for i := 0; i < 49; i++ {
		tbl.Put(7+uint64(i)<<32, key(i)).firstTs = int64(i)
	}
	if tbl.Len() != 49 {
		t.Fatalf("table holds %d flows after 49 puts", tbl.Len())
	}
	for i := 0; i < 49; i++ {
		if f := tbl.Get(7+uint64(i)<<32, key(i)); f == nil || f.firstTs != int64(i) {
			t.Fatalf("after growth: entry %d = %+v", i, f)
		}
	}
}
