package lpmap

import (
	"testing"

	"smartwatch/internal/packet"
	"smartwatch/internal/stats"
)

// collide is the hash key i is stored under. The map takes the hash from
// its caller, so the classes below force the collisions a real hash only
// produces by luck:
//
//	i%8 = 1     one hash for every key (equal hash, unequal key)
//	i%8 = 2, 6  sixteen neighbouring homes in the low 32 bits, different
//	            high bits (equal and adjacent homes at any table size)
//	i%8 = 3, 7  all-ones low bits but for a small offset (homes in the
//	            last slots of the array at any size: runs wrap to slot 0)
//	otherwise   the key's real hash
func collide(i int, real uint64) uint64 {
	switch i % 8 {
	case 1:
		return 0x9e3779b97f4a7c15
	case 2, 6:
		return uint64(i)<<32 | uint64(0x00c0ff00+(i>>3)%16*3)
	case 3, 7:
		return ^uint64(0) - uint64((i>>3)%5)
	}
	return real
}

// The program's two key types, an address and a flow key; key 0 is zero.
func addrKey(i int) (packet.Addr, uint64) {
	return packet.Addr(i), collide(i, packet.HashAddr(packet.Addr(i), 0))
}

func flowKey(i int) (packet.FlowKey, uint64) {
	k := packet.FlowKey{LoIP: packet.Addr(i), HiIP: packet.Addr(i >> 3), LoPort: uint16(i),
		HiPort: uint16(i) * 443, Proto: packet.Proto(i&1) * packet.ProtoTCP}
	return k, collide(i, k.Hash())
}

// apply runs one operation on m and on its model ref — 0 puts stamp under
// key i, 1 gets, 2 deletes, 3 resets for i entries — and compares what
// each returns. Every operation first reads key i back.
func apply[K comparable](t *testing.T, m *Map[K, int64], ref map[K]int64, key func(int) (K, uint64), op byte, i int, stamp int64) {
	t.Helper()
	k, h := key(i)
	want, ok := ref[k]
	if v := m.Get(h, k); (v != nil) != ok || ok && *v != want {
		t.Fatalf("op %d on key %d: Get %v, model %d (present %v)", op, i, v, want, ok)
	}
	size := len(m.slots)
	switch op {
	case 0: // a present key keeps its value and never grows the map; a new one starts at zero
		if v := m.Put(h, k); ok && (*v != want || len(m.slots) != size) || !ok && *v != 0 {
			t.Fatalf("put of key %d (present %v): value %d, model %d, slots %d -> %d", i, ok, *v, want, size, len(m.slots))
		} else {
			*v, ref[k] = stamp, stamp
		}
	case 2:
		if m.Del(h, k) != ok {
			t.Fatalf("del of key %d: reported %v, model present %v", i, !ok, ok)
		}
		delete(ref, k)
	case 3:
		fits := i <= m.limit
		m.Reset(i)
		clear(ref)
		if fits && len(m.slots) != size || m.limit < i {
			t.Fatalf("reset for %d: %d slots -> %d, limit %d", i, size, len(m.slots), m.limit)
		}
	}
	if m.Len() != len(ref) {
		t.Fatalf("op %d on key %d: map holds %d, model %d", op, i, m.Len(), len(ref))
	}
}

// check compares the whole map with the model: every key of the universe
// with its value, no live slot beyond the model, and All yielding exactly
// the model's entries.
func check[K comparable](t *testing.T, m *Map[K, int64], ref map[K]int64, key func(int) (K, uint64), universe int) {
	t.Helper()
	for i := 0; i < universe; i++ {
		apply(t, m, ref, key, 1, i, 0)
	}
	live := 0
	for i := range m.slots {
		live += int(m.slots[i].tag >> 63)
	}
	if size := len(m.slots); live != len(ref) || m.n > m.limit || size&(size-1) != 0 {
		t.Fatalf("%d live slots of %d (limit %d), model holds %d", live, size, m.limit, len(ref))
	}
	n := 0 // each live slot once: with live == len(ref), exactly the model
	for k, v := range m.All() {
		if want, ok := ref[k]; !ok || want != v {
			t.Fatalf("All yielded %v = %d; model has %d, %v", k, v, want, ok)
		}
		n++
	}
	if n != len(ref) {
		t.Fatalf("All yielded %d entries, model holds %d", n, len(ref))
	}
}

// TestMapMatchesGoMap holds both key types at both fills to a Go map:
// first the laid-out runs, then a seeded random walk over the collision
// classes. A nil map reads as empty.
func TestMapMatchesGoMap(t *testing.T) {
	var none *Map[packet.Addr, int64]
	for range none.All() {
		t.Error("a nil map yielded an entry")
	}
	if none.Get(7, 7) != nil || none.Len() != 0 || none.Del(7, 7) {
		t.Error("a nil map must read as empty")
	}
	for _, fill := range []Fill{Half, ThreeQuarters} {
		runs(t, fill, addrKey)
		runs(t, fill, flowKey)
		walk(t, New[packet.Addr, int64](fill, 0), addrKey)
		walk(t, New[packet.FlowKey, int64](fill, 0), flowKey)
	}
}

// walk puts and deletes at random, checking the whole map at every
// growth. It fills in waves, so the map crosses every growth threshold
// with long runs in place, then drains back through them. It starts from
// an empty map with no array, as the zero value is.
func walk[K comparable](t *testing.T, m *Map[K, int64], key func(int) (K, uint64)) {
	const universe = 3000 // ~2 400 live at the top of a fill wave
	steps, ref, rng := 400_000, map[K]int64{}, stats.NewRand(16)
	if testing.Short() {
		steps = 100_000
	}
	for step := range steps {
		op := byte(step / (steps / 8) % 2 * 2) // put in a fill wave, del in a drain
		if rng.IntN(4) == 0 {
			op = 2 - op
		}
		size := len(m.slots)
		if apply(t, m, ref, key, op, rng.IntN(universe), int64(step)+1); len(m.slots) != size || step%5000 == 0 {
			check(t, m, ref, key, universe)
		}
	}
	if len(m.slots) < 4096 { // nine doublings from 8 slots
		t.Fatalf("sequence too tame: %d slots at the end", len(m.slots))
	}
	apply(t, m, ref, key, 3, m.limit, 0) // keeps the array
	check(t, m, ref, key, universe)
}

// runs spells out what the random walk reaches only by chance: one probe
// run that wraps the end of the array, an entry deleted from its head,
// middle and tail, a foreign entry inside the run that must not be pulled
// in front of its own home, and growth in the middle of a run.
func runs[K comparable](t *testing.T, fill Fill, key func(int) (K, uint64)) {
	k := func(i int) K { k, _ := key(i + 1); return k }
	// Keys 0-5 share home slot 61 with unequal hashes, so their run wraps
	// to slot 2; key 6, homed at slot 1, is displaced to slot 3 behind it;
	// key 7 sits in its own home, slot 4.
	const size = 64
	hashes := [...]uint64{61, 61 + 1<<20, 61 + 2<<20, 61 + 3<<20, 61 + 4<<20, 61 + 5<<20, 1, 4}
	for _, victim := range []int{0, 3, 5} {
		m := New[K, int64](fill, fill.limit(size))
		for i, h := range hashes {
			*m.Put(h, k(i)) = int64(i)
		}
		if len(m.slots) != size || m.slots[0].tag == 0 || m.slots[3].key != k(6) || m.slots[4].key != k(7) || m.slots[5].tag != 0 {
			t.Fatalf("fill %d: run did not wrap as laid out", fill)
		}
		m.Del(hashes[victim], k(victim))
		for i, h := range hashes {
			if v := m.Get(h, k(i)); i == victim && v != nil || i != victim && (v == nil || *v != int64(i)) {
				t.Errorf("fill %d: after deleting run[%d]: entry %d = %v", fill, victim, i, v)
			}
		}
		// Key 6 moved back to slot 2, never in front of its home; the hole
		// ends at slot 3; key 7 stays at home.
		if m.slots[2].key != k(6) || m.slots[3].tag != 0 || m.slots[4].key != k(7) {
			t.Errorf("fill %d: after deleting run[%d]: slots 2-4 are not (key 6, free, key 7)", fill, victim)
		}
	}

	// Growth with a run in place: 32 (Half) or 48 (ThreeQuarters)
	// equal-home entries fill 64 slots, the next one doubles them.
	home7 := func(i int) (K, uint64) { return k(i), 7 + uint64(i)<<32 }
	m, ref, n := New[K, int64](fill, fill.limit(size)), map[K]int64{}, map[Fill]int{Half: 32, ThreeQuarters: 48}[fill]
	for i := 0; i <= n; i++ {
		if apply(t, m, ref, home7, 0, i, 1); len(m.slots) != size<<(i/n) {
			t.Fatalf("fill %d: %d slots after %d puts, want %d", fill, len(m.slots), i+1, size<<(i/n))
		}
	}
	check(t, m, ref, home7, n+1)
}

// TestMapAllocations holds what the switch and LowSlow rely on: growth
// allocates once per doubling (8, 16, …, 2 048 slots for 1 000 entries at
// Half), and neither Get, Put and Del at steady state, nor Reset on an
// array that fits, nor a range over All allocates.
func TestMapAllocations(t *testing.T) {
	const n = 1000
	var m Map[packet.FlowKey, int64]
	pass := func(reset bool) {
		if reset {
			m.Reset(m.limit) // as many entries as the array holds
		}
		for i := range n {
			k, h := flowKey(i)
			m.Del(h, k)
			*m.Put(h, k)++
			_ = m.Get(h, k)
		}
		for range m.All() {
		}
	}
	if a := testing.AllocsPerRun(1, func() { m = Map[packet.FlowKey, int64]{}; pass(false) }); a != 9 {
		t.Errorf("%v allocations growing a map to %d entries, want 9", a, n)
	}
	size := len(m.slots)
	if a := testing.AllocsPerRun(10, func() { pass(true); pass(false) }); a != 0 || len(m.slots) != size || m.Len() != n {
		t.Errorf("%v allocations per steady pass; %d slots -> %d, %d entries", a, size, len(m.slots), m.Len())
	}
}

// FuzzMapMatchesGoMap reads bytes as operations on an address-keyed and a
// flow-keyed map at once, each against a Go map. The first byte picks the
// fill; each later pair is an operation for apply and one of 256 keys in
// collide's classes. Each seed puts a dozen keys of one class and
// deletes the run's head, middle and tail; the final check reads it back.
func FuzzMapMatchesGoMap(f *testing.F) {
	const put, del = 0, 2
	for fill := range byte(2) {
		for _, class := range []byte{1, 2, 3, 6, 7} {
			s := []byte{fill}
			for m := range byte(12) {
				s = append(s, put, class+8*m)
			}
			f.Add(append(s, del, class, del, class+48, del, class+88))
		}
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		fill := Fill(ops[0] & 1)
		a, refA := New[packet.Addr, int64](fill, 0), map[packet.Addr]int64{}
		fk, refF := New[packet.FlowKey, int64](fill, 0), map[packet.FlowKey]int64{}
		for j := 1; j+1 < len(ops); j += 2 {
			apply(t, a, refA, addrKey, ops[j]%4, int(ops[j+1]), int64(j))
			apply(t, fk, refF, flowKey, ops[j]%4, int(ops[j+1]), int64(j))
		}
		check(t, a, refA, addrKey, 256)
		check(t, fk, refF, flowKey, 256)
	})
}
