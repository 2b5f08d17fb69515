package flowcache

import (
	"testing"

	"smartwatch/internal/packet"
	"smartwatch/internal/stats"
)

// view is row ri as it stands, without the latch: for tests that inspect
// or stage a row while nothing else runs. Edits to the word stay in the
// returned value.
func (c *Cache) view(ri uint64) row {
	var rw row
	c.locate(ri, &rw)
	rw.word = rw.hdr.word.Load()
	return rw
}

// setPin writes bucket i's pin bit.
func (r *row) setPin(i int, pinned bool) {
	pins, bit := r.hdr.pins.Load(), uint64(1)<<uint(i)
	if pinned {
		r.hdr.pins.Store(pins | bit)
	} else {
		r.hdr.pins.Store(pins &^ bit)
	}
}

// cleanRowRef is the Alg.-3 reorder as it was before the single-scratch
// rewrite: one grown slice per Lite slice plus a parked list. It is the
// oracle for eviction order (what reaches the rings, in which sequence)
// and final bucket placement.
func cleanRowRef(c *Cache, rw *row) int {
	b := c.cfg.LiteBuckets
	B := c.cfg.Buckets
	slices := B / b

	bins := make([][]refRecord, slices) // a record with its bits beside it (oracle_test.go)
	for i := 0; i < B; i++ {
		rec := rw.at(i)
		if !rw.holds(i) {
			continue
		}
		s := int((rec.Key.Hash() >> uint(c.cfg.RowBits)) % uint64(slices))
		bins[s] = append(bins[s], refRecord{Record: *rec, Pinned: rw.pinned(i)})
		rw.drop(i)
	}
	rw.word &^= parkedMask
	put := func(i int, e *refRecord) {
		rw.put(i, &e.Record)
		rw.setPin(i, e.Pinned)
	}

	evicted := 0
	var parked []refRecord
	for s, entries := range bins {
		for len(entries) > b {
			oldest := -1
			for i := range entries {
				if entries[i].Pinned {
					continue
				}
				if oldest == -1 || entries[i].LastTs < entries[oldest].LastTs {
					oldest = i
				}
			}
			if oldest == -1 {
				break
			}
			c.pushRing(&entries[oldest].Record, entries[oldest].Key.Hash())
			evicted++
			entries[oldest] = entries[len(entries)-1]
			entries = entries[:len(entries)-1]
		}
		if len(entries) > b {
			parked = append(parked, entries[b:]...)
			entries = entries[:b]
		}
		lo := s * b
		for i := range entries {
			put(lo+i, &entries[i])
		}
	}
	if len(parked) > 0 {
		j := 0
		for i := 0; i < B && j < len(parked); i++ {
			if !rw.holds(i) {
				put(i, &parked[j])
				j++
				rw.word += parkedOne
			}
		}
	}
	return evicted
}

// randomRow fills rw with a random population: random occupancy, keys
// whose hashes spread over the Lite slices (with LastTs ties, so the
// first-oldest rule is exercised) and a random share of pins, sometimes
// enough to overflow a slice with pinned records alone.
func randomRow(rng *stats.Rand, rw *row, B int) {
	pinShare := rng.IntN(4) // 0: none .. 3: three in four
	rw.word = 0
	rw.hdr.pins.Store(0)
	for i := range B {
		*rw.at(i) = Record{}
		if rng.IntN(8) == 0 {
			continue
		}
		h := rng.Uint64()
		rw.put(i, &Record{
			Key:    packet.FlowKey{LoIP: packet.Addr(h), HiIP: packet.Addr(h >> 32), LoPort: uint16(i)},
			Pkts:   uint64(i + 1),
			LastTs: int64(rng.IntN(6)),
		})
		rw.setPin(i, rng.IntN(4) < pinShare)
	}
	rw.word |= dirtyBit | uint64(rng.IntN(3))*parkedOne
}

// TestCleanRowMatchesReference: on random rows — sparse to full, unpinned
// to pin-saturated, at the shipped 12/2 geometry, a 16/4 one, a 24-bucket
// row that takes the heap fallback and whose Lite slices straddle the
// Primary and Eviction runs, and a row with no Eviction buffer — the
// single-scratch reorder leaves exactly the buckets, the parked count, the
// eviction count and the ring sequence the reference does.
func TestCleanRowMatchesReference(t *testing.T) {
	geoms := []struct{ buckets, primary, lite int }{{12, 8, 2}, {16, 12, 4}, {24, 16, 3}, {12, 8, 12}, {12, 8, 1}, {12, 12, 2}}
	for _, g := range geoms {
		cfg := DefaultConfig(4)
		cfg.Buckets, cfg.PrimaryBuckets, cfg.EvictionBuckets, cfg.LiteBuckets = g.buckets, g.primary, g.buckets-g.primary, g.lite
		if err := cfg.Validate(); err != nil {
			t.Fatal(err)
		}
		got, want := New(cfg), New(cfg)
		rng := stats.NewRand(uint64(g.buckets*100 + g.lite))
		var parkedRows, evictions int
		for iter := 0; iter < 2000; iter++ {
			ri := uint64(iter % len(got.rows))
			rwGot, rwWant := got.view(ri), want.view(ri)
			randomRow(rng, &rwGot, g.buckets)
			for i := range g.buckets {
				*rwWant.at(i) = *rwGot.at(i)
			}
			rwWant.word = rwGot.word
			rwWant.hdr.pins.Store(rwGot.hdr.pins.Load())

			nGot, nWant := got.cleanRow(&rwGot), cleanRowRef(want, &rwWant)
			if nGot != nWant || rwGot.parked() != rwWant.parked() {
				t.Fatalf("%+v iter %d: evicted %d parked %d, reference %d / %d", g, iter, nGot, rwGot.parked(), nWant, rwWant.parked())
			}
			for i := range g.buckets {
				a, b := *rwGot.at(i), *rwWant.at(i)
				if rwGot.holds(i) != rwWant.holds(i) || (rwGot.holds(i) && a != b) {
					t.Fatalf("%+v iter %d: bucket %d = %+v, reference %+v", g, iter, i, a, b)
				}
			}
			if pg, pw := rwGot.hdr.pins.Load(), rwWant.hdr.pins.Load(); pg != pw {
				t.Fatalf("%+v iter %d: pins %#x, reference %#x", g, iter, pg, pw)
			}
			ringGot, ringWant := drainAllRings(got), drainAllRings(want)
			if len(ringGot) != len(ringWant) {
				t.Fatalf("%+v iter %d: %d records reached the rings, reference %d", g, iter, len(ringGot), len(ringWant))
			}
			for i := range ringGot {
				if ringGot[i] != ringWant[i] {
					t.Fatalf("%+v iter %d: ring record %d = %+v, reference %+v", g, iter, i, ringGot[i], ringWant[i])
				}
			}
			evictions += nGot
			if rwGot.parked() > 0 {
				parkedRows++
			}
		}
		if g.lite < g.buckets && g.lite > 1 && (parkedRows == 0 || evictions == 0) {
			t.Errorf("%+v: %d rows parked, %d evictions: the rows must exercise both", g, parkedRows, evictions)
		}
	}
}

// TestCleanRowDoesNotAllocate: the lazy clean-up a General->Lite flip
// leaves behind runs on the packet path (one per dirty row touched), so at
// the shipped row width it must not touch the heap — including rows that
// evict and rows that park pinned overflow.
func TestCleanRowDoesNotAllocate(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.RingEntries = 1 << 16
	c := New(cfg)
	rng := stats.NewRand(3)
	rw := c.view(0)
	saved := make([]Record, cfg.Buckets)
	for trial := 0; trial < 50; trial++ {
		randomRow(rng, &rw, cfg.Buckets)
		for i := range saved {
			saved[i] = *rw.at(i)
		}
		word, pins := rw.word, rw.hdr.pins.Load()
		if avg := testing.AllocsPerRun(20, func() {
			for i := range saved {
				*rw.at(i) = saved[i]
			}
			rw.word = word
			rw.hdr.pins.Store(pins)
			c.cleanRow(&rw)
		}); avg != 0 {
			t.Fatalf("trial %d: cleanRow allocates %.1f times per call", trial, avg)
		}
		for _, r := range c.Rings() {
			r.Drain(nil, 1<<20) // keep the rings from filling
		}
	}
}
