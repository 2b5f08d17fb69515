package flowcache

import (
	"testing"

	"smartwatch/internal/packet"
	"smartwatch/internal/stats"
)

// cleanRowRef is the Alg.-3 reorder as it was before the single-scratch
// rewrite: one grown slice per Lite slice plus a parked list. It is the
// oracle for eviction order (what reaches the rings, in which sequence)
// and final bucket placement.
// view is row ri as it stands, without the latch: for tests that inspect
// or stage a row while nothing else runs. Edits to the word stay in the
// returned value.
func (c *Cache) view(ri uint64) row {
	var rw row
	c.locate(ri, &rw)
	rw.word = rw.hdr.word.Load()
	return rw
}

// lanes is a row's header beside the word — what travels with a record but
// is not in it — for tests that stage, save or compare it.
type lanes struct{ pins, f0, f1 uint64 }

func (r *row) lanes() lanes { return lanes{r.hdr.pins.Load(), r.hdr.f0, r.hdr.f1} }

func (r *row) setLanes(l lanes) {
	r.hdr.pins.Store(l.pins)
	r.hdr.f0, r.hdr.f1 = l.f0, l.f1
}

// freq is bucket i's access counter.
func (r *row) freq(i int) uint8 { return uint8(r.hdr.f1>>uint(i)&1<<1 | r.hdr.f0>>uint(i)&1) }

// setMeta writes bucket i's pin and access counter.
func (r *row) setMeta(i int, pinned bool, freq uint8) {
	l, bit := r.lanes(), uint64(1)<<uint(i)
	l.pins, l.f0, l.f1 = l.pins&^bit, l.f0&^bit, l.f1&^bit
	if pinned {
		l.pins |= bit
	}
	l.f0 |= uint64(freq&1) << uint(i)
	l.f1 |= uint64(freq>>1) << uint(i)
	r.setLanes(l)
}

// walk visits every live record with its header bits, in Snapshot order,
// without latching (single-goroutine tests).
func (c *Cache) walk(fn func(r Record, pinned bool, freq uint8)) {
	for ri := range c.rows {
		rw := c.view(uint64(ri))
		for i := range c.cfg.Buckets {
			if rw.holds(i) {
				fn(*rw.at(i), rw.pinned(i), rw.freq(i))
			}
		}
	}
}

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
		bins[s] = append(bins[s], refRecord{Record: *rec, Pinned: rw.pinned(i), freq: rw.freq(i)})
		rw.drop(i)
	}
	rw.word &^= parkedMask
	put := func(i int, e *refRecord) {
		rw.put(i, &e.Record)
		rw.setMeta(i, e.Pinned, e.freq)
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
// first-oldest rule is exercised), random access counters and a random
// share of pins, sometimes enough to overflow a slice with pinned records
// alone.
func randomRow(rng *stats.Rand, rw *row, B int) {
	pinShare := rng.IntN(4) // 0: none .. 3: three in four
	rw.word = 0
	rw.setLanes(lanes{})
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
		rw.setMeta(i, rng.IntN(4) < pinShare, uint8(rng.IntN(4)))
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
			rwWant.setLanes(rwGot.lanes())

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
			if rwGot.lanes() != rwWant.lanes() {
				t.Fatalf("%+v iter %d: pin / frequency lanes %#x, reference %#x", g, iter, rwGot.lanes(), rwWant.lanes())
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
		word, bits := rw.word, rw.lanes()
		if avg := testing.AllocsPerRun(20, func() {
			for i := range saved {
				*rw.at(i) = saved[i]
			}
			rw.word = word
			rw.setLanes(bits)
			c.cleanRow(&rw)
		}); avg != 0 {
			t.Fatalf("trial %d: cleanRow allocates %.1f times per call", trial, avg)
		}
		for _, r := range c.Rings() {
			r.Drain(nil, 1<<20) // keep the rings from filling
		}
	}
}
