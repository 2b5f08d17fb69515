package flowcache

import "math/bits"

// CleanAllRows eagerly reorders every dirty row (the alternative the paper
// rejects in §3.3: a single CME sweeping the whole table blocks packet
// processing for up to 14 µs per row, while the lazy per-row cleanup rides
// the packet path). Exposed for the lazy-vs-eager ablation; returns the
// number of rows cleaned.
func (c *Cache) CleanAllRows() int {
	if c.Mode() != Lite {
		return 0
	}
	n := 0
	for i := range c.rows {
		n += c.cleanIfDirty(i)
	}
	return n
}

// cleanIfDirty runs the Alg.-3 reorder on row i if it is still owed one,
// counting it like the packet path does; it returns 1 if it cleaned.
func (c *Cache) cleanIfDirty(i int) int {
	var rw row
	c.acquire(uint64(i), &rw)
	defer rw.release()
	if rw.word&dirtyBit == 0 {
		return 0
	}
	evicted := c.cleanRow(&rw)
	rw.word &^= dirtyBit
	c.stats.rowCleanups.Add(1)
	c.stats.cleanupEvictions.Add(uint64(evicted))
	return 1
}

// cleanRow implements Algorithm 3 of the paper: when the cache has
// switched General -> Lite, each row's records must be reordered so every
// record sits inside the Lite-mode slice its hash selects (Alg. 1). The
// first packet that touches a dirty row performs this lazily while holding
// the row latch. Collisions beyond a slice's capacity keep the most
// recently updated records and evict the oldest to the rings — except
// pinned records, which NEVER evict here: a pin is a detector's promise
// that the flow's state must survive replacement, and a low-and-slow flow
// is exactly the quiet long-lived record an LRU reorder would shed.
// When a slice holds more pinned records than its width b, the overflow
// is parked in whatever buckets the reorder leaves free elsewhere in the
// row (it always fits — every record came from this row) and the row's
// parked count makes the Lite probe path fall back to a full-row scan until
// the parked population drains.
//
// The reorder works on a copy of the row — its records and its pin mask
// as they stood — and a row-sized list of bucket numbers: a counting
// sort groups the live buckets by the Lite slice their key's hash selects
// (recomputed here: a mode switch, not a probe; bucket order kept within a
// slice), each slice is trimmed and written back to its place with its pin
// bits, and pinned overflow is compacted toward the front of the list until
// every slice is placed. Rows of up to cleanRowStack buckets — every
// shipped geometry is 12 — never touch the heap.
//
// It returns the number of records evicted during the reorder. The caller
// holds the row latch.
func (c *Cache) cleanRow(rw *row) int {
	b, B := c.cfg.LiteBuckets, c.cfg.Buckets
	slices, rowBits := B/b, uint(c.cfg.RowBits)

	var (
		oldBuf           [cleanRowStack]Record
		srcBuf, sliceBuf [cleanRowStack]uint8
		endBuf           [cleanRowStack]int
	)
	old, src, sliceOf, end := oldBuf[:], srcBuf[:], sliceBuf[:], endBuf[:]
	if B > cleanRowStack {
		old, src, sliceOf, end = make([]Record, B), make([]uint8, B), make([]uint8, B), make([]int, slices)
	}
	end = end[:slices]

	// Count per slice, turn the counts into start offsets, then list each
	// bucket at its slice's next free place: end[s] finishes one past slice
	// s's last bucket, which is where slice s+1 starts.
	live, pins := rw.word&occMask, rw.hdr.pins.Load()
	for m := live; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		old[i] = *rw.at(i)
		sliceOf[i] = uint8((old[i].Key.Hash() >> rowBits) % uint64(slices))
		end[sliceOf[i]]++
	}
	sum := 0
	for s, n := range end {
		end[s] = sum
		sum += n
	}
	for m := live; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		src[end[sliceOf[i]]] = uint8(i)
		end[sliceOf[i]]++
	}
	rw.word &^= occMask | parkedMask // every bucket free, nothing parked
	var newPins uint64
	// land writes the record that sat in bucket from, and its pin, to to.
	land := func(from uint8, to int) {
		rw.put(to, &old[from])
		newPins |= pins >> from & 1 << uint(to)
	}

	evicted, parked, start := 0, 0, 0
	for s := 0; s < slices; s++ {
		entries := src[start:end[s]]
		start = end[s]
		// Evict the oldest UNPINNED records until the slice fits — the
		// GetOldest loop of Alg. 3. If only pinned records remain and the
		// slice still overflows, the overflow parks instead of evicting.
		for len(entries) > b {
			oldest := -1
			for i, e := range entries {
				if pins>>e&1 != 0 {
					continue
				}
				if oldest == -1 || old[e].LastTs < old[entries[oldest]].LastTs {
					oldest = i
				}
			}
			if oldest == -1 {
				break // all pinned: park the overflow below
			}
			out := &old[entries[oldest]]
			c.pushRing(out, out.Key.Hash())
			evicted++
			entries[oldest] = entries[len(entries)-1]
			entries = entries[:len(entries)-1]
		}
		for j, e := range entries[:min(b, len(entries))] {
			land(e, s*b+j)
		}
		if len(entries) > b {
			// src[:parked] holds the overflow of earlier slices; it ends
			// at or before this slice's first bucket, so the move is
			// toward the front and never over one still to be read.
			parked += copy(src[parked:], entries[b:])
		}
	}

	// Park pinned overflow in the free buckets the reorder left behind.
	// Capacity argument: the row held at most B records, each slice keeps
	// at most b in place, so free buckets >= parked.
	for _, e := range src[:parked] {
		land(e, bits.TrailingZeros64(^rw.word))
		rw.word += parkedOne
	}
	rw.hdr.pins.Store(newPins)
	return evicted
}

// cleanRowStack is the widest row cleanRow reorders without allocating.
const cleanRowStack = 16
