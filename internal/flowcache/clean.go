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
	for i := range c.words {
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
	sh := c.stats.shard(uint64(i)) // row index == low hash bits
	sh.rowCleanups.Add(1)
	sh.cleanupEvictions.Add(uint64(evicted))
	return 1
}

// CleanRowsBounded advances the eager sweep by at most maxRows rows
// (maxRows <= 0 cleans nothing) from a persistent cursor that wraps at
// the end of the table, so a maintenance tick can amortise the
// CleanAllRows cost across calls without ever blocking the datapath for
// a full O(rows) scan. Each dirty row it visits gets exactly the same
// Alg.-3 reorder — and therefore the same eviction order — that
// CleanAllRows or the lazy packet-path cleanup would apply; only the
// schedule differs. Repeated calls eventually cover every row.
//
// The cursor is owned by the caller's goroutine (one maintenance tick);
// rows are still latched individually, so the datapath may run
// concurrently. Returns the number of rows cleaned this call.
func (c *Cache) CleanRowsBounded(maxRows int) int {
	if c.Mode() != Lite || maxRows <= 0 {
		return 0
	}
	if maxRows > len(c.words) {
		maxRows = len(c.words)
	}
	n := 0
	for scanned := 0; scanned < maxRows; scanned++ {
		i := c.sweepCursor
		c.sweepCursor++
		if c.sweepCursor == len(c.words) {
			c.sweepCursor = 0
		}
		n += c.cleanIfDirty(i)
	}
	return n
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
// The reorder goes through one row-sized scratch: a counting sort groups
// the row's records by Lite slice (bucket order kept within a slice), each
// slice is trimmed and written back in place, and pinned overflow is
// compacted toward the front of the same scratch until every slice is
// placed. Rows of up to cleanRowStack buckets — every shipped geometry is
// 12 — never touch the heap.
//
// It returns the number of records evicted during the reorder. The caller
// holds the row latch.
func (c *Cache) cleanRow(rw *row) int {
	b := c.cfg.LiteBuckets
	B := c.cfg.Buckets
	slices := B / b
	rowBits := uint(c.cfg.RowBits)

	var (
		recBuf [cleanRowStack]Record
		endBuf [cleanRowStack]int
	)
	recs, end := recBuf[:], endBuf[:]
	if B > cleanRowStack {
		recs, end = make([]Record, B), make([]int, slices)
	}
	end = end[:slices]

	// Count per slice, turn the counts into start offsets, then move each
	// record to its slice's next free scratch slot: end[s] finishes one
	// past slice s's last record, which is where slice s+1 starts.
	live := rw.word & occMask
	for m := live; m != 0; m &= m - 1 {
		rec := &rw.buckets[bits.TrailingZeros64(m)]
		end[int((rec.Hash>>rowBits)%uint64(slices))]++
	}
	sum := 0
	for s, n := range end {
		end[s] = sum
		sum += n
	}
	for m := live; m != 0; m &= m - 1 {
		rec := &rw.buckets[bits.TrailingZeros64(m)]
		s := int((rec.Hash >> rowBits) % uint64(slices))
		recs[end[s]] = *rec
		end[s]++
	}
	rw.word &^= occMask | parkedMask // every bucket free, nothing parked

	evicted, parked, start := 0, 0, 0
	for s := 0; s < slices; s++ {
		entries := recs[start:end[s]]
		start = end[s]
		// Evict the oldest UNPINNED records until the slice fits — the
		// GetOldest loop of Alg. 3. If only pinned records remain and the
		// slice still overflows, the overflow parks instead of evicting.
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
				break // all pinned: park the overflow below
			}
			c.pushRing(entries[oldest])
			evicted++
			entries[oldest] = entries[len(entries)-1]
			entries = entries[:len(entries)-1]
		}
		kept := copy(rw.buckets[s*b:], entries[:min(b, len(entries))])
		rw.word |= span(s*b, s*b+kept)
		if len(entries) > b {
			// recs[:parked] holds the overflow of earlier slices; it ends
			// at or before this slice's first record, so the move is
			// toward the front and never over a record still to be read.
			parked += copy(recs[parked:], entries[b:])
		}
	}

	// Park pinned overflow in the free buckets the reorder left behind.
	// Capacity argument: the row held at most B records, each slice keeps
	// at most b in place, so free buckets >= parked.
	for j := 0; j < parked; j++ {
		rw.put(bits.TrailingZeros64(^rw.word), &recs[j])
		rw.word += parkedOne
	}
	return evicted
}

// cleanRowStack is the widest row cleanRow reorders without allocating.
const cleanRowStack = 16
