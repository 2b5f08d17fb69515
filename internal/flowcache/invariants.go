package flowcache

import (
	"fmt"
	"math/bits"
)

// CheckInvariants walks the whole table, one latched row at a time, and
// returns the first broken structural invariant, or nil:
//
//   - the mask marks no bucket beyond the row's width, and every marked
//     bucket's key hashes to this row;
//   - only a live bucket has a pin or frequency bit set;
//   - no key sits in two buckets of a row;
//   - in Lite mode a row that has had its Alg.-3 reorder keeps at most
//     `parked` records outside their own Lite slice — the count never
//     under-counts, so the probe's fall-back never stops short of one;
//   - the counters reconcile: Stats().Inserts is the live records plus
//     Stats().Evictions, and, with the feedback counters on, LiveRecords
//     is the masks' population and LivePinned the pin masks'.
//
// The per-row checks hold at any time. The sums compare a walk with
// counters, so they are only meaningful on a quiescent cache: no Process in
// flight and every BatchAcc flushed.
func (c *Cache) CheckInvariants() error {
	var live, pinned int64
	lite := c.Mode() == Lite
	for ri := range c.rows {
		var rw row
		c.acquire(uint64(ri), &rw)
		n, p, err := c.checkRow(&rw, uint64(ri), lite)
		rw.release()
		if err != nil {
			return fmt.Errorf("flowcache: row %d: %w", ri, err)
		}
		live += int64(n)
		pinned += int64(p)
	}
	if st := c.Stats(); st.Inserts != uint64(live)+st.Evictions {
		return fmt.Errorf("flowcache: %d inserts, but %d live records + %d evictions", st.Inserts, live, st.Evictions)
	}
	if c.fb.track {
		if got := c.LiveRecords(); got != live {
			return fmt.Errorf("flowcache: LiveRecords %d, masks hold %d", got, live)
		}
		if got := c.LivePinned(); got != pinned {
			return fmt.Errorf("flowcache: LivePinned %d, table holds %d pins", got, pinned)
		}
	}
	return nil
}

// checkRow checks one latched row and returns its live and pinned counts.
func (c *Cache) checkRow(rw *row, ri uint64, lite bool) (live, pinned int, err error) {
	mask := rw.word & occMask
	if mask>>uint(c.cfg.Buckets) != 0 {
		return 0, 0, fmt.Errorf("mask %#x marks buckets beyond %d", mask, c.cfg.Buckets)
	}
	h := rw.hdr
	pins := h.pins.Load()
	if stray := (pins | h.f0 | h.f1) &^ mask; stray != 0 {
		return 0, 0, fmt.Errorf("free buckets %#x carry pin / frequency bits (pins %#x, freq %#x %#x)", stray, pins, h.f1, h.f0)
	}
	outside := 0
	for m := mask; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		key := rw.buckets[i].Key
		hash := key.Hash()
		if c.rowIndex(hash) != ri {
			return 0, 0, fmt.Errorf("bucket %d: %v with hash %#x does not belong here", i, key, hash)
		}
		if j := rw.find(key, 0, i); j >= 0 {
			return 0, 0, fmt.Errorf("%v in buckets %d and %d", key, j, i)
		}
		if lo, hi := c.liteSlice(hash); i < lo || i >= hi {
			outside++
		}
	}
	if lite && rw.word&dirtyBit == 0 && rw.parked() < outside {
		return 0, 0, fmt.Errorf("%d records outside their Lite slice, parked says %d", outside, rw.parked())
	}
	return bits.OnesCount64(mask), bits.OnesCount64(pins), nil
}
