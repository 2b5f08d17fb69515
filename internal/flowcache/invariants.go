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
//   - only a live bucket has a pin bit set;
//   - no key sits in two buckets of a row;
//   - in Lite mode a row that has had its Alg.-3 reorder keeps at most
//     `parked` records outside their own Lite slice — the count never
//     under-counts, so the probe's fall-back never stops short of one;
//   - the counters reconcile: Stats().Inserts is the live records plus
//     Stats().Evictions.
//
// The per-row checks hold at any time. The sums compare a walk with
// counters, so they are only meaningful on a quiescent cache: no Process in
// flight and every BatchAcc flushed.
func (c *Cache) CheckInvariants() error {
	live, err := c.checkTable()
	if err != nil {
		return err
	}
	return checkInserts(c.Stats(), live)
}

// CheckInvariants is Cache.CheckInvariants on every shard, with the
// inserts sum taken over the whole cache: Sharded.FlushAcc lands a batch's
// stat deltas in shard 0, so under the batched drive only the aggregate
// Stats reconcile with the walk.
func (s *Sharded) CheckInvariants() error {
	var live int64
	for i, c := range s.shards {
		n, err := c.checkTable()
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		live += n
	}
	return checkInserts(s.Stats(), live)
}

// checkTable checks every row, returning the live record count.
func (c *Cache) checkTable() (int64, error) {
	var live int64
	lite := c.Mode() == Lite
	for ri := range c.rows {
		var rw row
		c.acquire(uint64(ri), &rw)
		n, err := c.checkRow(&rw, uint64(ri), lite)
		rw.release()
		if err != nil {
			return 0, fmt.Errorf("flowcache: row %d: %w", ri, err)
		}
		live += int64(n)
	}
	return live, nil
}

// checkInserts reconciles the insert counter with a walk's live records.
func checkInserts(st Stats, live int64) error {
	if st.Inserts != uint64(live)+st.Evictions {
		return fmt.Errorf("flowcache: %d inserts, but %d live records + %d evictions", st.Inserts, live, st.Evictions)
	}
	return nil
}

// checkRow checks one latched row and returns its live count.
func (c *Cache) checkRow(rw *row, ri uint64, lite bool) (int, error) {
	mask := rw.word & occMask
	if mask>>uint(c.cfg.Buckets) != 0 {
		return 0, fmt.Errorf("mask %#x marks buckets beyond %d", mask, c.cfg.Buckets)
	}
	if pins := rw.hdr.pins.Load(); pins&^mask != 0 {
		return 0, fmt.Errorf("free buckets %#x carry pin bits (pins %#x)", pins&^mask, pins)
	}
	outside := 0
	for m := mask; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		key := rw.at(i).Key
		hash := key.Hash()
		if c.rowIndex(hash) != ri {
			return 0, fmt.Errorf("bucket %d: %v with hash %#x does not belong here", i, key, hash)
		}
		if j := rw.find(key, 0, i); j >= 0 {
			return 0, fmt.Errorf("%v in buckets %d and %d", key, j, i)
		}
		if lo, hi := c.liteSlice(hash); i < lo || i >= hi {
			outside++
		}
	}
	if lite && rw.word&dirtyBit == 0 && rw.parked() < outside {
		return 0, fmt.Errorf("%d records outside their Lite slice, parked says %d", outside, rw.parked())
	}
	return bits.OnesCount64(mask), nil
}
