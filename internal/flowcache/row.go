package flowcache

import (
	"math/bits"
	"sync/atomic"

	"smartwatch/internal/packet"
)

// The row header (DESIGN.md §20.1, §22): everything the cache keeps per
// bucket that is not the flow's own, 32 bytes a row. word:
//
//	63     latch   test-and-set row latch (Alg. 2)
//	62     dirty   row needs the Alg.-3 reorder before a Lite probe
//	56–61  unused
//	48–55  parked  pinned records cleanRow parked outside their Lite slice
//	0–47   mask    bit i set <=> bucket i holds a record
//
// pins: bit i set <=> bucket i's record is pinned (see Cache.Pin). f0, f1:
// the bit planes of the policy-owned access counter (S3-FIFO's 2-bit
// frequency; zero under the comparator policies): bucket i's is f1_i f0_i.
//
// The mask is the only record of which buckets are live, and a free
// bucket's other bits are zero: whatever moves or frees a bucket moves or
// clears its bits with it (swapLanes, drop). Only the latch holder writes;
// word and pins are atomics because OccupancyStats loads them unlatched.
// Rows are addressed arithmetically — row r's buckets are
// store[r*B : (r+1)*B] — so nothing has to be loaded to find them.
type rowHdr struct {
	word   atomic.Uint64
	pins   atomic.Uint64
	f0, f1 uint64
}

const (
	// MaxBuckets is the widest row the header's masks can describe.
	MaxBuckets = 48

	occMask     = 1<<MaxBuckets - 1
	parkedShift = MaxBuckets
	parkedOne   = 1 << parkedShift
	parkedMask  = 0xff << parkedShift
	dirtyBit    = 1 << 62
	latchBit    = 1 << 63
)

// row is a latched row: its header, the word as acquire found it plus the
// latch bit — edited in place by the holder and written back by release —
// and the row's slice of the table. It lives on the holder's stack.
type row struct {
	hdr  *rowHdr
	word uint64
	// buckets[0:P] is the Primary buffer, buckets[P:B] the Eviction buffer
	// in General mode; Lite mode probes a b-wide slice (Alg. 1).
	buckets []Record
}

// acquire takes row ri's latch (the test_and_set of Alg. 2) and fills in
// rw, which the caller declares and keeps on its stack. (Returning the row
// by value instead has the compiler build it in a temporary with 8-byte
// stores and copy it out with 16-byte loads, a store-forwarding stall that
// cost a resident-table hit 25 ns.)
func (c *Cache) acquire(ri uint64, rw *row) {
	B := uint64(c.cfg.Buckets)
	rw.hdr = &c.rows[ri]
	rw.buckets = c.store[ri*B : (ri+1)*B : (ri+1)*B]
	slot := &rw.hdr.word
	for {
		w := slot.Load()
		if w&latchBit == 0 && slot.CompareAndSwap(w, w|latchBit) {
			rw.word = w | latchBit
			return
		}
	}
}

// release publishes the holder's edits to the word and drops the latch.
func (r *row) release() { r.hdr.word.Store(r.word &^ latchBit) }

// markDirty sets a row's dirty bit — acquire, set, release in one CAS: the
// bit goes in only while no one holds the latch, because a holder's release
// would overwrite it.
func markDirty(slot *atomic.Uint64) {
	for {
		w := slot.Load()
		if w&latchBit == 0 && slot.CompareAndSwap(w, w|dirtyBit) {
			return
		}
	}
}

// holds reports whether bucket i holds a record.
func (r *row) holds(i int) bool { return r.word>>uint(i)&1 != 0 }

// mask returns the occupancy bits of buckets [lo,hi).
func (r *row) mask(lo, hi int) uint64 { return r.word & span(lo, hi) }

// put stores rec in free bucket i and marks it live.
func (r *row) put(i int, rec *Record) {
	r.buckets[i] = *rec
	r.word |= 1 << uint(i)
}

// drop marks bucket i free and clears its pin and frequency bits; its
// memory keeps the stale record, which nothing reads again.
func (r *row) drop(i int) {
	h, bit := r.hdr, uint64(1)<<uint(i)
	r.word &^= bit
	h.f0, h.f1 = h.f0&^bit, h.f1&^bit
	if p := h.pins.Load(); p&bit != 0 {
		h.pins.Store(p &^ bit)
	}
}

// pinned reports whether bucket i's record is pinned.
func (r *row) pinned(i int) bool { return r.hdr.pins.Load()>>uint(i)&1 != 0 }

// swapLanes exchanges the header bits of buckets i and j — occupancy, pin,
// frequency — which is how a record's bits follow it to another bucket.
// Either bucket may be free (all its bits zero): the swap is then a move.
func (r *row) swapLanes(i, j int) {
	h := r.hdr
	r.word = swapBit(r.word, i, j)
	h.f0, h.f1 = swapBit(h.f0, i, j), swapBit(h.f1, i, j)
	if p := h.pins.Load(); p>>uint(i)&1 != p>>uint(j)&1 {
		h.pins.Store(p ^ (1<<uint(i) | 1<<uint(j)))
	}
}

// swapBit exchanges bits i and j of x.
func swapBit(x uint64, i, j int) uint64 {
	d := (x>>uint(i) ^ x>>uint(j)) & 1
	return x ^ (d<<uint(i) | d<<uint(j))
}

// parked counts pinned records parked outside their own Lite slice by
// cleanRow (slice overflow during a General->Lite switch: pinned records
// are never evicted, so the overflow is stashed in whichever buckets the
// reorder left free). While parked > 0, Lite-mode probes that miss their
// slice fall back to a full-row scan so the parked records stay reachable.
// Recomputed from scratch by every cleanRow, so it may only over-count
// between cleanups (costing reads, never reachability).
func (r *row) parked() int { return int(r.word & parkedMask >> parkedShift) }

// span returns the mask bits of buckets [lo,hi).
func span(lo, hi int) uint64 { return (1<<uint(hi) - 1) &^ (1<<uint(lo) - 1) }

// find returns the bucket in [lo,hi) holding the flow, or -1. Only live
// buckets are compared, the key's first eight bytes (both addresses) as
// one word before the rest.
func (r *row) find(key packet.FlowKey, lo, hi int) int {
	kw := uint64(key.LoIP) | uint64(key.HiIP)<<32
	for m := r.mask(lo, hi); m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		if k := &r.buckets[i].Key; uint64(k.LoIP)|uint64(k.HiIP)<<32 == kw && *k == key {
			return i
		}
	}
	return -1
}

// freeSlot returns the first free bucket in [lo,hi), billing the reads of
// the scan that finds it, or -1 (nothing billed) when the range is full.
func (r *row) freeSlot(lo, hi int, res *Result) int {
	free := ^r.word & span(lo, hi)
	if free == 0 {
		return -1
	}
	i := bits.TrailingZeros64(free)
	res.Reads += i - lo + 1
	return i
}
