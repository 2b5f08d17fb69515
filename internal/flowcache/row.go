package flowcache

import (
	"math/bits"
	"sync/atomic"
	"unsafe"

	"smartwatch/internal/packet"
)

// The row header (DESIGN.md §9.1): everything the cache keeps per
// bucket that is not the flow's own, 16 bytes a row, four to a cache
// line. word:
//
//	63     latch   test-and-set row latch (Alg. 2)
//	62     dirty   row needs the Alg.-3 reorder before a Lite probe
//	56–61  unused
//	48–55  parked  pinned records cleanRow parked outside their Lite slice
//	0–47   mask    bit i set <=> bucket i holds a record
//
// pins: bit i set <=> bucket i's record is pinned (see Cache.Pin).
//
// The mask is the only record of which buckets are live, and a free
// bucket's other bits are zero: whatever moves or frees a bucket moves or
// clears its bits with it (swapLanes, drop). Only the latch holder writes;
// word and pins are atomics because OccupancyStats loads them unlatched.
// Rows are addressed arithmetically — row r's Primary run is
// store[r*P : (r+1)*P], its Eviction run store[R*P + r*E : R*P + (r+1)*E]
// (Cache.store) — so nothing has to be loaded to find them.
type rowHdr struct {
	word atomic.Uint64
	pins atomic.Uint64
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
// and where the row's two runs of the table are. It lives on the holder's
// stack.
type row struct {
	hdr  *rowHdr
	word uint64
	// Buckets 0..np-1 are the Primary buffer, np..B-1 the Eviction buffer
	// in General mode; Lite mode probes a b-wide slice (Alg. 1). p is the
	// row's Primary run, and d is how far bucket i >= np lies past where
	// record i of p would: bucket i is at p + 64i below np and at
	// p + 64i + d from np on, in the row's Eviction run (at).
	p  unsafe.Pointer
	d  uintptr
	np int
}

// acquire takes row ri's latch (the test_and_set of Alg. 2) and fills in
// rw, which the caller declares and keeps on its stack. (Returning the row
// by value instead has the compiler build it in a temporary with 8-byte
// stores and copy it out with 16-byte loads, a store-forwarding stall that
// cost a resident-table hit 25 ns.)
func (c *Cache) acquire(ri uint64, rw *row) {
	c.locate(ri, rw)
	slot := &rw.hdr.word
	for {
		// w < latchBit: the latch (the top bit) is clear, tested in fewer
		// inliner nodes than a mask, which keeps acquire inlined.
		w := slot.Load()
		if w < latchBit && slot.CompareAndSwap(w, w|latchBit) {
			rw.word = w | latchBit
			return
		}
	}
}

// locate points rw at row ri's header and runs without taking the latch.
func (c *Cache) locate(ri uint64, rw *row) {
	rw.hdr = &c.rows[ri]
	rw.p = unsafe.Add(c.pRuns, ri*c.pStride)
	rw.d = c.eOff + uintptr(ri)*c.dStride
	rw.np = c.np
}

// at returns bucket i's record. The Eviction run's offset is masked in
// rather than branched to (the mask is all ones from np on), so an access
// pays no misprediction for which run bucket i is in.
func (r *row) at(i int) *Record {
	e := uintptr(int64(r.np-1-i) >> 63)
	return (*Record)(unsafe.Add(r.p, uintptr(i)*recordSize+r.d&e))
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
	*r.at(i) = *rec
	r.word |= 1 << uint(i)
}

// drop marks bucket i free and clears its pin bit; its memory keeps the
// stale record, which nothing reads again.
func (r *row) drop(i int) {
	bit := uint64(1) << uint(i)
	r.word &^= bit
	if p := r.hdr.pins.Load(); p&bit != 0 {
		r.hdr.pins.Store(p &^ bit)
	}
}

// pinned reports whether bucket i's record is pinned.
func (r *row) pinned(i int) bool { return r.hdr.pins.Load()>>uint(i)&1 != 0 }

// swapLanes exchanges the header bits of buckets i and j — occupancy and
// pin — which is how a record's bits follow it to another bucket. Either
// bucket may be free (both its bits zero): the swap is then a move.
func (r *row) swapLanes(i, j int) {
	r.word = swapBit(r.word, i, j)
	if p := r.hdr.pins.Load(); p>>uint(i)&1 != p>>uint(j)&1 {
		r.hdr.pins.Store(p ^ (1<<uint(i) | 1<<uint(j)))
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
// one word before the rest. The Primary run is scanned, then the Eviction
// run, each from its own base: choosing the base per bucket inside one
// loop (at) cost a miss-heavy probe its overlapping loads (DESIGN.md §17).
func (r *row) find(key packet.FlowKey, lo, hi int) int {
	m := r.mask(lo, hi)
	pm := m & (1<<uint(r.np) - 1)
	if i := findIn(r.p, pm, &key); i >= 0 || pm == m {
		return i
	}
	return findIn(unsafe.Add(r.p, r.d), m&^pm, &key)
}

// findIn returns the bucket among m's whose record, at base + 64i, holds
// the flow, or -1. (The key comes by pointer: a copy would be stored field
// by field and loaded whole, a store-forwarding stall on every probe.)
func findIn(base unsafe.Pointer, m uint64, key *packet.FlowKey) int {
	kw := uint64(key.LoIP) | uint64(key.HiIP)<<32
	for ; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		if k := &(*Record)(unsafe.Add(base, i*recordSize)).Key; uint64(k.LoIP)|uint64(k.HiIP)<<32 == kw && *k == *key {
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
