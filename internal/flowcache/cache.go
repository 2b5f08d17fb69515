package flowcache

import (
	"math/bits"
	"smartwatch/internal/packet"
	"sync/atomic"
	"unsafe"
)

// Cache is the sNIC FlowCache. The hot path is Process, which classifies
// each packet as a P hit, E hit or miss and maintains the table exactly as
// Fig. 4a describes:
//
//   - P hit: update the flow record in place.
//   - E hit: swap the record with the P buffer's replacement victim, then
//     update.
//   - Miss: evict E's victim to a ring buffer, demote P's victim into E,
//     insert the new flow into P.
//
// Concurrency note: the Netronome hardware serialises counter updates with
// atomic memory primitives and uses a test-and-set row latch only for
// insertions (Appendix 9.1/9.2). Go's memory model has no atomic multi-word
// key compare, so the idiomatic translation used here is a per-row spin
// latch held for the duration of one Process call. With 2^RowBits rows the
// latch is effectively uncontended; the simulator still charges the
// *hardware* cost model (atomic add for updates, latch+swap for inserts)
// via the Reads/Writes counts each call reports.
//
// The latch is the top bit of the row header's word (row.go), which also
// carries the row's dirty flag, parked count and occupancy mask. Bucket
// memory is read and written only by the latch holder; the word and the pin
// mask are only ever accessed atomically, so a reader that has not latched
// may still load them — Snapshot does, to pass over rows whose mask is
// empty, and Prefetch names addresses without loading from them at all.
type Cache struct {
	cfg Config
	// kind / policyP / policyE are the replacement policy (see policy.go):
	// the hot path switches on kind, derived from policyE.
	kind             policyKind
	policyP, policyE Policy
	mode             atomic.Uint32
	// rows[i] is row i's header (row.go). store is one contiguous table
	// like the sNIC allocation, one 64-byte-aligned cache line a record:
	// every row's Primary run (P records, row i's at i*P), then every
	// row's Eviction run (E records, row i's at R*P + i*E). pRuns is the
	// first Primary run and pStride one run's bytes; row i's Eviction run
	// starts eOff + i*dStride bytes past where its Primary run's record P
	// would be (Cache.locate). np is P, kept here rather than read from cfg
	// so that acquire stays within the inliner's budget.
	rows    []rowHdr
	store   []Record
	pRuns   unsafe.Pointer
	pStride uint64
	eOff    uintptr
	dStride uintptr
	np      int
	// mapping is the store's anonymous mapping (store_linux.go), nil
	// when the Go heap holds it; eBacked is set once the Eviction runs
	// have been populated, at the first switch to Lite.
	mapping []byte
	eBacked atomic.Bool
	rings   []*Ring
	stats   statCounters
}

// statCounters mirrors Stats with atomically updated fields: Stats may be
// read while a drive updates them.
type statCounters struct {
	pHits, eHits, misses, inserts   atomic.Uint64
	evictions, ringDrops, hostPunts atomic.Uint64
	pinDenied, rowCleanups          atomic.Uint64
	cleanupEvictions                atomic.Uint64
	starveEvictions                 atomic.Uint64
	reads, writes                   atomic.Uint64
}

// New builds a cache from cfg. It panics on invalid configuration (these
// are programmer errors; use cfg.Validate to pre-check user input).
//
// The row headers and every row's Primary run are physically backed when
// New returns, as the sNIC's EMEM allocation is at firmware load, so an
// insert into a Primary buffer takes no page fault inside the time its
// packet is charged for (DESIGN.md §9.5). The Eviction runs are
// backed where the platform allows it lazily (store_linux.go): a page
// faults once, on the first record written there — a free bucket is never
// read — and the whole run is populated at the first switch to Lite, which
// spreads records over every slice (SetMode). A sparse table's resident
// set is then its headers (32 B a row) and Primary runs (P x 64 B a row),
// not the configured Rows x Buckets x 64 B.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &Cache{cfg: cfg}
	c.policyP, c.policyE = cfg.PolicyP, cfg.PolicyE
	if cfg.PolicyE == S3FIFO {
		c.kind = kindS3FIFO
	}
	c.rows = make([]rowHdr, cfg.Rows())
	for i := range c.rows {
		c.rows[i].word.Store(0)
	}
	R, P, E := cfg.Rows(), cfg.PrimaryBuckets, cfg.EvictionBuckets
	c.newStore(R*cfg.Buckets, R*P)
	// The allocator's size classes (or the mapping's page) put both on a
	// multiple of the element; a record across two lines would cost every
	// probe a second miss: checked.
	if uintptr(unsafe.Pointer(&c.store[0]))%recordSize != 0 || uintptr(unsafe.Pointer(&c.rows[0]))%unsafe.Sizeof(rowHdr{}) != 0 {
		panic("flowcache: table is not cache-line aligned")
	}
	c.pRuns, c.pStride, c.np = unsafe.Pointer(&c.store[0]), uint64(P*recordSize), P
	// Row i's Eviction run is at (R*P + i*E)*64, its Primary run at
	// i*P*64, and bucket P's offset within the row is P*64: the
	// difference, in wrapping arithmetic when E < P.
	c.eOff, c.dStride = uintptr((R-1)*P*recordSize), uintptr(E-P)*recordSize
	c.rings = make([]*Ring, cfg.Rings)
	for i := range c.rings {
		c.rings[i] = NewRing(cfg.RingEntries)
	}
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Mode returns the active operating mode.
func (c *Cache) Mode() Mode { return Mode(c.mode.Load()) }

// SetMode switches the operating mode. Switching General->Lite marks every
// row dirty for lazy Alg.-3 cleanup; Lite->General needs no reordering
// because Lite's candidate buckets are a subset of General's. The first
// switch to Lite also backs the Eviction runs in one call
// (backEvictionRuns): Lite inserts land in every slice, so from then on the
// table fills across its whole width.
//
// Rows are marked dirty BEFORE the mode becomes visible: any processor
// that observes Lite is then guaranteed to see its row's dirty flag and
// perform the cleanup before probing the narrowed candidate set. Marking
// after the swap would open a window where a Lite-mode probe misses a
// record still sitting outside its slice and inserts a duplicate.
func (c *Cache) SetMode(m Mode) {
	if m == Lite && c.Mode() != Lite {
		if c.eBacked.CompareAndSwap(false, true) {
			c.backEvictionRuns()
		}
		for i := range c.rows {
			markDirty(&c.rows[i].word)
		}
	}
	c.mode.Store(uint32(m))
}

// Rings exposes the eviction rings for the host snapshotter.
func (c *Cache) Rings() []*Ring { return c.rings }

// rowIndex selects the row from the low hash bits (Alg. 1 line 4).
func (c *Cache) rowIndex(hash uint64) uint64 {
	return hash & uint64(c.cfg.Rows()-1)
}

// liteSlice returns the [lo,hi) candidate bucket range for Lite mode
// (Alg. 1 lines 8–9): a b-wide slice chosen by the hash bits above the row
// index.
func (c *Cache) liteSlice(hash uint64) (int, int) {
	b := c.cfg.LiteBuckets
	slices := c.cfg.Buckets / b
	off := int((hash>>uint(c.cfg.RowBits))%uint64(slices)) * b
	return off, off + b
}

// Prefetch requests the memory Process will read first for a flow with
// this hash — the row's header and the cache line that is the first bucket
// of the slice the current mode probes — without reading any of it.
// A driver that knows a vector of hashes ahead of time calls it for the
// whole vector before processing the first packet, so the misses overlap
// instead of queueing behind one another. It changes no state and is safe
// against concurrent Process calls (see prefetcht0).
func (c *Cache) Prefetch(hash uint64) {
	var rw row
	c.locate(c.rowIndex(hash), &rw)
	prefetcht0(unsafe.Pointer(rw.hdr))
	lo := 0
	if c.Mode() == Lite {
		lo, _ = c.liteSlice(hash)
	}
	prefetcht0(unsafe.Pointer(rw.at(lo)))
}

// Process runs the full FlowCache update for one packet and returns the
// flow record (nil on HostPunt) plus the operation report. The returned
// pointer stays valid until the record is evicted or swapped; mutating its
// State through the pointer is safe only for single-goroutine drivers (the
// DES); concurrent users go through UpdateState.
func (c *Cache) Process(p *packet.Packet) (*Record, Result) {
	var key packet.FlowKey
	hash := p.Tuple.Identity(&key) // == p.Hash(); canonicalise once
	res := Result{}
	rec := c.processHashed(p, hash, key, &res)
	c.applyStats(&res)
	return rec, res
}

// ProcessHashed is Process with the hash/key computed by the caller:
// identical per-packet atomic stat accounting, no second canonicalisation.
// The sharded per-packet datapath uses it to hash each packet exactly once
// (the shard router already needed the hash for shard selection).
func (c *Cache) ProcessHashed(p *packet.Packet, hash uint64, key packet.FlowKey) (*Record, Result) {
	res := Result{}
	rec := c.processHashed(p, hash, key, &res)
	c.applyStats(&res)
	return rec, res
}

// ProcessHashedAcc is Process with the hash/key computed by the caller
// (the platform's drive pre-hashes whole vectors) and the stat-counter updates
// deferred into acc instead of hitting the atomic counters per packet. The
// caller owns acc and must eventually fold it back with Cache.FlushAcc —
// until then Stats() under-reports, so flush before any observer reads.
func (c *Cache) ProcessHashedAcc(p *packet.Packet, hash uint64, key packet.FlowKey, acc *BatchAcc) (*Record, Result) {
	res := Result{}
	rec := c.processHashed(p, hash, key, &res)
	acc.add(&res)
	return rec, res
}

// processHashed is the Fig.-4a update proper: everything Process does
// except stat-counter accounting, which the caller derives from the
// Result (applyStats or BatchAcc.add). The only counters it touches
// directly are the eviction/ring pair inside pushRing — those depend on
// ring occupancy at push time and cannot be reconstructed afterwards.
func (c *Cache) processHashed(p *packet.Packet, hash uint64, key packet.FlowKey, res *Result) *Record {
	var rw row
	c.acquire(c.rowIndex(hash), &rw)

	// The mode is read under the row latch: concurrent Process calls on
	// one row are serialized, so the second caller sees both the first
	// caller's insert and at least as new a mode value — closing the
	// duplicate-insert window around switchovers.
	mode := c.Mode()

	if mode == Lite && rw.word&dirtyBit != 0 {
		res.CleanupEvicted = c.cleanRow(&rw)
		rw.word &^= dirtyBit
		res.RowCleaned = true
	}

	lo, hi := 0, c.cfg.Buckets
	if mode == Lite {
		lo, hi = c.liteSlice(hash)
	}
	pEnd := lo + c.cfg.PrimaryBuckets
	if mode == Lite || c.cfg.EvictionBuckets == 0 {
		pEnd = hi // single buffer: the whole slice is "P"
	}

	if idx := rw.find(key, lo, hi); idx >= 0 {
		res.Reads += idx - lo + 1
		res.Outcome = PHit
		if idx >= pEnd {
			// E hit: under the paper's policies, swap with P's victim, then
			// update; lazy-promotion policies (s3fifo) record the reuse and
			// leave the record in place.
			res.Outcome = EHit
			if c.kind == kindS3FIFO {
				c.onHit(&rw, idx)
			}
			if c.promoteOnEHit() {
				idx = c.promote(&rw, idx, lo, pEnd, res)
			}
		} else if c.kind == kindS3FIFO {
			c.onHit(&rw, idx)
		}
		return c.hit(&rw, idx, rw.at(idx), p, res)
	}

	// Lite slice missed, but cleanRow parked pinned overflow outside the
	// slice: scan the rest of the row before declaring a miss, or the
	// parked record's flow would re-insert as a duplicate and its pinned
	// state would go dark (the Lite-mode state-loss bug).
	res.Reads += hi - lo
	if mode == Lite && rw.parked() > 0 {
		if idx := c.probeOutside(&rw, key, lo, hi, res); idx >= 0 {
			if c.kind == kindS3FIFO {
				c.onHit(&rw, idx)
			}
			res.Outcome = PHit
			return c.hit(&rw, idx, rw.at(idx), p, res)
		}
	}

	rec := c.insert(&rw, key, p, lo, pEnd, hi, res)
	if rec == nil {
		res.Outcome = HostPunt
		rw.release()
		return nil
	}
	res.Outcome = Miss
	rw.release()
	return rec
}

// hit applies the packet to rec, the record in bucket idx (the hardware's
// atomic-add path), and ends the call.
func (c *Cache) hit(rw *row, idx int, rec *Record, p *packet.Packet, res *Result) *Record {
	rec.update(p)
	res.Writes++
	res.Pinned = rw.pinned(idx)
	rw.release()
	return rec
}

// applyStats folds one Result into the atomic counters — the
// per-packet accounting twin of BatchAcc.add. Every counter is derived
// from the Result: inserts ⇔ Miss (each miss creates exactly one record)
// and pinDenied ⇔ HostPunt (each punt is exactly one refused insert), so
// the atomic-op count per call matches the pre-refactor inline updates.
func (c *Cache) applyStats(res *Result) {
	sh := &c.stats
	switch res.Outcome {
	case PHit:
		sh.pHits.Add(1)
	case EHit:
		sh.eHits.Add(1)
	case Miss:
		sh.misses.Add(1)
		sh.inserts.Add(1)
	case HostPunt:
		sh.hostPunts.Add(1)
		sh.pinDenied.Add(1)
	}
	if res.RowCleaned {
		sh.rowCleanups.Add(1)
		sh.cleanupEvictions.Add(uint64(res.CleanupEvicted))
	}
	if res.StarveEvicted {
		sh.starveEvictions.Add(1)
	}
	sh.reads.Add(uint64(res.Reads))
	sh.writes.Add(uint64(res.Writes))
}

// probeOutside scans the row's buckets OUTSIDE [lo,hi) for the key and
// returns its bucket or -1 — the Lite-mode fallback that keeps
// cleanRow-parked records reachable. Reads are billed like any probe —
// every bucket up to the hit, empty ones included — the fallback only runs
// while the row's parked count > 0.
func (c *Cache) probeOutside(rw *row, key packet.FlowKey, lo, hi int, res *Result) int {
	B := c.cfg.Buckets
	if i := rw.find(key, 0, lo); i >= 0 {
		res.Reads += i + 1
		return i
	}
	if i := rw.find(key, hi, B); i >= 0 {
		res.Reads += i + 1 - (hi - lo)
		return i
	}
	res.Reads += B - (hi - lo)
	return -1
}

// update applies one packet to the record (the hardware's atomic-add path).
func (r *Record) update(p *packet.Packet) {
	r.Pkts++
	r.Bytes += uint64(p.Size)
	r.LastTs = p.Ts
}

// victimIndex picks the replacement victim in [lo,hi) under policy,
// skipping pinned entries; -1 when every entry is pinned. A free slot wins
// immediately.
func (c *Cache) victimIndex(rw *row, lo, hi int, policy Policy, res *Result) int {
	if i := rw.freeSlot(lo, hi, res); i >= 0 {
		return i
	}
	res.Reads += hi - lo
	victim := -1
	for m := span(lo, hi) &^ rw.hdr.pins.Load(); m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		if victim == -1 {
			victim = i
			continue
		}
		rec, v := rw.at(i), rw.at(victim)
		switch policy {
		case LRU:
			if rec.LastTs < v.LastTs {
				victim = i
			}
		case LPC:
			if rec.Pkts < v.Pkts {
				victim = i
			}
		case FIFO:
			if rec.FirstTs < v.FirstTs {
				victim = i
			}
		}
	}
	return victim
}

// promote swaps an E-buffer hit into the Primary buffer (Fig. 4a "E hit")
// and returns the record's new bucket.
func (c *Cache) promote(rw *row, eIdx, pLo, pEnd int, res *Result) int {
	pIdx := c.victimP(rw, pLo, pEnd, res)
	if pIdx == -1 || pIdx == eIdx {
		// Whole P pinned (or degenerate layout): keep the record in place.
		return eIdx
	}
	a, b := rw.at(pIdx), rw.at(eIdx)
	if rw.holds(pIdx) {
		*a, *b = *b, *a
	} else {
		*a = *b
	}
	rw.swapLanes(pIdx, eIdx)
	res.Writes += 2
	return pIdx
}

// insert creates a new record for the missing flow, cascading evictions
// P -> E -> ring as Fig. 4a's "Miss" arrow shows. nil means every
// candidate was pinned and the packet must be punted to the host.
func (c *Cache) insert(rw *row, key packet.FlowKey, p *packet.Packet, lo, pEnd, hi int, res *Result) *Record {
	newRec := Record{
		Key:  key,
		Pkts: 1, Bytes: uint64(p.Size),
		FirstTs: p.Ts, LastTs: p.Ts,
	}

	pIdx := c.victimP(rw, lo, pEnd, res)
	if pIdx == -1 {
		// All of P pinned; try to land directly in E.
		if pEnd < hi {
			if eIdx := c.victimE(rw, pEnd, hi, res); eIdx != -1 {
				c.evictOccupied(rw, eIdx, res)
				return c.place(rw, eIdx, &newRec, res)
			}
		}
		if c.cfg.PinStarveEvict {
			// Pin-starvation escape valve: every candidate is pinned, so a
			// punt storm is forming. Evict the stalest pin to the rings —
			// the host inherits its state via the normal eviction path —
			// and serve the insert instead of punting.
			if sIdx := c.stalestPinned(rw, lo, hi, res); sIdx != -1 {
				c.evictOccupied(rw, sIdx, res)
				res.StarveEvicted = true
				return c.place(rw, sIdx, &newRec, res)
			}
		}
		// Caller counts pinDenied from the HostPunt outcome.
		return nil
	}

	if rw.holds(pIdx) {
		if pEnd < hi && c.demoteToE(rw, pIdx) {
			// Demote P's victim into E, evicting E's victim to a ring.
			eIdx := c.victimE(rw, pEnd, hi, res)
			if eIdx == -1 {
				// E fully pinned: evict P's victim straight to the ring.
				c.evictOccupied(rw, pIdx, res)
			} else {
				c.evictOccupied(rw, eIdx, res)
				*rw.at(eIdx) = *rw.at(pIdx)
				rw.swapLanes(pIdx, eIdx) // eIdx is free: the bits move
				res.Writes++
			}
		} else {
			// Single buffer — or a quick-demotion policy declining the
			// cascade: the victim goes straight to the ring.
			c.evictOccupied(rw, pIdx, res)
		}
	}
	return c.place(rw, pIdx, &newRec, res)
}

// place writes the new flow's record into bucket idx (free, or holding a
// record that has just been evicted or demoted).
func (c *Cache) place(rw *row, idx int, rec *Record, res *Result) *Record {
	rw.put(idx, rec)
	res.Writes++
	return rw.at(idx)
}

// evictOccupied pushes the record at idx to its ring if occupied and marks
// the slot free.
func (c *Cache) evictOccupied(rw *row, idx int, res *Result) {
	if !rw.holds(idx) {
		return
	}
	c.remove(rw, idx)
	res.Writes++
	res.Evicted = true
}

// remove takes the record at idx out of the table and delivers it to its
// ring. This is where a resident record's hash is needed again (ring and
// counter-shard selection, the parked count): two multiplies, off the hit
// path, instead of eight bytes in every record.
func (c *Cache) remove(rw *row, idx int) {
	out := rw.at(idx)
	hash := out.Key.Hash()
	rw.drop(idx)
	c.noteRemoval(rw, hash, idx)
	c.pushRing(out, hash)
}

// stalestPinned picks the pinned occupied record with the smallest LastTs
// in [lo,hi) — the pin-starvation eviction victim.
func (c *Cache) stalestPinned(rw *row, lo, hi int, res *Result) int {
	victim := -1
	res.Reads += hi - lo
	for m := rw.hdr.pins.Load() & span(lo, hi); m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		if victim == -1 || rw.at(i).LastTs < rw.at(victim).LastTs {
			victim = i
		}
	}
	return victim
}

// noteRemoval maintains the row's parked count: when a record sitting
// outside its own Lite slice leaves the table, the out-of-slice population
// shrinks. The counter is only consulted by Lite-mode probes and recomputed
// from scratch by every cleanRow, so a stale decrement while the cache runs
// in General mode is harmless. Callers hold the row latch.
func (c *Cache) noteRemoval(rw *row, hash uint64, idx int) {
	if rw.parked() == 0 {
		return
	}
	lo, hi := c.liteSlice(hash)
	if idx < lo || idx >= hi {
		rw.word -= parkedOne
	}
}

// pushRing delivers an evicted record to its ring, counting overflow
// drops. It is the single choke point through which records leave the
// table (insert cascades, forced Evicts, Alg.-3 cleanups).
func (c *Cache) pushRing(out *Record, hash uint64) {
	ring := c.rings[hash%uint64(len(c.rings))]
	if !ring.Push(*out) {
		c.stats.ringDrops.Add(1)
	}
	c.stats.evictions.Add(1)
}

// Lookup finds a record without updating it and reports whether it is
// pinned. The record is returned by value to keep readers race-free.
func (c *Cache) Lookup(key packet.FlowKey) (rec Record, pinned, ok bool) {
	var rw row
	c.acquire(c.rowIndex(key.Hash()), &rw)
	defer rw.release()
	if i := rw.find(key, 0, c.cfg.Buckets); i >= 0 {
		return *rw.at(i), rw.pinned(i), true
	}
	return Record{}, false, false
}

// Pin marks the flow's record as unevictable (per-packet state tracking
// for low-and-slow detectors, §3.2 "Pinning Flow Records"). It reports
// whether the flow was present.
func (c *Cache) Pin(key packet.FlowKey) bool { return c.setPinned(key, true) }

// Unpin releases a pinned record (e.g. after authentication succeeds).
func (c *Cache) Unpin(key packet.FlowKey) bool { return c.setPinned(key, false) }

func (c *Cache) setPinned(key packet.FlowKey, v bool) bool {
	hash := key.Hash()
	var rw row
	c.acquire(c.rowIndex(hash), &rw)
	defer rw.release()
	i := rw.find(key, 0, c.cfg.Buckets)
	if i < 0 {
		return false
	}
	pins, bit := rw.hdr.pins.Load(), uint64(1)<<uint(i)
	switch {
	case v && pins&bit == 0:
		rw.hdr.pins.Store(pins | bit)
	case !v && pins&bit != 0:
		rw.hdr.pins.Store(pins &^ bit)
		if c.Mode() == Lite && rw.parked() > 0 {
			// An unpinned record parked outside its Lite slice would
			// become unreachable once the parked survivors drain (the
			// fallback probe stops). Hand it to the host through the
			// rings instead of leaving dark state in the table.
			if lo, hi := c.liteSlice(hash); i < lo || i >= hi {
				c.remove(&rw, i)
			}
		}
	}
	return true
}

// UpdateState runs fn on the flow's record under the row latch, for
// detectors that must mutate State/StateTs race-free. It reports whether
// the flow was present. The pin is not in the record, so fn cannot flip
// it: that is Pin / Unpin's job.
func (c *Cache) UpdateState(key packet.FlowKey, fn func(*Record)) bool {
	var rw row
	c.acquire(c.rowIndex(key.Hash()), &rw)
	defer rw.release()
	i := rw.find(key, 0, c.cfg.Buckets)
	if i < 0 {
		return false
	}
	fn(rw.at(i))
	return true
}

// Evict removes the flow's record (pinned or not) and delivers it to its
// ring, reporting whether it was present. The control loop uses this when
// a flow is reclassified (e.g. whitelisted) and its sNIC state can go.
func (c *Cache) Evict(key packet.FlowKey) bool {
	var rw row
	c.acquire(c.rowIndex(key.Hash()), &rw)
	defer rw.release()
	i := rw.find(key, 0, c.cfg.Buckets)
	if i < 0 {
		return false
	}
	c.remove(&rw, i)
	return true
}

// Snapshot copies every occupied record to fn, row by row under the row
// latch and in bucket order within a row — the periodic host flush. fn
// returning false stops the walk. A row whose mask is empty is passed over
// on one atomic load of its word, without taking its latch or touching its
// buckets: it held nothing at that instant, which is all a walk that
// latches one row at a time ever promised.
func (c *Cache) Snapshot(fn func(Record) bool) {
	for ri := range c.rows {
		if c.rows[ri].word.Load()&occMask == 0 {
			continue
		}
		var rw row
		c.acquire(uint64(ri), &rw)
		for m := rw.word & occMask; m != 0; m &= m - 1 {
			if !fn(*rw.at(bits.TrailingZeros64(m))) {
				rw.release()
				return
			}
		}
		rw.release()
	}
}

// Occupancy returns the number of live records (see OccupancyStats).
func (c *Cache) Occupancy() int {
	n, _ := c.OccupancyStats()
	return n
}

// Stats returns a snapshot of the cumulative counters. Each field is read
// atomically, but not all of them at one instant: a concurrent update may
// show in some fields and not yet in others.
func (c *Cache) Stats() Stats {
	sh := &c.stats
	return Stats{
		PHits:            sh.pHits.Load(),
		EHits:            sh.eHits.Load(),
		Misses:           sh.misses.Load(),
		Inserts:          sh.inserts.Load(),
		Evictions:        sh.evictions.Load(),
		RingDrops:        sh.ringDrops.Load(),
		HostPunts:        sh.hostPunts.Load(),
		PinDenied:        sh.pinDenied.Load(),
		RowCleanups:      sh.rowCleanups.Load(),
		CleanupEvictions: sh.cleanupEvictions.Load(),
		StarveEvictions:  sh.starveEvictions.Load(),
		Reads:            sh.reads.Load(),
		Writes:           sh.writes.Load(),
	}
}
