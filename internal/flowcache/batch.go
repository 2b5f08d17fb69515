package flowcache

import "smartwatch/internal/packet"

// batchChunk is the pre-hash vector width of ProcessBatch: large enough
// to amortise the loop bookkeeping, small enough that the hash/key
// scratch arrays live on the stack.
const batchChunk = 64

// BatchAcc accumulates the stat-counter deltas of a vector of Process
// calls in plain (non-atomic) fields, so a batch pays one set of atomic
// adds instead of one per packet. Only counters derivable from the
// Result ride here; the eviction/ring pair depends on ring occupancy at
// push time and stays on the direct atomic path inside pushRing.
//
// Inserts and PinDenied need no fields: every Miss is exactly one insert
// and every HostPunt exactly one refused-for-pins insert, so FlushAcc
// reconstructs them from Misses and HostPunts.
//
// An acc belongs to one goroutine. The zero value is ready to use;
// FlushAcc resets it for reuse.
type BatchAcc struct {
	PHits, EHits, Misses, HostPunts uint64
	RowCleanups, CleanupEvictions   uint64
	StarveEvictions, PinAgeExpired  uint64
	Reads, Writes                   uint64
}

// add folds one Result into the accumulator — the batch-path twin of
// Cache.applyStats.
func (a *BatchAcc) add(res *Result) {
	switch res.Outcome {
	case PHit:
		a.PHits++
	case EHit:
		a.EHits++
	case Miss:
		a.Misses++
	case HostPunt:
		a.HostPunts++
	}
	if res.RowCleaned {
		a.RowCleanups++
		a.CleanupEvictions += uint64(res.CleanupEvicted)
	}
	if res.StarveEvicted {
		a.StarveEvictions++
	}
	if res.PinAged > 0 {
		a.PinAgeExpired += uint64(res.PinAged)
	}
	a.Reads += uint64(res.Reads)
	a.Writes += uint64(res.Writes)
}

// FlushAcc folds the accumulated deltas into the cache's atomic counters
// and resets acc. Shard choice is unobservable — Stats() sums across
// shards — so everything lands in one shard; with one flusher goroutine
// per cache (the batch drivers' structure) there is no contention.
func (c *Cache) FlushAcc(acc *BatchAcc) {
	if *acc == (BatchAcc{}) {
		return
	}
	sh := &c.stats[0]
	sh.pHits.Add(acc.PHits)
	sh.eHits.Add(acc.EHits)
	sh.misses.Add(acc.Misses)
	sh.inserts.Add(acc.Misses)
	sh.hostPunts.Add(acc.HostPunts)
	sh.pinDenied.Add(acc.HostPunts)
	sh.rowCleanups.Add(acc.RowCleanups)
	sh.cleanupEvictions.Add(acc.CleanupEvictions)
	sh.starveEvictions.Add(acc.StarveEvictions)
	sh.pinAgeExpired.Add(acc.PinAgeExpired)
	sh.reads.Add(acc.Reads)
	sh.writes.Add(acc.Writes)
	*acc = BatchAcc{}
}

// ProcessBatch runs the Fig.-4a update over a vector of packets,
// amortising the per-packet costs Process cannot avoid: the canonical
// key and flow hash are pre-computed for a whole chunk before any row is
// touched (hash work hoisted out of the table-walk loop), and the stat
// counters take one set of atomic adds per batch instead of one per
// packet. Packets are processed strictly in slice order, so the table
// state after ProcessBatch(pkts) is byte-identical to a Process loop
// over the same slice.
func (c *Cache) ProcessBatch(pkts []packet.Packet) {
	var (
		acc    BatchAcc
		hashes [batchChunk]uint64
		keys   [batchChunk]packet.FlowKey
	)
	for len(pkts) > 0 {
		n := len(pkts)
		if n > batchChunk {
			n = batchChunk
		}
		for i := 0; i < n; i++ {
			hashes[i] = pkts[i].Tuple.Identity(&keys[i])
		}
		for i := 0; i < n; i++ {
			res := Result{}
			c.processHashed(&pkts[i], hashes[i], keys[i], &res)
			acc.add(&res)
		}
		pkts = pkts[n:]
	}
	c.FlushAcc(&acc)
}
