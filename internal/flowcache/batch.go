package flowcache

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
	StarveEvictions                 uint64
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
	a.Reads += uint64(res.Reads)
	a.Writes += uint64(res.Writes)
}

// FlushAcc folds the accumulated deltas into the cache's atomic counters
// and resets acc.
func (c *Cache) FlushAcc(acc *BatchAcc) {
	if *acc == (BatchAcc{}) {
		return
	}
	sh := &c.stats
	sh.pHits.Add(acc.PHits)
	sh.eHits.Add(acc.EHits)
	sh.misses.Add(acc.Misses)
	sh.inserts.Add(acc.Misses)
	sh.hostPunts.Add(acc.HostPunts)
	sh.pinDenied.Add(acc.HostPunts)
	sh.rowCleanups.Add(acc.RowCleanups)
	sh.cleanupEvictions.Add(acc.CleanupEvictions)
	sh.starveEvictions.Add(acc.StarveEvictions)
	sh.reads.Add(acc.Reads)
	sh.writes.Add(acc.Writes)
	*acc = BatchAcc{}
}
