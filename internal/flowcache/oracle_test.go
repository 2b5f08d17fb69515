package flowcache

import "smartwatch/internal/packet"

// refCache is the FlowCache as it stood before the row word (DESIGN.md
// §20) and the 64-byte record (§22): a header per row with its own dirty /
// parked fields and a bucket slice, and beside each record its own cached
// hash, pin, access counter and occupied flag, which every scan reads and
// every move carries by copying the whole bucket. It is the oracle of
// TestRandomOpsMatchOracle — same algorithms, statement for statement,
// minus what a single-goroutine reference does not need (the latch, the
// sharded atomics, the feedback counters, custom policies).
type refCache struct {
	cfg              Config
	kind             policyKind
	policyP, policyE Policy
	mode             Mode
	rows             []refRow
	rings            []*Ring
	stats            Stats
	sweepCursor      int
	// ev counts the moves that carry a record's bits from bucket to bucket
	// (randomOps wants each reached often, not just once).
	ev refEvents
}

type refEvents struct {
	swaps        int // E hit exchanged with P's victim
	demotes      int // P's victim moved into E
	parkCleans   int // cleanRow that parked pinned overflow
	ageSweeps    int // agePins that stripped at least one pin
	starves      int // starvation evictions of a pinned record
	reusedPinned int // new record into a bucket a pinned one last held
}

func (e *refEvents) add(o refEvents) {
	e.swaps += o.swaps
	e.demotes += o.demotes
	e.parkCleans += o.parkCleans
	e.ageSweeps += o.ageSweeps
	e.starves += o.starves
	e.reusedPinned += o.reusedPinned
}

type refRow struct {
	dirty   bool
	parked  int
	buckets []refRecord
}

type refRecord struct {
	Record
	Hash     uint64
	Pinned   bool
	freq     uint8
	occupied bool
}

func newRefCache(cfg Config) *refCache {
	c := &refCache{cfg: cfg}
	c.kind, c.policyP, c.policyE, _ = resolvePolicy(cfg)
	c.rows = make([]refRow, cfg.Rows())
	for i := range c.rows {
		c.rows[i].buckets = make([]refRecord, cfg.Buckets)
	}
	c.rings = make([]*Ring, cfg.Rings)
	for i := range c.rings {
		c.rings[i] = NewRing(cfg.RingEntries)
	}
	return c
}

func (c *refCache) SetMode(m Mode) {
	if m == Lite && c.mode != Lite {
		for i := range c.rows {
			c.rows[i].dirty = true
		}
	}
	c.mode = m
}

func (c *refCache) rowIndex(hash uint64) uint64 { return hash & uint64(c.cfg.Rows()-1) }

func (c *refCache) liteSlice(hash uint64) (int, int) {
	b := c.cfg.LiteBuckets
	slices := c.cfg.Buckets / b
	off := int((hash>>uint(c.cfg.RowBits))%uint64(slices)) * b
	return off, off + b
}

func (c *refCache) Process(p *packet.Packet) (*Record, Result) {
	key := p.Key()
	hash := key.Hash()
	res := Result{}
	rec := c.processHashed(p, hash, key, &res)
	switch res.Outcome {
	case PHit:
		c.stats.PHits++
	case EHit:
		c.stats.EHits++
	case Miss:
		c.stats.Misses++
		c.stats.Inserts++
	case HostPunt:
		c.stats.HostPunts++
		c.stats.PinDenied++
	}
	if res.RowCleaned {
		c.stats.RowCleanups++
		c.stats.CleanupEvictions += uint64(res.CleanupEvicted)
	}
	if res.StarveEvicted {
		c.stats.StarveEvictions++
	}
	c.stats.PinAgeExpired += uint64(res.PinAged)
	c.stats.Reads += uint64(res.Reads)
	c.stats.Writes += uint64(res.Writes)
	if rec == nil {
		return nil, res
	}
	res.Pinned = rec.Pinned
	return &rec.Record, res
}

func (c *refCache) processHashed(p *packet.Packet, hash uint64, key packet.FlowKey, res *Result) *refRecord {
	rw := &c.rows[c.rowIndex(hash)]
	mode := c.mode
	if mode == Lite && rw.dirty {
		res.CleanupEvicted = c.cleanRow(rw)
		rw.dirty = false
		res.RowCleaned = true
	}
	lo, hi := 0, c.cfg.Buckets
	if mode == Lite {
		lo, hi = c.liteSlice(hash)
	}
	pEnd := lo + c.cfg.PrimaryBuckets
	if mode == Lite || c.cfg.EvictionBuckets == 0 {
		pEnd = hi
	}
	if rec, idx := c.probe(rw, hash, key, lo, hi, res); rec != nil {
		if idx < pEnd {
			rec.update(p)
			if c.kind != kindBuffers {
				c.onHit(rec)
			}
			res.Outcome = PHit
			res.Writes++
			return rec
		}
		if c.kind != kindBuffers {
			c.onHit(rec)
			if !c.promoteOnEHit() {
				rec.update(p)
				res.Outcome = EHit
				res.Writes++
				return rec
			}
		}
		rec = c.promote(rw, idx, lo, pEnd, res)
		rec.update(p)
		res.Outcome = EHit
		res.Writes++
		return rec
	}
	if mode == Lite && rw.parked > 0 {
		if rec := c.probeOutside(rw, hash, key, lo, hi, res); rec != nil {
			rec.update(p)
			if c.kind != kindBuffers {
				c.onHit(rec)
			}
			res.Outcome = PHit
			res.Writes++
			return rec
		}
	}
	rec := c.insert(rw, hash, key, p, lo, pEnd, hi, res)
	if rec == nil {
		res.Outcome = HostPunt
		return nil
	}
	res.Outcome = Miss
	return rec
}

func (c *refCache) probe(rw *refRow, hash uint64, key packet.FlowKey, lo, hi int, res *Result) (*refRecord, int) {
	for i := lo; i < hi; i++ {
		rec := &rw.buckets[i]
		res.Reads++
		if rec.occupied && rec.Hash == hash && rec.Key == key {
			return rec, i
		}
	}
	return nil, -1
}

func (c *refCache) probeOutside(rw *refRow, hash uint64, key packet.FlowKey, lo, hi int, res *Result) *refRecord {
	for i := range rw.buckets {
		if i >= lo && i < hi {
			continue
		}
		rec := &rw.buckets[i]
		res.Reads++
		if rec.occupied && rec.Hash == hash && rec.Key == key {
			return rec
		}
	}
	return nil
}

func (c *refCache) victimIndex(rw *refRow, lo, hi int, policy Policy, res *Result) int {
	victim := -1
	for i := lo; i < hi; i++ {
		rec := &rw.buckets[i]
		res.Reads++
		if !rec.occupied {
			return i
		}
		if rec.Pinned {
			continue
		}
		if victim == -1 {
			victim = i
			continue
		}
		v := &rw.buckets[victim]
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

func (c *refCache) promote(rw *refRow, eIdx, pLo, pEnd int, res *Result) *refRecord {
	pIdx := c.victimP(rw, pLo, pEnd, res)
	if pIdx == -1 || pIdx == eIdx {
		return &rw.buckets[eIdx]
	}
	a, b := &rw.buckets[pIdx], &rw.buckets[eIdx]
	*a, *b = *b, *a
	res.Writes += 2
	c.ev.swaps++
	return a
}

func (c *refCache) insert(rw *refRow, hash uint64, key packet.FlowKey, p *packet.Packet, lo, pEnd, hi int, res *Result) *refRecord {
	newRec := refRecord{occupied: true, Hash: hash, Record: Record{
		Key:  key,
		Pkts: 1, Bytes: uint64(p.Size),
		FirstTs: p.Ts, LastTs: p.Ts,
	}}
	pIdx := c.victimP(rw, lo, pEnd, res)
	if pIdx == -1 && c.cfg.PinAgeNs > 0 {
		if c.agePins(rw, lo, pEnd, p.Ts, res) > 0 {
			pIdx = c.victimP(rw, lo, pEnd, res)
		}
	}
	if pIdx == -1 {
		if pEnd < hi {
			eIdx := c.victimE(rw, pEnd, hi, res)
			if eIdx == -1 && c.cfg.PinAgeNs > 0 {
				if c.agePins(rw, pEnd, hi, p.Ts, res) > 0 {
					eIdx = c.victimE(rw, pEnd, hi, res)
				}
			}
			if eIdx != -1 {
				c.evictOccupied(rw, eIdx, res)
				return c.place(rw, eIdx, newRec, res)
			}
		}
		if c.cfg.PinStarveEvict {
			if sIdx := c.stalestPinned(rw, lo, hi, res); sIdx != -1 {
				c.evictOccupied(rw, sIdx, res)
				res.StarveEvicted = true
				c.ev.starves++
				return c.place(rw, sIdx, newRec, res)
			}
		}
		return nil
	}
	pVictim := &rw.buckets[pIdx]
	if pVictim.occupied {
		if pEnd < hi && c.demoteToE(pVictim) {
			eIdx := c.victimE(rw, pEnd, hi, res)
			if eIdx == -1 {
				c.evictOccupied(rw, pIdx, res)
			} else {
				c.evictOccupied(rw, eIdx, res)
				rw.buckets[eIdx] = *pVictim
				res.Writes++
				c.ev.demotes++
			}
		} else {
			c.evictOccupied(rw, pIdx, res)
		}
	}
	return c.place(rw, pIdx, newRec, res)
}

// place writes the new flow's record over whatever the bucket last held. A
// freed bucket keeps its last record's bytes here, stale pin included.
func (c *refCache) place(rw *refRow, idx int, newRec refRecord, res *Result) *refRecord {
	if rw.buckets[idx].Pinned {
		c.ev.reusedPinned++
	}
	rw.buckets[idx] = newRec
	res.Writes++
	return &rw.buckets[idx]
}

func (c *refCache) evictOccupied(rw *refRow, idx int, res *Result) {
	rec := &rw.buckets[idx]
	if !rec.occupied {
		return
	}
	out := *rec
	rec.occupied = false
	c.noteRemoval(rw, out.Hash, idx)
	c.pushRing(out)
	res.Writes++
	res.Evicted = true
}

func (c *refCache) agePins(rw *refRow, lo, hi int, now int64, res *Result) int {
	aged := 0
	for i := lo; i < hi; i++ {
		rec := &rw.buckets[i]
		res.Reads++
		if rec.occupied && rec.Pinned && now-rec.LastTs >= c.cfg.PinAgeNs {
			rec.Pinned = false
			aged++
		}
	}
	if aged > 0 {
		c.ev.ageSweeps++
	}
	res.PinAged += aged
	return aged
}

func (c *refCache) stalestPinned(rw *refRow, lo, hi int, res *Result) int {
	victim := -1
	for i := lo; i < hi; i++ {
		rec := &rw.buckets[i]
		res.Reads++
		if !rec.occupied || !rec.Pinned {
			continue
		}
		if victim == -1 || rec.LastTs < rw.buckets[victim].LastTs {
			victim = i
		}
	}
	return victim
}

func (c *refCache) noteRemoval(rw *refRow, hash uint64, idx int) {
	if rw.parked == 0 {
		return
	}
	lo, hi := c.liteSlice(hash)
	if idx < lo || idx >= hi {
		rw.parked--
	}
}

func (c *refCache) pushRing(out refRecord) {
	if !c.rings[out.Hash%uint64(len(c.rings))].Push(out.Record) {
		c.stats.RingDrops++
	}
	c.stats.Evictions++
}

// lookup returns the flow's row and bucket, or -1.
func (c *refCache) lookup(key packet.FlowKey) (*refRow, int) {
	hash := key.Hash()
	rw := &c.rows[c.rowIndex(hash)]
	for i := range rw.buckets {
		rec := &rw.buckets[i]
		if rec.occupied && rec.Hash == hash && rec.Key == key {
			return rw, i
		}
	}
	return rw, -1
}

func (c *refCache) setPinned(key packet.FlowKey, v bool) bool {
	rw, i := c.lookup(key)
	if i < 0 {
		return false
	}
	rec := &rw.buckets[i]
	switch {
	case v && !rec.Pinned:
		rec.Pinned = true
	case !v && rec.Pinned:
		rec.Pinned = false
		if c.mode == Lite && rw.parked > 0 {
			if lo, hi := c.liteSlice(rec.Hash); i < lo || i >= hi {
				out := *rec
				rec.occupied = false
				rw.parked--
				c.pushRing(out)
			}
		}
	}
	return true
}

func (c *refCache) UpdateState(key packet.FlowKey, fn func(*Record)) bool {
	rw, i := c.lookup(key)
	if i < 0 {
		return false
	}
	fn(&rw.buckets[i].Record)
	return true
}

func (c *refCache) Evict(key packet.FlowKey) bool {
	rw, i := c.lookup(key)
	if i < 0 {
		return false
	}
	out := rw.buckets[i]
	rw.buckets[i].occupied = false
	c.noteRemoval(rw, out.Hash, i)
	c.pushRing(out)
	return true
}

func (c *refCache) Snapshot(fn func(Record) bool) {
	for ri := range c.rows {
		rw := &c.rows[ri]
		for i := range rw.buckets {
			if rec := &rw.buckets[i]; rec.occupied && !fn(rec.Record) {
				return
			}
		}
	}
}

func (c *refCache) CleanRowsBounded(maxRows int) int {
	if c.mode != Lite || maxRows <= 0 {
		return 0
	}
	if maxRows > len(c.rows) {
		maxRows = len(c.rows)
	}
	n := 0
	for scanned := 0; scanned < maxRows; scanned++ {
		i := c.sweepCursor
		c.sweepCursor++
		if c.sweepCursor == len(c.rows) {
			c.sweepCursor = 0
		}
		rw := &c.rows[i]
		if rw.dirty {
			evicted := c.cleanRow(rw)
			rw.dirty = false
			n++
			c.stats.RowCleanups++
			c.stats.CleanupEvictions += uint64(evicted)
		}
	}
	return n
}

func (c *refCache) cleanRow(rw *refRow) int {
	b := c.cfg.LiteBuckets
	B := c.cfg.Buckets
	slices := B / b
	rowBits := uint(c.cfg.RowBits)
	recs, end := make([]refRecord, B), make([]int, slices)
	for i := 0; i < B; i++ {
		if rec := &rw.buckets[i]; rec.occupied {
			end[int((rec.Hash>>rowBits)%uint64(slices))]++
		}
	}
	sum := 0
	for s, n := range end {
		end[s] = sum
		sum += n
	}
	for i := 0; i < B; i++ {
		rec := &rw.buckets[i]
		if !rec.occupied {
			continue
		}
		s := int((rec.Hash >> rowBits) % uint64(slices))
		recs[end[s]] = *rec
		end[s]++
		rec.occupied = false
	}
	rw.parked = 0

	evicted, parked, start := 0, 0, 0
	for s := 0; s < slices; s++ {
		entries := recs[start:end[s]]
		start = end[s]
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
			c.pushRing(entries[oldest])
			evicted++
			entries[oldest] = entries[len(entries)-1]
			entries = entries[:len(entries)-1]
		}
		copy(rw.buckets[s*b:], entries[:min(b, len(entries))])
		if len(entries) > b {
			parked += copy(recs[parked:], entries[b:])
		}
	}
	for i, j := 0, 0; j < parked; i++ {
		if !rw.buckets[i].occupied {
			rw.buckets[i] = recs[j]
			j++
			rw.parked++
		}
	}
	if parked > 0 {
		c.ev.parkCleans++
	}
	return evicted
}

func (c *refCache) victimP(rw *refRow, lo, hi int, res *Result) int {
	if c.kind == kindS3FIFO {
		return c.victimIndex(rw, lo, hi, FIFO, res)
	}
	return c.victimIndex(rw, lo, hi, c.policyP, res)
}

func (c *refCache) victimE(rw *refRow, lo, hi int, res *Result) int {
	if c.kind == kindS3FIFO {
		return c.victimS3E(rw, lo, hi, res)
	}
	return c.victimIndex(rw, lo, hi, c.policyE, res)
}

func (c *refCache) onHit(rec *refRecord) {
	if rec.freq < s3fifoMaxFreq {
		rec.freq++
	}
}

func (c *refCache) promoteOnEHit() bool { return c.kind == kindBuffers }

func (c *refCache) demoteToE(victim *refRecord) bool {
	return c.kind == kindBuffers || victim.freq > 0
}

func (c *refCache) victimS3E(rw *refRow, lo, hi int, res *Result) int {
	victim := -1
	for i := lo; i < hi; i++ {
		rec := &rw.buckets[i]
		res.Reads++
		if !rec.occupied {
			return i
		}
		if rec.Pinned {
			continue
		}
		if victim == -1 {
			victim = i
			continue
		}
		v := &rw.buckets[victim]
		if rec.freq < v.freq || (rec.freq == v.freq && rec.FirstTs < v.FirstTs) {
			victim = i
		}
	}
	if victim != -1 {
		for i := lo; i < hi; i++ {
			rec := &rw.buckets[i]
			if i != victim && rec.occupied && !rec.Pinned && rec.freq > 0 {
				rec.freq--
			}
		}
	}
	return victim
}
