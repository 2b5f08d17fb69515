package flowcache

import (
	"smartwatch/internal/packet"
)

// Cuckoo is the flow-record store design the paper evaluates and rejects
// (§3.2): a two-choice cuckoo hash table whose collisions relocate resident
// entries to their alternate bucket. Relocations are writes, and on the
// sNIC writes stall the calling thread while reads merely yield — so under
// CAIDA-like load the paper measures FlowCache's 99.9th-percentile latency
// 2.43x lower than Cuckoo's at a matched 12-operation bound. This
// implementation exists for that ablation (see the Cuckoo benchmarks and
// the flowcache-vs-cuckoo experiment); it is a correct, usable store in
// its own right.
type Cuckoo struct {
	cfg     CuckooConfig
	buckets []cuckooSlot
	stats   CuckooStats
}

// cuckooSlot is one table slot: the record, its key's hash (a kick needs the
// resident's other slot) and whether it is live (a cuckoo table has no rows).
type cuckooSlot struct {
	Record
	hash     uint64
	occupied bool
}

// CuckooConfig shapes the table.
type CuckooConfig struct {
	// Slots is the table size (power of two).
	SlotBits int
	// MaxKicks bounds the relocation chain (the paper compares 12
	// recursive insertions against 12 FlowCache buckets).
	MaxKicks int
}

// CuckooStats counts operations; Writes include every relocation.
type CuckooStats struct {
	Hits, Misses, Inserts, Evictions uint64
	Reads, Writes                    uint64
}

// NewCuckoo builds a table with 2^SlotBits slots.
func NewCuckoo(cfg CuckooConfig) *Cuckoo {
	if cfg.SlotBits < 2 || cfg.SlotBits > 28 {
		panic("flowcache: cuckoo SlotBits out of range")
	}
	if cfg.MaxKicks <= 0 {
		cfg.MaxKicks = 12
	}
	return &Cuckoo{cfg: cfg, buckets: make([]cuckooSlot, 1<<cfg.SlotBits)}
}

func (t *Cuckoo) idx1(hash uint64) uint64 { return hash & uint64(len(t.buckets)-1) }
func (t *Cuckoo) idx2(hash uint64) uint64 {
	return packet.Hash64(hash^0xc3a5c85c97cb3127) & uint64(len(t.buckets)-1)
}

// Process updates or inserts the packet's flow record and reports the
// outcome with read/write operation counts (comparable to Cache.Process).
// Insertions displace residents along the cuckoo chain; a chain longer
// than MaxKicks evicts the displaced record (returned to the caller's
// accounting as an eviction).
func (t *Cuckoo) Process(p *packet.Packet) (*Record, Result) {
	var key packet.FlowKey
	hash := p.Tuple.Identity(&key)
	res := Result{}

	i1, i2 := t.idx1(hash), t.idx2(hash)
	for _, i := range [2]uint64{i1, i2} {
		rec := &t.buckets[i]
		res.Reads++
		if rec.occupied && rec.hash == hash && rec.Key == key {
			rec.update(p)
			res.Outcome = PHit
			res.Writes++
			t.stats.Hits++
			t.stats.Reads += uint64(res.Reads)
			t.stats.Writes += uint64(res.Writes)
			return &rec.Record, res
		}
	}

	// Miss: insert, kicking residents to their alternate slots.
	t.stats.Misses++
	cur := cuckooSlot{occupied: true, hash: hash, Record: Record{
		Key:  key,
		Pkts: 1, Bytes: uint64(p.Size),
		FirstTs: p.Ts, LastTs: p.Ts,
	}}
	slot := i1
	var placedAt = -1
	for kick := 0; kick <= t.cfg.MaxKicks; kick++ {
		rec := &t.buckets[slot]
		res.Reads++
		if !rec.occupied {
			*rec = cur
			res.Writes++
			if placedAt == -1 {
				placedAt = int(slot)
			}
			t.stats.Inserts++
			t.stats.Reads += uint64(res.Reads)
			t.stats.Writes += uint64(res.Writes)
			res.Outcome = Miss
			return &t.buckets[placedAt].Record, res
		}
		// Displace the resident to its alternate slot: one write now, and
		// the displaced entry continues the chain.
		victim := *rec
		*rec = cur
		res.Writes++
		if placedAt == -1 {
			placedAt = int(slot)
		}
		cur = victim
		if alt := t.idx1(cur.hash); alt != slot {
			slot = alt
		} else {
			slot = t.idx2(cur.hash)
		}
	}
	// Chain exhausted: the final displaced record is evicted.
	t.stats.Evictions++
	res.Evicted = true
	res.Outcome = Miss
	t.stats.Inserts++
	t.stats.Reads += uint64(res.Reads)
	t.stats.Writes += uint64(res.Writes)
	return &t.buckets[placedAt].Record, res
}

// Lookup finds a record without updating it.
func (t *Cuckoo) Lookup(key packet.FlowKey) (Record, bool) {
	hash := key.Hash()
	for _, i := range [2]uint64{t.idx1(hash), t.idx2(hash)} {
		rec := &t.buckets[i]
		if rec.occupied && rec.hash == hash && rec.Key == key {
			return rec.Record, true
		}
	}
	return Record{}, false
}

// Occupancy returns the live record count.
func (t *Cuckoo) Occupancy() int {
	n := 0
	for i := range t.buckets {
		if t.buckets[i].occupied {
			n++
		}
	}
	return n
}

// Stats returns cumulative counters.
func (t *Cuckoo) Stats() CuckooStats { return t.stats }
