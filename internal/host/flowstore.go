package host

import (
	"math/bits"
	"slices"

	"smartwatch/internal/flowcache"
	"smartwatch/internal/packet"
)

// HostRecord is the host-side aggregate of one flow across every snapshot
// and eviction the sNIC exported. Because a flow can be evicted and
// re-inserted many times, the host is responsible for correct aggregation
// (§3.4); counters are summed, timestamps widened, detector state merged
// by most-recent.
type HostRecord struct {
	Key     packet.FlowKey
	Pkts    uint64
	Bytes   uint64
	FirstTs int64
	LastTs  int64
	State   uint64
	StateTs int64
	// Exports counts how many sNIC records were merged in.
	Exports int
}

// CostModel charges virtual host-CPU time for the work the host performs;
// Fig. 3a and Fig. 7b report these costs. Defaults follow the paper's
// observations that PCIe transactions and copies dominate.
type CostModel struct {
	// RecordNs is the cost to ingest one exported flow record.
	RecordNs float64
	// PacketNs is the cost to process one punted packet in a host NF
	// (PCIe + copy + NF logic).
	PacketNs float64
}

// DefaultCostModel mirrors the paper's relative costs: host packet
// processing is ~3.5x the sNIC path; record ingest is light.
func DefaultCostModel() CostModel { return CostModel{RecordNs: 180, PacketNs: 5200} }

// FlowStore is the host's global flow pool: a large hash-indexed aggregate
// of every record the sNIC exported, flushed per measurement interval to
// the KV flow log.
type FlowStore struct {
	cost CostModel
	// chunks hold the entries in first-ingest order, an entry never moves,
	// and entry id lives where chunkOf says. Chunks double from minChunk
	// entries to maxChunk and stay there: a store of n flows costs
	// O(log n + n/maxChunk) allocations and at most one chunk of slack.
	chunks [][]flowEntry
	// flows indexes the entry ids by flow hash.
	flows flowIndex
	// dirty lists, each once, the ids of the aggregates Ingest changed
	// since the last flush: an interval flush costs those, not every flow
	// ever seen.
	dirty   []uint32
	drain   []flowcache.Record // DrainRings scratch
	cpuNs   float64
	ingests uint64
}

// flowEntry is one aggregate plus its membership in the dirty list and,
// in what would be padding, the low 32 bits of the seq of its newest
// version in the flow log, which only KVStore.FlushInterval writes.
type flowEntry struct {
	HostRecord
	dirty  bool
	logged uint32
}

// The chunk sizes in entries: chunk k holds minChunk<<k of them up to
// maxChunk (40 KB to 640 KB). The doubling chunks end at entry growEnd.
const (
	minChunk   = 512
	chunkSteps = 4 // doublings from minChunk to maxChunk
	maxChunk   = minChunk << chunkSteps
	growEnd    = maxChunk - minChunk
)

// chunkOf returns the chunk holding entry id and the entry's offset in it.
func chunkOf(id int) (chunk, off int) {
	if id < growEnd {
		chunk = bits.Len(uint(id/minChunk+1)) - 1
		return chunk, id - (minChunk<<chunk - minChunk)
	}
	id -= growEnd
	return chunkSteps + id/maxChunk, id % maxChunk
}

// NewFlowStore builds a store with the given cost model.
func NewFlowStore(cost CostModel) *FlowStore {
	if cost.RecordNs <= 0 {
		cost = DefaultCostModel()
	}
	return &FlowStore{cost: cost}
}

// entry returns the entry with the given id.
func (fs *FlowStore) entry(id int) *flowEntry {
	c, off := chunkOf(id)
	return &fs.chunks[c][off]
}

// Ingest merges one exported sNIC record.
func (fs *FlowStore) Ingest(rec flowcache.Record) {
	fs.ingests++
	fs.cpuNs += fs.cost.RecordNs
	h := rec.Key.Hash()
	id, slot := fs.flows.probe(h, func(id int) bool { return fs.entry(id).Key == rec.Key })
	var hr *flowEntry
	if id >= 0 {
		hr = fs.entry(id)
	} else {
		id = fs.flows.n
		c, off := chunkOf(id)
		if off == 0 {
			fs.chunks = append(fs.chunks, make([]flowEntry, minChunk<<min(c, chunkSteps)))
		}
		hr = &fs.chunks[c][off]
		hr.HostRecord = HostRecord{Key: rec.Key, FirstTs: rec.FirstTs, StateTs: rec.StateTs, State: rec.State}
		fs.flows.insert(h, slot, id)
	}
	if !hr.dirty {
		hr.dirty = true
		fs.dirty = append(fs.dirty, uint32(id))
	}
	hr.Pkts += rec.Pkts
	hr.Bytes += rec.Bytes
	if rec.FirstTs < hr.FirstTs {
		hr.FirstTs = rec.FirstTs
	}
	if rec.LastTs > hr.LastTs {
		hr.LastTs = rec.LastTs
	}
	if rec.StateTs >= hr.StateTs {
		hr.State, hr.StateTs = rec.State, rec.StateTs
	}
	hr.Exports++
}

// Reserve makes room for n more flows: the index and the dirty list grow
// once to hold them, instead of doubling as Ingest meets them. n may
// overcount (flows already stored, or fewer arriving), so the index can
// end one doubling larger than growth would leave it. Entries still come
// in chunks.
func (fs *FlowStore) Reserve(n int) {
	if n <= 0 {
		return
	}
	fs.flows.reserve(fs.flows.n + n)
	fs.dirty = slices.Grow(fs.dirty, n)
}

// takeDirty visits, with its id, every entry Ingest changed since the
// previous call and empties the set.
func (fs *FlowStore) takeDirty(fn func(id uint32, e *flowEntry)) {
	for _, id := range fs.dirty {
		e := fs.entry(int(id))
		e.dirty = false
		fn(id, e)
	}
	fs.dirty = fs.dirty[:0]
}

// DrainRings pulls everything buffered in the sNIC eviction rings into the
// store and returns the record count (the periodic snapshotter thread).
func (fs *FlowStore) DrainRings(rings []*flowcache.Ring) int {
	n := 0
	for _, r := range rings {
		fs.drain = r.Drain(fs.drain[:0], 0)
		for i := range fs.drain {
			fs.Ingest(fs.drain[i])
		}
		n += len(fs.drain)
	}
	return n
}

// Get returns the aggregate for a flow.
func (fs *FlowStore) Get(k packet.FlowKey) (HostRecord, bool) {
	id := fs.flows.find(k.Hash(), func(id int) bool { return fs.entry(id).Key == k })
	if id < 0 {
		return HostRecord{}, false
	}
	return fs.entry(id).HostRecord, true
}

// Len returns the distinct-flow count.
func (fs *FlowStore) Len() int { return fs.flows.n }

// Each visits every aggregate, in first-ingest order.
func (fs *FlowStore) Each(fn func(HostRecord) bool) {
	for id := range fs.flows.n {
		if !fn(fs.entry(id).HostRecord) {
			return
		}
	}
}

// ChargePacket accounts one host-processed packet (punted from the sNIC).
func (fs *FlowStore) ChargePacket() { fs.cpuNs += fs.cost.PacketNs }

// CPUNs returns the accumulated virtual host-CPU time.
func (fs *FlowStore) CPUNs() float64 { return fs.cpuNs }

// Ingests returns the number of records merged.
func (fs *FlowStore) Ingests() uint64 { return fs.ingests }
