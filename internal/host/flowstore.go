package host

import (
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
	// chunks hold the entries in first-ingest order, entryChunk to a chunk:
	// one allocation per entryChunk flows, and an entry never moves (dirty
	// points into the chunks). Entry id lives at chunks[id/entryChunk].
	chunks []*[entryChunk]flowEntry
	// flows indexes the entry ids by flow hash.
	flows flowIndex
	// dirty lists, each once, the aggregates Ingest changed since the last
	// flush: an interval flush costs those, not every flow ever seen.
	dirty   []*flowEntry
	drain   []flowcache.Record // DrainRings scratch
	cpuNs   float64
	ingests uint64
}

// flowEntry is one aggregate plus its membership in the dirty list.
type flowEntry struct {
	HostRecord
	dirty bool
}

// entryChunk is the chunk size in entries (40 KB of them).
const entryChunk = 512

// NewFlowStore builds a store with the given cost model.
func NewFlowStore(cost CostModel) *FlowStore {
	if cost.RecordNs <= 0 {
		cost = DefaultCostModel()
	}
	return &FlowStore{cost: cost}
}

// entry returns the entry with the given id.
func (fs *FlowStore) entry(id int) *flowEntry {
	return &fs.chunks[id/entryChunk][id%entryChunk]
}

// lookup returns the entry of flow k, whose hash is h, or nil.
func (fs *FlowStore) lookup(k packet.FlowKey, h uint64) *flowEntry {
	id := fs.flows.find(h, func(id int) bool { return fs.entry(id).Key == k })
	if id < 0 {
		return nil
	}
	return fs.entry(id)
}

// Ingest merges one exported sNIC record.
func (fs *FlowStore) Ingest(rec flowcache.Record) {
	fs.ingests++
	fs.cpuNs += fs.cost.RecordNs
	h := rec.Key.Hash()
	hr := fs.lookup(rec.Key, h)
	if hr == nil {
		id := fs.flows.n
		if id%entryChunk == 0 {
			fs.chunks = append(fs.chunks, new([entryChunk]flowEntry))
		}
		hr = fs.entry(id)
		hr.HostRecord = HostRecord{Key: rec.Key, FirstTs: rec.FirstTs, StateTs: rec.StateTs, State: rec.State}
		fs.flows.add(h, id)
	}
	if !hr.dirty {
		hr.dirty = true
		fs.dirty = append(fs.dirty, hr)
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

// takeDirty visits every aggregate Ingest changed since the previous call
// and empties the set.
func (fs *FlowStore) takeDirty(fn func(HostRecord)) {
	for _, e := range fs.dirty {
		e.dirty = false
		fn(e.HostRecord)
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
	hr := fs.lookup(k, k.Hash())
	if hr == nil {
		return HostRecord{}, false
	}
	return hr.HostRecord, true
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
