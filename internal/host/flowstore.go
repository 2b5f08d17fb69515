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

// FlowStore is the host's global flow pool: a large hash-backed aggregate
// of every record the sNIC exported, flushed per measurement interval to
// the KV flow log.
type FlowStore struct {
	cost  CostModel
	flows map[packet.FlowKey]*flowEntry
	// dirty lists, each once, the aggregates Ingest changed since the last
	// flush: an interval flush costs those, not every flow ever seen.
	dirty []*flowEntry
	// slab is the chunk new entries are carved from: one allocation per
	// entryChunk flows instead of one per flow. A full chunk is left where
	// it is (flows and dirty point into it) and a fresh one started.
	slab    []flowEntry
	drain   []flowcache.Record // DrainRings scratch
	cpuNs   float64
	ingests uint64
}

// flowEntry is one aggregate plus its membership in the dirty list.
type flowEntry struct {
	HostRecord
	dirty bool
}

// entryChunk is the slab's chunk size in entries (40 KB of them).
const entryChunk = 512

// NewFlowStore builds a store with the given cost model.
func NewFlowStore(cost CostModel) *FlowStore {
	if cost.RecordNs <= 0 {
		cost = DefaultCostModel()
	}
	return &FlowStore{cost: cost, flows: map[packet.FlowKey]*flowEntry{}}
}

// Ingest merges one exported sNIC record.
func (fs *FlowStore) Ingest(rec flowcache.Record) {
	fs.ingests++
	fs.cpuNs += fs.cost.RecordNs
	hr := fs.flows[rec.Key]
	if hr == nil {
		if len(fs.slab) == cap(fs.slab) {
			fs.slab = make([]flowEntry, 0, entryChunk)
		}
		fs.slab = append(fs.slab, flowEntry{HostRecord: HostRecord{Key: rec.Key, FirstTs: rec.FirstTs, StateTs: rec.StateTs, State: rec.State}})
		hr = &fs.slab[len(fs.slab)-1]
		fs.flows[rec.Key] = hr
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
	hr, ok := fs.flows[k]
	if !ok {
		return HostRecord{}, false
	}
	return hr.HostRecord, true
}

// Len returns the distinct-flow count.
func (fs *FlowStore) Len() int { return len(fs.flows) }

// Each visits every aggregate.
func (fs *FlowStore) Each(fn func(HostRecord) bool) {
	for _, hr := range fs.flows {
		if !fn(hr.HostRecord) {
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
