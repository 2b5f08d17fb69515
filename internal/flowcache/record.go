package flowcache

import (
	"unsafe"

	"smartwatch/internal/packet"
)

// Record is one cached flow entry: 64 bytes, one aligned cache line of the
// table (DESIGN.md §9.1). All fields are guarded by the owning row's latch;
// Snapshot/Lookup return copies so readers never observe a torn record.
// What is per bucket but not per flow — live, pinned, the policy's access
// frequency — is in the row header (row.go), so an empty bucket's memory is
// never read; a flow's hash is Key.Hash(), recomputed off the probe path.
type Record struct {
	// Key is the canonical session key; both directions update one record.
	Key packet.FlowKey
	// Pkts and Bytes count everything seen for the flow since insertion.
	Pkts  uint64
	Bytes uint64
	// FirstTs/LastTs are insertion and last-update virtual times; LastTs
	// drives LRU, FirstTs drives FIFO.
	FirstTs int64
	LastTs  int64
	// State is detector-owned per-flow state (bitfields, counters); the
	// cache itself never interprets it.
	State uint64
	// StateTs is a detector-owned timestamp (e.g. last RST arrival).
	StateTs int64
}

// recordSize is the table's stride. Neither array length below may be
// negative, so the package compiles only while Record is exactly that.
const recordSize = 64

var _, _ = [unsafe.Sizeof(Record{}) - recordSize]struct{}{}, [recordSize - unsafe.Sizeof(Record{})]struct{}{}

// Stats is the cache's cumulative operation counters, the measurements
// behind Figs. 4b, 5a and 7b.
type Stats struct {
	// PHits / EHits / Misses classify every processed packet.
	PHits, EHits, Misses uint64
	// Inserts counts new flow records created (subset of Misses).
	Inserts uint64
	// Evictions counts records pushed toward the host rings.
	Evictions uint64
	// RingDrops counts evicted records lost to full rings (host too slow).
	RingDrops uint64
	// HostPunts counts packets sent to the host because every candidate
	// record was pinned.
	HostPunts uint64
	// PinDenied counts evictions refused because the victim was pinned.
	PinDenied uint64
	// RowCleanups counts lazy General->Lite row reorderings (Alg. 3).
	RowCleanups uint64
	// CleanupEvictions counts records evicted during row cleanup.
	CleanupEvictions uint64
	// StarveEvictions counts pinned records force-evicted by the
	// pin-starvation escape valve (Config.PinStarveEvict): inserts that
	// would have punted because every candidate was pinned, served
	// instead by evicting the stalest pin to the rings.
	StarveEvictions uint64
	// Reads / Writes are abstract memory operations, converted to cycles
	// by the sNIC simulator (reads yield the thread, writes stall).
	Reads, Writes uint64
}

// Add returns the field-wise sum s + o — the merge operation the cluster
// runner uses to fold per-worker cache counters into one aggregate
// (Sharded.Stats applies the same fold across shards).
func (s Stats) Add(o Stats) Stats {
	return Stats{
		PHits:            s.PHits + o.PHits,
		EHits:            s.EHits + o.EHits,
		Misses:           s.Misses + o.Misses,
		Inserts:          s.Inserts + o.Inserts,
		Evictions:        s.Evictions + o.Evictions,
		RingDrops:        s.RingDrops + o.RingDrops,
		HostPunts:        s.HostPunts + o.HostPunts,
		PinDenied:        s.PinDenied + o.PinDenied,
		RowCleanups:      s.RowCleanups + o.RowCleanups,
		CleanupEvictions: s.CleanupEvictions + o.CleanupEvictions,
		StarveEvictions:  s.StarveEvictions + o.StarveEvictions,
		Reads:            s.Reads + o.Reads,
		Writes:           s.Writes + o.Writes,
	}
}

// Processed returns the total packets processed.
func (s Stats) Processed() uint64 { return s.PHits + s.EHits + s.Misses }

// HitRate returns the fraction of packets served from P or E.
func (s Stats) HitRate() float64 {
	t := s.Processed()
	if t == 0 {
		return 0
	}
	return float64(s.PHits+s.EHits) / float64(t)
}

// Outcome classifies one Process call (Fig. 4a's three cases plus the
// pinned-row punt).
type Outcome uint8

// Outcomes.
const (
	// PHit: the flow was found in the Primary buffer.
	PHit Outcome = iota
	// EHit: found in the Eviction buffer and swapped into P.
	EHit
	// Miss: not found; a new record was inserted (possibly evicting).
	Miss
	// HostPunt: no record could be created because all candidates are
	// pinned; the packet must be processed by the host.
	HostPunt
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case PHit:
		return "p-hit"
	case EHit:
		return "e-hit"
	case Miss:
		return "miss"
	default:
		return "host-punt"
	}
}

// Result reports what one Process call did and what it cost.
type Result struct {
	Outcome Outcome
	// Reads/Writes are the abstract memory operations this packet caused;
	// the DES converts them to cycles.
	Reads, Writes int
	// Evicted is set when a record was pushed to a ring this call.
	Evicted bool
	// RowCleaned is set when this call performed a lazy Alg.-3 cleanup.
	RowCleaned bool
	// CleanupEvicted is the number of records evicted by that cleanup
	// (meaningful only when RowCleaned is set). Carried in the Result so
	// stat accounting can be derived from it after the latch is released —
	// the batch path's accumulator depends on every counter except the
	// ring-occupancy pair being derivable from the Result alone.
	CleanupEvicted int
	// Pinned reports whether the returned record's bucket was pinned when
	// the call finished (the bit lives in the row header, not the record).
	// StarveEvicted is set when the insert displaced a pinned record via
	// the pin-starvation escape valve (Config.PinStarveEvict).
	Pinned, StarveEvicted bool
}
