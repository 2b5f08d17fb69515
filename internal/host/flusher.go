package host

import (
	"fmt"

	"smartwatch/internal/flowcache"
)

// Flusher is the host tier's interval worker, called at each interval
// close after the switch steers: drain the sNIC eviction rings into the
// flow store, advance the NF timers, persist the interval to the flow log.
type Flusher struct {
	Store *FlowStore
	Ports *Ports
	KV    *KVStore
	// Rings are the FlowCache eviction rings to drain (shard-major when
	// the datapath is sharded).
	Rings []*flowcache.Ring

	flushes uint64
	drained uint64
	// flushErr is the first failed flow-log flush of flushErrs.
	flushErr  error
	flushErrs uint64
}

// FlusherStats summarises the flusher's cumulative work.
type FlusherStats struct {
	// Flushes counts OnInterval invocations (FinalFlush excluded — it is
	// the end-of-run export, not interval work).
	Flushes uint64
	// Drained counts flow records drained from the eviction rings, across
	// interval flushes and the final flush.
	Drained uint64
}

// Stats returns the cumulative flusher counters. Call from the interval
// goroutine (the flush runs synchronously in the interval close, so
// collectors running there see a settled value).
func (f *Flusher) Stats() FlusherStats {
	return FlusherStats{Flushes: f.flushes, Drained: f.drained}
}

// Err is nil when every flush reached the flow log, otherwise the first
// failure and how many flushes failed.
func (f *Flusher) Err() error {
	if f.flushErr == nil {
		return nil
	}
	return fmt.Errorf("host: %d flow-log flush(es) failed, first: %w", f.flushErrs, f.flushErr)
}

// flush persists the store's changes under ts. The drive cannot stop for
// a failing log writer mid-interval, so a failure is kept for Err.
func (f *Flusher) flush(ts int64) {
	if err := f.KV.FlushInterval(ts, f.Store); err != nil {
		f.flushErrs++
		if f.flushErr == nil {
			f.flushErr = err
		}
	}
}

// OnInterval runs the per-interval host work: rings, NF timers, flow-log
// flush, in that order.
func (f *Flusher) OnInterval(ts int64) {
	f.drained += uint64(f.Store.DrainRings(f.Rings))
	f.flushes++
	f.Ports.Tick(ts)
	f.flush(ts)
}

// FinalFlush is the lossless end-of-run export: drain the rings, ingest
// every record still resident in the FlowCache via snapshot, and flush
// under ts. Unlike OnInterval it does not advance NF timers — the run is
// over.
func (f *Flusher) FinalFlush(ts int64, snapshot func(func(flowcache.Record) bool)) {
	f.drained += uint64(f.Store.DrainRings(f.Rings))
	snapshot(func(r flowcache.Record) bool {
		f.Store.Ingest(r)
		return true
	})
	f.flush(ts)
}
