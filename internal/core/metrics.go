// Metrics assembly (DESIGN.md §10): with Config.Metrics set, the platform
// registers the sNIC queue-delay histogram (the one series pushed per
// packet) and a collector that pulls every tier's traffic, occupancy, drop
// and depth series at snapshot time, and emits one JSON-lines snapshot per
// monitoring interval to Config.MetricsWriter. Snapshots are stamped with
// the closing interval's virtual timestamp, so runs over the same trace
// emit byte-identical lines for the deterministic series (see DESIGN.md
// §10 for which series are deterministic across shard/batch settings).
package core

import (
	"fmt"

	"smartwatch/internal/obs"
	"smartwatch/internal/tier"
)

// wheelOwner is implemented by detectors that own a host timing wheel
// (detect.ForgedRST, detect.LowSlow), whatever its payload type; the
// collector surfaces their pending-entry depth.
type wheelOwner interface{ WheelDepth() int }

// queueDelayBounds buckets the tier.<wire|nic>.queue_delay_ns histograms.
var queueDelayBounds = obs.ExpBounds(100, 4, 10)

// instrumentMetrics wires Config.Metrics through the platform: the pushed
// histogram, the pull collector, and the per-interval snapshot emit.
// Called from New.
func (pl *Platform) instrumentMetrics() {
	reg := pl.cfg.Metrics
	pl.metrics = reg
	pl.nicQueueDelay = reg.Histogram("tier.nic.queue_delay_ns", queueDelayBounds)
	reg.AddCollector(pl.collectMetrics)
	pl.emitter = obs.NewEmitter(reg, pl.cfg.MetricsWriter)
	// An interval observer: it runs after endInterval's switch steer and
	// host flush, so the snapshot sees both applied for this interval.
	pl.bus.Subscribe(tier.KindInterval, "metrics-emit", func(e tier.Event) {
		ts := e.(tier.IntervalEvent).Ts
		if pl.cfg.MetricsWriter != nil {
			pl.emitter.Emit(ts)
			return
		}
		// No writer: still materialise, so LastSnapshot stays fresh for
		// live observers (the expvar endpoint).
		reg.Snapshot(ts)
	})
}

// collectMetrics is the pull half of the metrics tree: series that live in
// tier-owned structures (occupancy, ring depths, store sizes) are sampled
// at snapshot time rather than pushed per packet. It runs on the snapshot
// caller's goroutine — the platform driver during interval closes.
func (pl *Platform) collectMetrics(s *obs.Snapshot) {
	// Platform packet fates — the datapath counters of the deterministic
	// subset.
	counts := pl.counts.snapshot()
	s.SetCounter("packets.total", counts.Total)
	s.SetCounter("packets.forwarded_direct", counts.ForwardedDirect)
	s.SetCounter("packets.dropped_at_switch", counts.DroppedAtSwitch)
	s.SetCounter("packets.to_snic", counts.ToSNIC)
	s.SetCounter("packets.to_host", counts.ToHost)
	s.SetCounter("packets.blocked", counts.Blocked)
	s.SetCounter("packets.intervals", counts.Intervals)
	s.SetCounter("core.time_jumps", pl.counts.timeJumps.Load())
	s.SetCounter("core.time_regressions", pl.counts.timeRegressions.Load())

	// Per-stage traffic (DESIGN.md §10.2), each already a platform count:
	// ingest sees every packet and passes it on with no wait, the steer
	// verdicts are the three packet fates, and both sNIC-side stages see
	// each packet the engine hands tierHandler — the observations of the
	// queue-delay histogram, which unlike snic.processed is not reset by
	// the next drive.
	setStage(s, "tier.wire.ingest", counts.Total, 0, 0)
	wireDelay := obs.HistogramValue{Bounds: queueDelayBounds, Buckets: make([]uint64, len(queueDelayBounds)+1), Count: counts.Total}
	wireDelay.Buckets[0] = counts.Total
	s.Histograms["tier.wire.queue_delay_ns"] = wireDelay
	if pl.sw != nil {
		setStage(s, "tier.wire.steer", counts.ToSNIC, counts.ForwardedDirect, counts.DroppedAtSwitch)
	}
	handled := s.Histograms["tier.nic.queue_delay_ns"].Count
	setStage(s, "tier.nic.datapath", handled, 0, 0)
	setStage(s, "tier.nic.host", handled, 0, 0)

	// FlowCache: aggregate stats, occupancy/pinning, per-ring depth/drops,
	// mode churn and residency.
	st := pl.cache.Stats()
	s.SetCounter("flowcache.p_hits", st.PHits)
	s.SetCounter("flowcache.e_hits", st.EHits)
	s.SetCounter("flowcache.misses", st.Misses)
	s.SetCounter("flowcache.inserts", st.Inserts)
	s.SetCounter("flowcache.evictions", st.Evictions)
	s.SetCounter("flowcache.ring_drops", st.RingDrops)
	s.SetCounter("flowcache.host_punts", st.HostPunts)
	s.SetCounter("flowcache.pin_denied", st.PinDenied)
	s.SetCounter("flowcache.row_cleanups", st.RowCleanups)
	s.SetCounter("flowcache.cleanup_evictions", st.CleanupEvictions)
	s.SetCounter("flowcache.reads", st.Reads)
	s.SetCounter("flowcache.writes", st.Writes)
	occ, pinned := pl.cache.OccupancyStats()
	s.SetGauge("flowcache.occupancy", float64(occ))
	s.SetGauge("flowcache.pinned", float64(pinned))
	for i, rs := range pl.cache.RingStats() {
		s.SetGauge(fmt.Sprintf("flowcache.ring.%03d.depth", i), float64(rs.Len))
		s.SetCounter(fmt.Sprintf("flowcache.ring.%03d.drops", i), rs.Drops)
	}
	s.SetCounter("flowcache.switchovers", pl.cache.Switchovers())
	g, l := pl.cache.ModeResidency()
	s.SetGauge("flowcache.mode_residency.general_ns", float64(g))
	s.SetGauge("flowcache.mode_residency.lite_ns", float64(l))

	// sNIC datapath: input-buffer loss and engine occupancy.
	if pl.engine != nil {
		processed, dropped, busyNs := pl.engine.LiveCounts()
		s.SetCounter("snic.processed", processed)
		s.SetCounter("snic.dropped", dropped)
		s.SetGauge("snic.engine_busy_ns", busyNs)
		span := s.TsNs
		if span > 0 {
			pmes := float64(pl.cfg.SNIC.Profile.PMEs)
			s.SetGauge("snic.utilization", busyNs/(float64(span)*pmes))
		}
	}

	// Host tier: flow store, flow log, flusher, NF timing wheels.
	s.SetGauge("host.store.flows", float64(pl.store.Len()))
	s.SetCounter("host.store.ingests", pl.store.Ingests())
	s.SetGauge("host.store.cpu_ns", pl.store.CPUNs())
	s.SetCounter("host.kv.writes", pl.kv.Writes())
	s.SetGauge("host.kv.intervals", float64(len(pl.kv.Intervals())))
	fst := pl.flusher.Stats()
	s.SetCounter("host.flush.count", fst.Flushes)
	s.SetCounter("host.flush.drained", fst.Drained)
	wheelDepth, haveWheel := 0, false
	for _, d := range pl.cfg.Detectors {
		if wo, ok := d.(wheelOwner); ok {
			wheelDepth += wo.WheelDepth()
			haveWheel = true
		}
	}
	if haveWheel {
		s.SetGauge("host.timing_wheel.depth", float64(wheelDepth))
	}

	// Control plane: events per kind, reactions and observers delivered.
	bst := pl.bus.Stats()
	for k, n := range bst.Published {
		s.SetCounter("bus.published."+tier.Kind(k).String(), n)
	}
	s.SetCounter("bus.delivered", bst.Delivered)
	s.SetCounter("bus.panics", bst.Panics)
}

// setStage writes one stage's tier.<side>.<stage>.{packets,verdict.*}
// series from how many packets left it with each verdict.
func setStage(s *obs.Snapshot, base string, cont, direct, dropped uint64) {
	s.SetCounter(base+".packets", cont+direct+dropped)
	s.SetCounter(base+".verdict."+tier.Continue.String(), cont)
	s.SetCounter(base+".verdict."+tier.ForwardDirect.String(), direct)
	s.SetCounter(base+".verdict."+tier.DropAtSwitch.String(), dropped)
}

// Metrics exposes the platform's registry (nil when metrics are disabled).
func (pl *Platform) Metrics() *obs.Registry { return pl.metrics }

// MetricsErr reports the first snapshot-emit write error, if any.
func (pl *Platform) MetricsErr() error {
	if pl.emitter == nil {
		return nil
	}
	return pl.emitter.Err()
}
