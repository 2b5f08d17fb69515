// Report merging: fold N worker reports plus the shared switch into one
// cluster view. The merge is deterministic — every fold walks the workers
// in lane order — so the merged report is part of the determinism
// contract: oracle A holds it byte-identical between parallel and
// sequential drives, and oracle B holds its integer surface equal to the
// single-platform partition twin. Scheduling-dependent series (ingress
// stalls, ring high-water marks, router wait and merge wall time) live in
// the cluster-specific sections and are documented as outside both oracles.
package cluster

import (
	"sort"
	"strconv"
	"time"

	"smartwatch/internal/core"
	"smartwatch/internal/detect"
	"smartwatch/internal/host"
	"smartwatch/internal/stats"
)

// SteerStats summarises the shared steering tier's fan-out.
type SteerStats struct {
	// Policy names the routing policy ("hash", "load").
	Policy string
	// Offered counts packets presented to the cluster; Direct and
	// Dropped are the shared switch's fast-path and blacklist verdicts.
	Offered, Direct, Dropped uint64
	// PerWorker is the packets steered to each lane.
	PerWorker []uint64
	// Imbalance is max(PerWorker)/mean(PerWorker) — 1.0 is a perfect
	// spread (0 when nothing was steered).
	Imbalance float64
	// Resteers counts load-policy stall diversions (always 0 under hash).
	Resteers uint64
	// Folds / FoldedEvents count control epochs and the worker feedback
	// events applied to the shared switch across them.
	Folds, FoldedEvents uint64
	// SyncWaitNs is the wall time the router spent blocked at epoch closes,
	// interval closes and the drain barrier (scheduling-dependent; outside
	// both oracles, like Ingress).
	SyncWaitNs int64
}

// IngressStats is one worker lane's queue observability (scheduling-
// dependent; excluded from the determinism oracles).
type IngressStats struct {
	// RingHWM is the deepest the ingress ring has been, in batches.
	RingHWM int64
	// Stalls counts router waits on a full ring or an empty free list;
	// WaitNs is the wall time they blocked it for.
	Stalls uint64
	WaitNs int64
	// Batches counts buffer handoffs; Wakeups counts parked-feeder wakes.
	Batches, Wakeups uint64
}

// Report is the merged cluster run summary. Merged is the cluster-wide
// fold (see merge rules below); Workers keeps each lane's raw report for
// per-worker analysis.
type Report struct {
	// Merged folds the worker reports into one platform-shaped view:
	//   - Counts: Total/ForwardedDirect/DroppedAtSwitch from the shared
	//     steering tier, ToSNIC/ToHost/Blocked summed across workers,
	//     Intervals the lane maximum (equal after the drain alignment).
	//   - SNIC: Processed/Dropped/EngineBusyNs summed, SpanNs the lane
	//     maximum, rates recomputed over the merged span, Latency the
	//     reservoir merge in lane order.
	//   - Cache: field-wise sum; Rings: lane-major concatenation, which
	//     under the partition split is exactly the single platform's
	//     shard-major ring order.
	//   - Alerts: stable-sorted by timestamp, lane order breaking ties.
	//   - SwitchStats: the shared switch's own counters.
	//   - Events/Host/HostCPUNs/Switchovers: summed. Note Events and
	//     Host.Flushes count per-worker activity (each lane runs its own
	//     interval heartbeat), so they exceed the single-platform twin's
	//     values by design.
	//   - Metrics: the cluster registry's final snapshot with each
	//     worker's tree grafted under "worker.N." (nil when metrics are
	//     disabled).
	Merged core.Report
	// Workers are the raw per-lane reports, lane-major.
	Workers []core.Report
	// Steer summarises the fan-out; Ingress the per-lane queues.
	Steer   SteerStats
	Ingress []IngressStats
	// MergeNs is the wall time the merge itself took.
	MergeNs int64
}

// merge folds the worker reports (mu held, workers drained and idle).
func (r *Runner) merge(reps []core.Report) Report {
	start := time.Now()
	var m core.Report
	m.Counts.Total = r.offered.Load()
	m.Counts.ForwardedDirect = r.direct.Load()
	m.Counts.DroppedAtSwitch = r.dropped.Load()

	lat := stats.NewQuantiles(0)
	for i := range reps {
		rep := &reps[i]
		m.Counts.ToSNIC += rep.Counts.ToSNIC
		m.Counts.ToHost += rep.Counts.ToHost
		m.Counts.Blocked += rep.Counts.Blocked
		if rep.Counts.Intervals > m.Counts.Intervals {
			m.Counts.Intervals = rep.Counts.Intervals
		}
		m.SNIC.Processed += rep.SNIC.Processed
		m.SNIC.Dropped += rep.SNIC.Dropped
		m.SNIC.EngineBusyNs += rep.SNIC.EngineBusyNs
		if rep.SNIC.SpanNs > m.SNIC.SpanNs {
			m.SNIC.SpanNs = rep.SNIC.SpanNs
		}
		lat.Merge(rep.SNIC.Latency)
		m.Cache = m.Cache.Add(rep.Cache)
		m.HostCPUNs += rep.HostCPUNs
		m.Switchovers += rep.Switchovers
		m.Events = m.Events.Add(rep.Events)
		m.Rings = append(m.Rings, rep.Rings...)
		m.Host = addFlusherStats(m.Host, rep.Host)
	}
	if m.SNIC.SpanNs > 0 {
		// Same formula as the engine's own report, over the merged span.
		m.SNIC.OfferedMpps = float64(m.SNIC.Processed+m.SNIC.Dropped) / m.SNIC.SpanNs * 1e3
		m.SNIC.AchievedMpps = float64(m.SNIC.Processed) / m.SNIC.SpanNs * 1e3
	}
	m.SNIC.Latency = lat
	m.Alerts = mergeAlerts(reps)
	if r.sw != nil {
		m.SwitchStats = r.sw.Stats()
	}

	out := Report{
		Merged:  m,
		Workers: reps,
		Steer: SteerStats{
			Policy:       r.cfg.Steer.String(),
			Offered:      r.offered.Load(),
			Direct:       r.direct.Load(),
			Dropped:      r.dropped.Load(),
			Resteers:     r.resteers.Load(),
			Folds:        r.folds.Load(),
			FoldedEvents: r.foldedEv.Load(),
			SyncWaitNs:   r.syncWaitNs.Load(),
		},
	}
	var steered, maxLane uint64
	for _, w := range r.workers {
		n := w.pkts.Load()
		out.Steer.PerWorker = append(out.Steer.PerWorker, n)
		steered += n
		if n > maxLane {
			maxLane = n
		}
		out.Ingress = append(out.Ingress, IngressStats{
			RingHWM: w.hwm.Load(),
			Stalls:  w.stalls.Load(),
			WaitNs:  w.waitNs.Load(),
			Batches: w.batches.Load(),
			Wakeups: w.wakeups.Load(),
		})
	}
	if steered > 0 {
		out.Steer.Imbalance = float64(maxLane) * float64(r.w) / float64(steered)
	}

	// Metric trees: the cluster registry's own series (including the
	// cluster.* collector) stamped at the final flush timestamp, with
	// each worker's final tree grafted under "worker.N.".
	if r.cfg.Metrics != nil {
		snap := r.cfg.Metrics.Snapshot(r.nextInterval)
		for i := range reps {
			snap.AddPrefixed("worker."+strconv.Itoa(i)+".", reps[i].Metrics)
		}
		out.Merged.Metrics = snap
	}

	out.MergeNs = time.Since(start).Nanoseconds()
	r.mergeNs.Store(out.MergeNs)
	return out
}

// mergeAlerts interleaves the lanes' alert streams in timestamp order,
// lane order breaking ties (each lane's stream is already time-ordered,
// and the stable sort preserves the lane-major appendix order).
func mergeAlerts(reps []core.Report) []detect.Alert {
	var n int
	for i := range reps {
		n += len(reps[i].Alerts)
	}
	if n == 0 {
		return nil
	}
	out := make([]detect.Alert, 0, n)
	for i := range reps {
		out = append(out, reps[i].Alerts...)
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Ts < out[b].Ts })
	return out
}

// addFlusherStats is the field-wise FlusherStats fold.
func addFlusherStats(a, b host.FlusherStats) host.FlusherStats {
	return host.FlusherStats{Flushes: a.Flushes + b.Flushes, Drained: a.Drained + b.Drained}
}
