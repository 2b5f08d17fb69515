package experiments

import (
	"fmt"
	"sort"
	"strings"

	"smartwatch/internal/cluster"
	"smartwatch/internal/core"
	"smartwatch/internal/flowcache"
	"smartwatch/internal/host"
	"smartwatch/internal/packet"
	"smartwatch/internal/snic"
	"smartwatch/internal/trace"
)

// clusterPresetStream caps the CAIDA-2018 preset at n packets,
// regenerated from seeds on every call (the oracle replays it three
// times per row).
func clusterPresetStream(n int) packet.Stream {
	return func(yield func(packet.Packet) bool) {
		i := 0
		for p := range trace.CAIDA(2018).Stream() {
			if i >= n || !yield(p) {
				return
			}
			i++
		}
	}
}

// clusterNoDropSNIC mirrors the single-platform oracle's datapath: the
// input buffer never drops, so every steered packet reaches the handler
// on both sides of the partition comparison (one engine at full rate
// would shed load that W fractional-rate engines would not).
func clusterNoDropSNIC() snic.Config {
	cfg := snic.DefaultConfig()
	cfg.QueueDropNs = 1e15
	return cfg
}

// clusterRunSig flattens a merged cluster report's deterministic surface
// (counts, cache stats, latency quantiles, per-lane reports, steer
// fan-out) for the parallel-vs-sequential byte comparison. Scheduling-
// dependent series (ingress stalls, ring HWM, merge wall time) are
// deliberately absent.
func clusterRunSig(rep cluster.Report) string {
	var b strings.Builder
	dump := func(tag string, r *core.Report) {
		fmt.Fprintf(&b, "%s counts %+v cache %+v snic=%d lat(p50=%v p99=%v) hostcpu=%v events %+v\n",
			tag, r.Counts, r.Cache, r.SNIC.Processed,
			r.SNIC.Latency.Quantile(0.5), r.SNIC.Latency.Quantile(0.99),
			r.HostCPUNs, r.Events)
	}
	dump("merged", &rep.Merged)
	fmt.Fprintf(&b, "steer per=%v imb=%v folds=%d\n",
		rep.Steer.PerWorker, rep.Steer.Imbalance, rep.Steer.Folds)
	for i := range rep.Workers {
		dump(fmt.Sprintf("w%d", i), &rep.Workers[i])
	}
	return b.String()
}

// clusterKVSig renders the lane-union flow log (map order neutralised) —
// under the partition split it must equal the single platform's log.
func clusterKVSig(pls []*core.Platform) string {
	byTs := map[int64][]string{}
	var order []int64
	for _, pl := range pls {
		for _, ts := range pl.KV().Intervals() {
			if _, seen := byTs[ts]; !seen {
				order = append(order, ts)
			}
			pl.KV().Scan(ts, func(hr host.HostRecord) bool {
				byTs[ts] = append(byTs[ts], fmt.Sprintf("%s %d %d %d %d",
					hr.Key.String(), hr.Pkts, hr.Bytes, hr.FirstTs, hr.LastTs))
				return true
			})
		}
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	var b strings.Builder
	for _, ts := range order {
		lines := byTs[ts]
		if len(lines) == 0 {
			continue
		}
		sort.Strings(lines)
		fmt.Fprintf(&b, "%d\n%s\n", ts, strings.Join(lines, "\n"))
	}
	return b.String()
}

// ClusterScaling characterises the cluster runner (DESIGN.md §14): for
// each power-of-two worker count, the same CAIDA-2018 stream runs three
// times — the parallel cluster drive, the sequential reference drive of
// the same topology (oracle A), and a single platform sharded W ways on
// a drop-free datapath (oracle B) — and the table reports the
// deterministic fan-out behaviour plus both equivalence verdicts. No
// wall-clock values appear: the table is byte-stable across runs and
// machines; wall-clock speedup is the fanout2 workload's
// cluster.speedup_vs_backbone in benchmark/.
//
// balanced_speedup is the upper bound consistent hashing admits on this
// stream: offered / max(per-worker share) — what a perfectly overlapped
// drive could achieve given the hash balance, independent of box size.
func ClusterScaling(scale float64) *Table {
	n := scaleInt(600_000, scale)

	t := &Table{
		ID: "cluster", Title: "Cluster runner scaling (consistent-hash fan-out, capacity-invariant partitions)",
		Columns: []string{"workers", "rows_per_worker", "offered", "imbalance", "balanced_speedup",
			"hit_rate", "parallel_identical", "single_platform_identical"},
	}
	for _, w := range []int{1, 2, 4, 8} {
		workerCfg := core.Config{
			IntervalNs: 100e6, BatchSize: 64,
			Cache: flowcache.DefaultConfig(12),
			SNIC:  clusterNoDropSNIC(),
		}
		run := func(sequential bool) (cluster.Report, string, string) {
			r := cluster.New(cluster.Config{
				Workers: w, Worker: workerCfg,
				QueueBatch: 256, SyncPackets: 4096, Sequential: sequential,
			})
			rep, err := r.Run(clusterPresetStream(n))
			if err != nil {
				panic(fmt.Sprintf("cluster experiment: w=%d sequential=%v: %v", w, sequential, err))
			}
			kv := clusterKVSig(r.Workers())
			if err := r.Close(); err != nil {
				panic(err)
			}
			return rep, clusterRunSig(rep), kv
		}
		_, seqSig, seqKV := run(true)
		rep, parSig, parKV := run(false)
		parallelIdentical := "no"
		if parSig == seqSig && parKV == seqKV {
			parallelIdentical = "yes"
		}

		// The single-platform twin: same total capacity, sharded W ways.
		single, srep := drive{cfg: core.Config{
			IntervalNs: 100e6, BatchSize: 64, Shards: w,
			Cache: flowcache.DefaultConfig(12),
			SNIC:  clusterNoDropSNIC(),
		}}.run(clusterPresetStream(n))
		twinIdentical := "no"
		if rep.Merged.Counts == srep.Counts && rep.Merged.Cache == srep.Cache &&
			rep.Merged.SNIC.Processed == srep.SNIC.Processed &&
			fmt.Sprintf("%+v", rep.Merged.Rings) == fmt.Sprintf("%+v", srep.Rings) &&
			clusterKVSig([]*core.Platform{single}) == parKV {
			twinIdentical = "yes"
		}

		var maxLane uint64
		for _, c := range rep.Steer.PerWorker {
			if c > maxLane {
				maxLane = c
			}
		}
		balanced := 0.0
		if maxLane > 0 {
			balanced = float64(rep.Steer.Offered) / float64(maxLane)
		}
		rows := flowcache.DefaultConfig(12).Rows()
		t.AddRow(
			d(w),
			d(rows/w),
			d(rep.Steer.Offered),
			f2(rep.Steer.Imbalance),
			f2(balanced),
			fmt.Sprintf("%.4f", rep.Merged.Cache.HitRate()),
			parallelIdentical,
			twinIdentical,
		)
	}
	t.Notes = append(t.Notes,
		"total capacity is constant: rows_per_worker = 2^(RowBits - log2(workers)); controller thresholds pre-divided by W",
		"parallel_identical: the feeder-goroutine drive reproduces the sequential reference byte-for-byte (oracle A)",
		"single_platform_identical: merged counts, cache stats, rings and flow-log union equal a single platform sharded W ways on a drop-free datapath (oracle B)",
		"balanced_speedup: offered/max(lane share) — the hash-balance ceiling on parallel speedup, machine-independent",
		"wall-clock speedup is the fanout2 workload's cluster.speedup_vs_backbone in benchmark/, not here")
	return t
}
