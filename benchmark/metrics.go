package main

import (
	"math"
	"sort"
)

// metricDef mirrors one metric entry of BENCHMARK.json; the smoke test
// holds the two lists and the file to each other.
type metricDef struct {
	name, unit, better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may get worse before a change counts as a regression.
	bound float64
}

// Host wall clock unless the unit says sim_: those are the DES's virtual
// time and repeat exactly for one seed.
var endToEndMetrics = []metricDef{
	{"ns_per_pkt", "ns", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.20},
	{"allocs_per_kpkt", "1/kpkt", "lower", 0.10},
	{"sim_delivered_frac", "ratio", "higher", 0.02},
	{"flowcache_hit_rate", "ratio", "higher", 0.02},
	{"flowlog_coverage", "ratio", "higher", 0.02},
}

var perLayerMetrics = func() []metricDef {
	defs := []metricDef{
		{"pcap.decode_ns_per_pkt", "ns", "lower", 0},
		{"pcap.bytes_per_pkt", "B", "lower", 0},
		{"pcap.skipped_frames", "count", "lower", 0},
		{"packet.keyhash_ns_per_pkt", "ns", "lower", 0},
		{"p4switch.steer_ns_per_pkt", "ns", "lower", 0},
		{"p4switch.close_interval_us", "us", "lower", 0},
		{"p4switch.forward_direct_frac", "ratio", "higher", 0},
		{"p4switch.blacklist_drops", "count", "higher", 0},
		{"snic.dispatch_ns_per_pkt", "ns", "lower", 0},
		{"snic.drop_path_ns_per_pkt", "ns", "lower", 0},
		{"snic.processed", "count", "higher", 0},
		{"snic.dropped", "count", "lower", 0},
		{"snic.sim_utilization", "ratio", "lower", 0},
		{"snic.sim_latency_p99_ns", "sim_ns", "lower", 0},
		{"snic.sim_queue_delay_p99_ns", "sim_ns", "lower", 0},
		{"flowcache.process_ns_per_pkt", "ns", "lower", 0},
		{"flowcache.phit_frac", "ratio", "higher", 0},
		{"flowcache.ehit_frac", "ratio", "higher", 0},
		{"flowcache.miss_frac", "ratio", "lower", 0},
		{"flowcache.inserts", "count", "lower", 0},
		{"flowcache.evictions", "count", "lower", 0},
		{"flowcache.ring_drops", "count", "lower", 0},
		{"flowcache.host_punts", "count", "lower", 0},
		{"flowcache.pin_denied", "count", "lower", 0},
		{"flowcache.row_cleanups", "count", "lower", 0},
		{"flowcache.switchovers", "count", "lower", 0},
		{"flowcache.lite_residency_frac", "ratio", "lower", 0},
		{"flowcache.reads_per_pkt", "1/pkt", "lower", 0},
		{"flowcache.writes_per_pkt", "1/pkt", "lower", 0},
		{"flowcache.occupancy_frac", "ratio", "lower", 0},
		{"flowcache.table_mb", "MB", "lower", 0},
		{"detect.on_packet_ns_per_pkt", "ns", "lower", 0},
		{"detect.tick_us_per_tick", "us", "lower", 0},
		{"detect.alerts", "count", "higher", 0},
		{"detect.pins", "count", "lower", 0},
		{"detect.recall", "ratio", "higher", 0},
		{"detect.precision", "ratio", "higher", 0},
	}
	for _, d := range detectorNames {
		defs = append(defs, metricDef{"detect." + d + ".on_packet_ns_per_pkt", "ns", "lower", 0})
	}
	return append(defs, []metricDef{
		{"host.flush_ms_per_interval", "ms", "lower", 0},
		{"host.flush_frac", "ratio", "lower", 0},
		{"host.drained_records", "count", "lower", 0},
		{"host.flowstore_len", "count", "lower", 0},
		{"host.kv_writes", "count", "lower", 0},
		{"host.nf_deliver_ns_per_pkt", "ns", "lower", 0},
		{"host.sim_cpu_ms", "sim_ms", "lower", 0},
		{"core.ingest_ns_per_pkt", "ns", "lower", 0},
		{"core.ingest_p50_us", "us", "lower", 0},
		{"core.ingest_p99_us", "us", "lower", 0},
		{"core.ingest_max_ms", "ms", "lower", 0},
		{"core.drain_ms", "ms", "lower", 0},
		{"core.new_ms", "ms", "lower", 0},
		{"core.vectors", "count", "lower", 0},
		{"core.intervals", "count", "lower", 0},
		{"core.glue_ns_per_pkt", "ns", "lower", 0},
		{"core.batch1_ns_per_pkt", "ns", "lower", 0},
		{"core.pipelined_ns_per_pkt", "ns", "lower", 0},
		{"core.shards4_ns_per_pkt", "ns", "lower", 0},
		{"cluster.ingest_ns_per_pkt", "ns", "lower", 0},
		{"cluster.imbalance", "ratio", "lower", 0},
		{"cluster.ring_hwm", "count", "lower", 0},
		{"cluster.stalls", "count", "lower", 0},
		{"cluster.folds", "count", "lower", 0},
		{"cluster.merge_ms", "ms", "lower", 0},
		{"cluster.speedup_vs_backbone", "ratio", "higher", 0},
		{"runtime.gc_cycles", "count", "lower", 0},
		{"runtime.gc_pause_ms", "ms", "lower", 0},
		{"runtime.alloc_bytes_per_pkt", "B", "lower", 0},
		{"trace.gen_ns_per_pkt", "ns", "lower", 0},
		{"trace.encode_ns_per_pkt", "ns", "lower", 0},
		{"bench.trace_overhead_frac", "ratio", "lower", 0},
		{"bench.layers_sum_frac", "ratio", "higher", 0},
	}...)
}()

// summary is the spread of one metric over the repetitions of one
// workload. Quartiles follow Python's statistics.quantiles(n=4), the
// method the driver applies to the benchmark's own medians.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return summary{}
	}
	quant := func(k int) float64 { // exclusive method, m = n+1
		if n == 1 {
			return s[0]
		}
		pos := float64(k) * float64(n+1) / 4
		j := max(1, min(int(math.Floor(pos)), n-1))
		frac := pos - float64(j) // after the clamp, as CPython does
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return summary{N: n, Median: quant(2), Q1: quant(1), Q3: quant(3), Min: s[0], Max: s[n-1]}
}

// spread is the inter-quartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}
