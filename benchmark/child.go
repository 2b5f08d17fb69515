package main

import (
	"fmt"
	"reflect"
	"time"

	"smartwatch/internal/core"
	"smartwatch/internal/flowcache"
)

// childResult is what one fresh-process pass reports to its parent.
type childResult struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Traced    bool               `json:"traced"`
	Packets   int                `json:"packets"`
	Metrics   map[string]float64 `json:"metrics"`
	Proof     proof              `json:"proof"`
	Signature string             `json:"signature"`
	Failed    uint64             `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Budget    []budgetRow        `json:"budget,omitempty"`
}

// budgetRow is one layer's share of the traced wall clock.
type budgetRow struct {
	Layer   string  `json:"layer"`
	NsPkt   float64 `json:"self_ns_per_pkt"`
	Share   float64 `json:"share"`
	Measure string  `json:"measured"` // "inline" in the traced run, "replay" standalone, or how it was derived
}

func runChild(w *workload, seed uint64, scale float64, dir string, traced bool) (*childResult, error) {
	t0 := time.Now()
	in, err := prepare(w, seed, scale, dir, traced)
	if err != nil {
		return nil, err
	}
	defer in.cleanup()
	prepNs := time.Since(t0).Nanoseconds()

	base, err := drive(in, w.config(scale), nil)
	if err != nil {
		return nil, err
	}
	pr, failed, errs := verify(in, base)
	res := &childResult{
		Workload: w.name, Seed: seed, Traced: traced, Packets: in.packets,
		Proof: pr, Signature: signature(base), Failed: failed, Errors: errs,
	}
	if !traced {
		res.Metrics = endToEnd(in, base, prepNs+base.newNs)
		return res, nil
	}

	tp, err := drive(in, w.config(scale), newTracer(in.pkts))
	if err != nil {
		return nil, err
	}
	if sig := signature(tp); sig != res.Signature {
		res.Errors = append(res.Errors, fmt.Sprintf("traced report signature %s differs from untraced %s", sig, res.Signature))
	}
	rp := &replayed{}
	if w.workers <= 1 {
		rp = replayLayers(in, tp)
		res.Errors = append(res.Errors, rp.errs...)
	}
	arms, armErrs := runArms(in, res.Signature)
	res.Errors = append(res.Errors, armErrs...)
	res.Metrics, res.Budget = perLayer(in, base, tp, rp, arms)
	if err := writeSpans(dir, w, seed, tp.tr.spans); err != nil {
		return nil, err
	}
	return res, nil
}

// armResults are the side measurements a traced run adds: backbone on
// the other drive arms (inputs to ROADMAP item 2), and the single-platform
// time fanout2's speed-up is quoted against.
type armResults struct {
	batch1, pipelined, shards4 float64 // ns/pkt, 0 when not run
	backbone                   float64
}

func runArms(in *inputs, wantSig string) (armResults, []string) {
	var (
		arms armResults
		errs []string
	)
	run := func(name string, w *workload, mutate func(*core.Config) bool, checkSig bool) float64 {
		cfg := w.config(in.scale)
		if mutate != nil && !mutate(&cfg) {
			return 0
		}
		alt := *in
		alt.w = w
		ps, err := drive(&alt, cfg, nil)
		if err != nil {
			errs = append(errs, fmt.Sprintf("%s arm: %v", name, err))
			return 0
		}
		if sig := signature(ps); checkSig && sig != wantSig {
			errs = append(errs, fmt.Sprintf("%s arm report signature %s differs from the main arm's %s", name, sig, wantSig))
		}
		return float64(ps.wallNs) / float64(in.packets)
	}
	switch in.w.name {
	case "backbone":
		arms.batch1 = run("batch1", in.w, func(c *core.Config) bool { c.BatchSize = 1; return true }, true)
		arms.pipelined = run("pipelined", in.w, setPipelined, true)
		// Sharding re-partitions rows into flow islands, so the cache
		// counters legitimately differ from the unsharded arm.
		arms.shards4 = run("shards4", in.w, func(c *core.Config) bool { c.Shards = 4; return true }, false)
	case "fanout2":
		bb, _ := findWorkload("backbone")
		arms.backbone = run("backbone", bb, nil, false)
	}
	return arms, errs
}

// setPipelined switches on Config.Pipelined by name: ROADMAP item 2 may
// delete the field on this arm's evidence, and the benchmark must still
// build afterwards (the metric then reads 0).
func setPipelined(c *core.Config) bool {
	f := reflect.ValueOf(c).Elem().FieldByName("Pipelined")
	if !f.IsValid() || f.Kind() != reflect.Bool {
		return false
	}
	f.SetBool(true)
	return true
}

// perLayer derives the per-layer metrics and the budget table of one
// traced run. Every metric is emitted on every workload; a time that was
// not measured there (pcap on surge, detectors on manyflows, the replayed
// layers on fanout2) reads 0.
func perLayer(in *inputs, base, tp *pass, rp *replayed, arms armResults) (map[string]float64, []budgetRow) {
	w, tr, rep := in.w, tp.tr, &tp.rep
	n := float64(in.packets)
	per := func(ns int64, count float64) float64 { return ratio(float64(ns), count) }
	tracedNsPkt := float64(tp.wallNs) / n
	baseNsPkt := float64(base.wallNs) / n
	st := rep.Cache
	proc := float64(st.Processed())
	intervals := float64(tr.intervals)

	// The interval bracket covers the switch's close and the host's flush;
	// the replayed close is taken out to leave the flush.
	flushNs := max(0, tr.intervalNs-rp.closeNs)
	detNs, tickNs := tr.detNs(), tr.tickNs()
	hostNs := flushNs + rp.nfDeliverNs
	switchNs := rp.steerNs + rp.closeNs
	drainSelf := tp.drainNs
	layers := []budgetRow{
		{Layer: "pcap.decode", NsPkt: per(tp.decodeNs, n), Measure: "inline"},
		{Layer: "packet.keyhash", NsPkt: per(rp.keyhashNs, n), Measure: "replay"},
		{Layer: "p4switch", NsPkt: per(switchNs, n), Measure: "replay"},
		{Layer: "snic.dispatch", NsPkt: per(rp.dispatchNs, n), Measure: "replay"},
		{Layer: "flowcache.process", NsPkt: per(rp.cacheNs, n), Measure: "replay"},
		{Layer: "detect", NsPkt: per(detNs+tickNs, n), Measure: "inline"},
		{Layer: "host", NsPkt: per(hostNs, n), Measure: "inline+replay"},
		{Layer: "core.drain", NsPkt: per(drainSelf, n), Measure: "inline"},
	}
	if w.workers > 1 {
		// The pull-chain layers run on the worker goroutines, off the
		// client's blocking path; what the client waits for is Ingest.
		layers = []budgetRow{
			layers[0],
			{Layer: "cluster.ingest", NsPkt: per(tp.ingestNs, n), Measure: "inline"},
			{Layer: "core.drain", NsPkt: per(drainSelf, n), Measure: "inline"},
		}
	}
	// What the layers leave of the untraced total is the platform's own
	// glue (Ingest self time: the per-vector rendezvous, tier contexts, the
	// pull chain); what the traced pass took on top of the untraced one is
	// the tracing itself. Together the rows sum to the traced total.
	var sum float64
	for _, l := range layers {
		sum += l.NsPkt
	}
	glue := baseNsPkt - sum
	layers = append(layers,
		budgetRow{Layer: "core.glue", NsPkt: glue, Measure: "residual"},
		budgetRow{Layer: "bench.trace_overhead", NsPkt: tracedNsPkt - baseNsPkt, Measure: "traced - untraced"})
	for i := range layers {
		layers[i].Share = ratio(layers[i].NsPkt, tracedNsPkt)
	}

	recall, precision := score(rep.Alerts, in.truth)
	lat := tp.ingestLat
	m := map[string]float64{
		"pcap.decode_ns_per_pkt": per(tp.decodeNs, n),
		"pcap.bytes_per_pkt":     ratio(float64(in.pcapBytes), n),
		"pcap.skipped_frames":    float64(tp.skipped),

		"packet.keyhash_ns_per_pkt": per(rp.keyhashNs, n),

		"p4switch.steer_ns_per_pkt":    per(rp.steerNs, n),
		"p4switch.close_interval_us":   per(rp.closeNs, float64(rp.closes)) / 1e3,
		"p4switch.forward_direct_frac": ratio(float64(rep.Counts.ForwardedDirect), float64(rep.Counts.Total)),
		"p4switch.blacklist_drops":     float64(rep.Counts.DroppedAtSwitch),

		"snic.dispatch_ns_per_pkt":      per(rp.dispatchNs, float64(rep.Counts.ToSNIC)),
		"snic.drop_path_ns_per_pkt":     rp.dropPathNs,
		"snic.processed":                float64(rep.SNIC.Processed),
		"snic.dropped":                  float64(rep.SNIC.Dropped),
		"snic.sim_utilization":          rep.SNIC.Utilization(snicConfig(tp.cfg).Profile),
		"snic.sim_latency_p99_ns":       nanToZero(rep.SNIC.Latency.Percentile(99)),
		"snic.sim_queue_delay_p99_ns":   nanToZero(tr.qdelay.Percentile(99)),
		"flowcache.process_ns_per_pkt":  per(rp.cacheNs, proc+float64(st.HostPunts)),
		"flowcache.phit_frac":           ratio(float64(st.PHits), proc),
		"flowcache.ehit_frac":           ratio(float64(st.EHits), proc),
		"flowcache.miss_frac":           ratio(float64(st.Misses), proc),
		"flowcache.inserts":             float64(st.Inserts),
		"flowcache.evictions":           float64(st.Evictions),
		"flowcache.ring_drops":          float64(st.RingDrops),
		"flowcache.host_punts":          float64(st.HostPunts),
		"flowcache.pin_denied":          float64(st.PinDenied),
		"flowcache.row_cleanups":        float64(st.RowCleanups),
		"flowcache.switchovers":         float64(rep.Switchovers),
		"flowcache.lite_residency_frac": ratio(float64(tp.liteNs), float64(tp.liteNs+tp.generalNs)),
		"flowcache.reads_per_pkt":       ratio(float64(st.Reads), proc),
		"flowcache.writes_per_pkt":      ratio(float64(st.Writes), proc),
		"flowcache.occupancy_frac":      ratio(float64(tp.occupancy), float64(tp.cfg.Cache.Entries())),
		"flowcache.table_mb":            float64(tp.cfg.Cache.Entries()) * float64(reflect.TypeOf(flowcache.Record{}).Size()) / (1 << 20),

		"detect.on_packet_ns_per_pkt": per(detNs, float64(len(tr.idx))),
		"detect.tick_us_per_tick":     per(tickNs, float64(tr.ticks)) / 1e3,
		"detect.alerts":               float64(len(rep.Alerts)),
		"detect.pins":                 float64(tr.pins),
		"detect.recall":               recall,
		"detect.precision":            precision,

		"host.flush_ms_per_interval": per(flushNs, intervals) / 1e6,
		"host.flush_frac":            ratio(float64(flushNs), float64(tp.wallNs)),
		"host.drained_records":       float64(rep.Host.Drained),
		"host.flowstore_len":         float64(tp.storeLen),
		"host.kv_writes":             float64(tp.kvWrites),
		"host.nf_deliver_ns_per_pkt": per(rp.nfDeliverNs, float64(rp.nfDeliveries)),
		"host.sim_cpu_ms":            rep.HostCPUNs / 1e6,

		"core.ingest_ns_per_pkt":    0,
		"core.ingest_p50_us":        lat.Percentile(50) / 1e3,
		"core.ingest_p99_us":        lat.Percentile(99) / 1e3,
		"core.ingest_max_ms":        lat.Percentile(100) / 1e6,
		"core.drain_ms":             float64(tp.drainNs) / 1e6,
		"core.new_ms":               float64(tp.newNs) / 1e6,
		"core.vectors":              float64(tp.vectors),
		"core.intervals":            float64(rep.Counts.Intervals),
		"core.glue_ns_per_pkt":      glue,
		"core.batch1_ns_per_pkt":    arms.batch1,
		"core.pipelined_ns_per_pkt": arms.pipelined,
		"core.shards4_ns_per_pkt":   arms.shards4,

		"cluster.ingest_ns_per_pkt":   0,
		"cluster.imbalance":           0,
		"cluster.ring_hwm":            0,
		"cluster.stalls":              0,
		"cluster.folds":               0,
		"cluster.merge_ms":            0,
		"cluster.speedup_vs_backbone": 0,

		"runtime.gc_cycles":           float64(base.gcCycles),
		"runtime.gc_pause_ms":         float64(base.gcPause) / 1e6,
		"runtime.alloc_bytes_per_pkt": float64(base.allocB) / n,

		"trace.gen_ns_per_pkt":    per(in.genNs, n),
		"trace.encode_ns_per_pkt": per(in.encodeNs, n),

		"bench.trace_overhead_frac": tracedNsPkt/baseNsPkt - 1,
		"bench.layers_sum_frac":     ratio(sum, baseNsPkt),
	}
	for _, name := range detectorNames {
		m["detect."+name+".on_packet_ns_per_pkt"] = 0
	}
	for _, d := range tr.dets {
		m["detect."+d.name+".on_packet_ns_per_pkt"] = per(d.sampledNs, float64(d.sampled))
	}
	if crep := tp.crep; crep != nil {
		m["cluster.ingest_ns_per_pkt"] = per(tp.ingestNs, n)
		m["cluster.imbalance"] = crep.Steer.Imbalance
		m["cluster.folds"] = float64(crep.Steer.Folds)
		m["cluster.merge_ms"] = float64(crep.MergeNs) / 1e6
		m["cluster.speedup_vs_backbone"] = ratio(arms.backbone, baseNsPkt)
		for _, ing := range crep.Ingress {
			m["cluster.ring_hwm"] = max(m["cluster.ring_hwm"], float64(ing.RingHWM))
			m["cluster.stalls"] += float64(ing.Stalls)
		}
	} else {
		m["core.ingest_ns_per_pkt"] = per(tp.ingestNs, n)
	}
	return m, layers
}
