// Command smartwatch runs the full monitoring platform — one platform, or
// -workers platforms behind one shared switch — over a pcap trace (e.g.
// one produced by tracegen), a growing pcap or the synthetic generator,
// and prints the detection report: alerts, traffic split across the three
// tiers, FlowCache statistics, and the flow-log summary. -serve adds the
// operator control API (serve.go).
//
// Example:
//
//	tracegen -out mix.pcap -preset caida2018 -attack ssh-bruteforce -duration 500ms
//	smartwatch -in mix.pcap -switch -detectors ssh,portscan,rst
package main

import (
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"io"
	"math/bits"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux
	"os"
	"os/signal"
	"sort"
	"strings"

	"smartwatch/internal/cluster"
	"smartwatch/internal/core"
	"smartwatch/internal/detect"
	"smartwatch/internal/flowcache"
	"smartwatch/internal/host"
	"smartwatch/internal/obs"
	"smartwatch/internal/p4switch"
	"smartwatch/internal/packet"
	"smartwatch/internal/pcap"
	"smartwatch/internal/tier"
	"smartwatch/internal/trace"
)

func main() {
	var (
		in          = flag.String("in", "", "input pcap trace (required unless -gen)")
		useSwitch   = flag.Bool("switch", false, "enable the P4 switch tier (coarse queries + steering)")
		detectors   = flag.String("detectors", "ssh,portscan,rst,incomplete,dns,worm,ssl", "comma-separated detectors: ssh,ftp,kerberos,portscan,rst,incomplete,dns,worm,ssl,microburst,lowslow")
		intervalMs  = flag.Int("interval", 100, "monitoring interval (virtual ms)")
		rowBits     = flag.Int("rowbits", 14, "FlowCache rows = 2^rowbits (x12 buckets)")
		shards      = flag.Int("shards", 1, "FlowCache shards (power of two; capacity is split, not multiplied)")
		batch       = flag.Int("batch", 1, "ingest batch size (vectors of this many packets; byte-identical results at every size)")
		policy      = flag.String("policy", "", "FlowCache replacement policy: lru-lpc (default), lru, s3fifo")
		adaptive    = flag.Bool("adaptive", false, "self-tuning mode controllers (metrics-driven threshold + pin-budget feedback)")
		verbose     = flag.Bool("v", false, "print every alert")
		ipfixOut    = flag.String("ipfix", "", "export the flow log as IPFIX to this file")
		emitP4      = flag.String("emit-p4", "", "write the switch query set as a P4-16 program to this file (requires -switch)")
		metricsOut  = flag.String("metrics", "", "emit a JSON-lines metrics snapshot each interval to this file (- for stdout)")
		expvarAddr  = flag.String("expvar", "", "serve live metrics over HTTP at this address (/debug/vars, /metrics, /debug/pprof), updated at every interval close during the run; in batch mode the server keeps running after the run until interrupted")
		serve       = flag.Bool("serve", false, "daemon mode: expose the /control API on the -expvar server (default 127.0.0.1:9090) while the run streams; POST /control/drain drains it")
		follow      = flag.Bool("follow", false, "tail -in as a growing pcap (tolerates partial trailing records)")
		gen         = flag.String("gen", "", "synthetic source instead of -in: caida2015|caida2016|caida2018|caida2019|dc")
		genRepeat   = flag.Int("gen-repeat", -1, "generator laps, timestamps shifted per lap (-1 = until drained)")
		genRate     = flag.Float64("gen-rate", 0, "wall-clock pacing for -gen in packets/sec (0 = as fast as consumed)")
		genMax      = flag.Int64("gen-max", 0, "stop the generator after this many packets (0 = unbounded)")
		kvRetention = flag.Int("kv-retention", 0, "keep at most N flow-log intervals resident (0 = unbounded; -serve defaults to 64 to bound the heap)")
		workers     = flag.Int("workers", 1, "parallel platform workers behind one shared steering tier (power of two; cache capacity is split, not multiplied)")
		steer       = flag.String("steer", "hash", "cluster steering policy: hash (deterministic consistent hashing) or load (ring-successor load spill; not reproducible)")
	)
	flag.Parse()
	if *in == "" && *gen == "" {
		flag.Usage()
		os.Exit(2)
	}

	dets, err := buildDetectors(*detectors)
	if err != nil {
		fatal(err)
	}
	cfg := core.Config{
		IntervalNs: int64(*intervalMs) * 1e6,
		Detectors:  dets,
		Shards:     *shards,
		BatchSize:  *batch,
	}
	if *rowBits > 0 {
		cfg.Cache = flowcache.DefaultConfig(*rowBits)
	}
	if *policy != "" {
		cfg.Cache.Policy = *policy
		if err := cfg.Cache.Validate(); err != nil {
			fatal(err) // unknown -policy names fail here with the known list
		}
	}
	if *adaptive {
		cfg.Controller = flowcache.DefaultControllerConfig()
		cfg.Controller.Adaptive.Enabled = true
	}
	if *useSwitch {
		cfg.EnableSwitch = true
		cfg.Queries = defaultQueries()
	}
	steerPolicy, err := cluster.ParseSteerPolicy(*steer)
	if err != nil {
		fatal(err)
	}
	if *workers < 1 || *workers&(*workers-1) != 0 {
		fatal(fmt.Errorf("-workers must be a power of two, got %d", *workers))
	}
	if err := checkGeometry(cfg.Cache, *shards, *workers); err != nil {
		fatal(err)
	}
	var metricsFile *os.File
	if *metricsOut != "" || *expvarAddr != "" || *serve {
		cfg.Metrics = obs.NewRegistry()
	}
	switch *metricsOut {
	case "":
	case "-":
		cfg.MetricsWriter = os.Stdout
	default:
		metricsFile, err = os.Create(*metricsOut)
		if err != nil {
			fatal(err)
		}
		cfg.MetricsWriter = metricsFile
	}
	src, err := buildSource(*in, *follow, *gen, *genRepeat, *genRate, *genMax)
	if err != nil {
		fatal(err)
	}

	// One engine either way: a session over one platform, or a runner
	// fanning out to -workers platforms behind one shared switch.
	var (
		e   engine
		cl  *cluster.Runner
		pls []*core.Platform
		sw  *p4switch.Switch
	)
	if *workers > 1 {
		cl = buildCluster(cfg, *workers, steerPolicy, *detectors)
		e, pls, sw = cl, cl.Workers(), cl.Switch()
	} else {
		pl := core.New(cfg)
		e, pls, sw = pl.NewSession(), []*core.Platform{pl}, pl.Switch()
	}
	if *serve && *kvRetention == 0 {
		*kvRetention = 64 // bound the daemon's heap
	}
	if *kvRetention > 0 {
		for _, pl := range pls {
			pl.KV().SetRetention(*kvRetention)
		}
	}
	chunk := 512
	if cfg.BatchSize > 1 {
		chunk = ((chunk + cfg.BatchSize - 1) / cfg.BatchSize) * cfg.BatchSize
	}
	d := newDaemon(e, src, chunk)

	addr := *expvarAddr
	if *serve {
		if addr == "" {
			addr = "127.0.0.1:9090"
		}
		d.registerControlAPI()
	}
	if addr != "" {
		if err := serveExpvar(addr, cfg.Metrics); err != nil {
			fatal(err)
		}
	}
	if *serve {
		fmt.Fprintf(os.Stderr, "smartwatch: serving control API at http://%s/control/status (SIGTERM to drain)\n", addr)
	}
	rep, err := d.run()
	if err != nil {
		fatal(err)
	}

	kvIntervals := 0
	for _, pl := range pls {
		kvIntervals += len(pl.KV().Intervals())
	}
	printReport(os.Stdout, pls[0].Cache().Shard(0).PolicyName(), kvIntervals, rep, *verbose)
	if cl != nil {
		// Drain on a drained runner returns its cached report. Workers carry
		// no per-interval metrics writer, so -metrics gets one final merged
		// snapshot.
		crep, _ := cl.Drain()
		fmt.Printf("cluster: workers=%d policy=%s imbalance=%.2f resteers=%d folds=%d folded-events=%d sync-wait=%.2f ms merge=%.2f ms\n",
			len(pls), crep.Steer.Policy, crep.Steer.Imbalance, crep.Steer.Resteers,
			crep.Steer.Folds, crep.Steer.FoldedEvents, float64(crep.Steer.SyncWaitNs)/1e6, float64(crep.MergeNs)/1e6)
		for i, ing := range crep.Ingress {
			fmt.Printf("  worker %d: steered=%d ring-hwm=%d stalls=%d wait=%.2f ms batches=%d\n",
				i, crep.Steer.PerWorker[i], ing.RingHWM, ing.Stalls, float64(ing.WaitNs)/1e6, ing.Batches)
		}
		if cfg.MetricsWriter != nil && crep.Merged.Metrics != nil {
			if err := json.NewEncoder(cfg.MetricsWriter).Encode(crep.Merged.Metrics); err != nil {
				fatal(fmt.Errorf("metrics emit: %w", err))
			}
		}
	}
	if fs, ok := src.(*pcap.FileSource); ok && fs.Reader().Skipped() > 0 {
		fmt.Fprintf(os.Stderr, "note: %d undecodable frames skipped\n", fs.Reader().Skipped())
	}
	finishOutputs(pls, sw, *ipfixOut, *emitP4)
	if metricsFile != nil {
		if err := metricsFile.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "metrics snapshots written to %s\n", *metricsOut)
	}
	if !*serve {
		lingerExpvar(*expvarAddr)
	}
}

// engine is what the CLI drives: a session over one platform or a cluster
// runner, each satisfying it as it is.
type engine interface {
	Start() error
	Ingest([]packet.Packet) error
	// Close drains a running engine: final interval close, lossless
	// flow-log flush, final metrics.
	Close() error
	// Report is the final report, once drained.
	Report() (core.Report, bool)
	State() core.SessionState
	Ingested() uint64
	BusStats() tier.BusStats
	// Snapshots holds each lane's latest interval snapshot (one lane for a
	// session; nil entries before a lane's first close).
	Snapshots() []*core.IntervalSnapshot
	Whitelist(packet.FlowKey) error
	Blacklist(packet.Addr) error
	WhitelistEntries() []packet.FlowKey
	BlacklistEntries() []packet.Addr
}

var (
	_ engine = (*core.Session)(nil)
	_ engine = (*cluster.Runner)(nil)
)

// checkGeometry rejects a table core.New would panic on: a FlowCache
// layout its own Validate refuses (-rowbits out of range, a row wider than
// the occupancy mask), then a shard split that does not fit it. The zero
// Config is core.New's default table.
func checkGeometry(cache flowcache.Config, shards, workers int) error {
	if cache.RowBits != 0 {
		if err := cache.Validate(); err != nil {
			return err
		}
	}
	return checkShards(shards, workers, cache.RowBits)
}

// checkShards rejects a -shards value core.New would panic on. The shard
// index is the flow hash's top bits, so the count is a power of two, and
// each shard needs at least one row bit of the table left once the
// -workers split has taken log2(workers) of them. workers is already
// validated; rowBits 0 is core.New's default table.
func checkShards(shards, workers, rowBits int) error {
	if shards < 1 || shards&(shards-1) != 0 {
		return fmt.Errorf("-shards must be a power of two >= 1, got %d", shards)
	}
	if rowBits == 0 {
		rowBits = 12
	}
	if left := rowBits - bits.TrailingZeros(uint(workers)) - bits.TrailingZeros(uint(shards)); left < 1 {
		return fmt.Errorf("-shards %d x -workers %d leave %d of %d row bits per shard (need >= 1): raise -rowbits", shards, workers, left, rowBits)
	}
	return nil
}

// lingerExpvar keeps the process alive after a batch run so the -expvar
// endpoint stays queryable until interrupted.
func lingerExpvar(addr string) {
	if addr == "" {
		return
	}
	fmt.Fprintf(os.Stderr, "expvar: serving final metrics at http://%s/debug/vars (Ctrl-C to exit)\n", addr)
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt)
	<-ch
}

// buildCluster assembles the cluster runner from the single-platform
// config: the template keeps the switch fields (the runner lifts them
// into the shared steering tier) but hands detectors over as a factory —
// each worker needs its own instances.
func buildCluster(cfg core.Config, workers int, policy cluster.SteerPolicy, detectorList string) *cluster.Runner {
	wc := cfg
	wc.Detectors = nil
	return cluster.New(cluster.Config{
		Workers: workers,
		Worker:  wc,
		Detectors: func() []detect.Detector {
			d, err := buildDetectors(detectorList)
			if err != nil {
				fatal(err) // already validated at startup; unreachable
			}
			return d
		},
		Steer:   policy,
		Metrics: cfg.Metrics,
	})
}

// buildSource assembles the packet source: whole-file pcap, growing-pcap
// tail, or the synthetic generator.
func buildSource(in string, follow bool, gen string, repeat int, rate float64, maxPkts int64) (packet.Source, error) {
	if gen != "" {
		var wl *trace.Workload
		switch gen {
		case "caida2015":
			wl = trace.CAIDA(2015)
		case "caida2016":
			wl = trace.CAIDA(2016)
		case "caida2018":
			wl = trace.CAIDA(2018)
		case "caida2019":
			wl = trace.CAIDA(2019)
		case "dc":
			wl = trace.WisconsinDC()
		default:
			return nil, fmt.Errorf("unknown -gen preset %q", gen)
		}
		return trace.NewSource(trace.SourceConfig{
			Workload: wl.Config(), Repeat: repeat, WallRate: rate, MaxPackets: maxPkts,
		}), nil
	}
	if follow {
		return pcap.FollowFile(in, pcap.FollowConfig{})
	}
	return pcap.OpenFile(in)
}

// printReport renders the end-of-run summary: the report (a cluster's
// merged one), the replacement policy (every worker shares one) and the
// flow-log intervals summed over the platforms' KV stores.
func printReport(w io.Writer, policy string, kvIntervals int, rep core.Report, verbose bool) {
	fmt.Fprintf(w, "packets: total=%d forwarded-direct=%d to-snic=%d to-host=%d blocked=%d dropped-at-switch=%d\n",
		rep.Counts.Total, rep.Counts.ForwardedDirect, rep.Counts.ToSNIC,
		rep.Counts.ToHost, rep.Counts.Blocked, rep.Counts.DroppedAtSwitch)
	fmt.Fprintf(w, "flowcache: policy=%s processed=%d hit-rate=%.3f evictions=%d ring-drops=%d host-punts=%d mode-switchovers=%d\n",
		policy, rep.Cache.Processed(), rep.Cache.HitRate(),
		rep.Cache.Evictions, rep.Cache.RingDrops, rep.Cache.HostPunts, rep.Switchovers)
	fmt.Fprintf(w, "snic: achieved=%.2f Mpps p50-latency=%.0f ns p99=%.0f ns loss=%.4f\n",
		rep.SNIC.AchievedMpps, rep.SNIC.Latency.Percentile(50), rep.SNIC.Latency.Percentile(99), rep.SNIC.LossRate())
	fmt.Fprintf(w, "host: cpu=%.2f ms flow-log-intervals=%d\n", rep.HostCPUNs/1e6, kvIntervals)
	if rep.SwitchStats.Intervals > 0 {
		fmt.Fprintf(w, "switch: steered=%d whitelist-hits=%d blacklist-drops=%d\n",
			rep.SwitchStats.Steered, rep.SwitchStats.WhitelistHits, rep.SwitchStats.BlacklistHits)
	}
	fmt.Fprintf(w, "alerts: %d\n", len(rep.Alerts))
	byDet := map[string]int{}
	for _, a := range rep.Alerts {
		byDet[a.Detector]++
		if verbose {
			fmt.Fprintln(w, "  ", a)
		}
	}
	// In name order: a map ranges in a different order every run.
	names := make([]string, 0, len(byDet))
	for name := range byDet {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "  %-20s %d\n", name, byDet[name])
	}
}

// finishOutputs writes the optional export artifacts, failing hard on any
// error so CI catches broken runs. The IPFIX export walks every platform's
// flow log through one exporter (lane order, one template set).
func finishOutputs(pls []*core.Platform, sw *p4switch.Switch, ipfixOut, emitP4 string) {
	if ipfixOut != "" {
		out, err := os.Create(ipfixOut)
		if err != nil {
			fatal(err)
		}
		exp := host.NewIPFIXExporter(out, 1)
		for _, pl := range pls {
			if err := exp.ExportKV(pl.KV()); err != nil {
				fatal(err)
			}
		}
		if err := out.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "flow log exported as IPFIX to %s\n", ipfixOut)
	}
	if emitP4 != "" {
		writeP4(sw, emitP4)
	}
	for _, pl := range pls {
		if err := pl.MetricsErr(); err != nil {
			fatal(fmt.Errorf("metrics emit: %w", err))
		}
	}
}

// writeP4 renders the switch query set plus its end-of-run control-plane
// entries.
func writeP4(sw *p4switch.Switch, path string) {
	if sw == nil {
		fatal(fmt.Errorf("-emit-p4 requires -switch"))
	}
	src := sw.EmitP4("smartwatch") + "\n// Control-plane entries at end of run:\n"
	for _, e := range sw.ControlPlaneEntries() {
		src += "// " + e + "\n"
	}
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "P4 program written to %s\n", path)
}

// serveExpvar starts the live metrics endpoint: /debug/vars carries the
// whole registry under the "smartwatch" key (plus the stdlib expvars),
// /metrics serves the latest snapshot as one JSON object, and the blank
// net/http/pprof import wires /debug/pprof. Snapshots are read via the
// registry's lock-free cache, so serving never perturbs the datapath.
func serveExpvar(addr string, reg *obs.Registry) error {
	last := func() any {
		if s := reg.LastSnapshot(); s != nil {
			return s
		}
		return struct{}{} // no interval closed yet
	}
	expvar.Publish("smartwatch", expvar.Func(last))
	http.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(last()) //nolint:errcheck // best-effort HTTP write
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	go func() {
		if err := http.Serve(ln, nil); err != nil {
			fmt.Fprintln(os.Stderr, "smartwatch: expvar server:", err)
		}
	}()
	return nil
}

func buildDetectors(list string) ([]detect.Detector, error) {
	var out []detect.Detector
	for _, name := range strings.Split(list, ",") {
		switch strings.TrimSpace(name) {
		case "":
		case "ssh":
			out = append(out, detect.NewBruteForce(detect.BruteForceConfig{Service: trace.PortSSH}))
		case "ftp":
			out = append(out, detect.NewBruteForce(detect.BruteForceConfig{Service: trace.PortFTP}))
		case "kerberos":
			out = append(out, detect.NewBruteForce(detect.BruteForceConfig{Service: trace.PortKerberos}))
		case "portscan":
			out = append(out, detect.NewPortScan(detect.PortScanConfig{}))
		case "rst":
			out = append(out, detect.NewForgedRST(detect.ForgedRSTConfig{}))
		case "incomplete":
			out = append(out, detect.NewIncomplete(0, 0, nil))
		case "dns":
			out = append(out, detect.NewDNSAmplification(0, 0))
		case "worm":
			out = append(out, detect.NewWorm(0, 0))
		case "ssl":
			out = append(out, detect.NewSSLExpiry(0))
		case "microburst":
			out = append(out, detect.NewMicroburst(0, 0))
		case "lowslow":
			out = append(out, detect.NewLowSlow(detect.LowSlowConfig{}))
		default:
			return nil, fmt.Errorf("unknown detector %q", name)
		}
	}
	return out, nil
}

// defaultQueries is the standing coarse query set the control loop starts
// from when the switch tier is enabled.
func defaultQueries() []p4switch.Query {
	return []p4switch.Query{
		{
			Name:   "ssh-conns",
			Filter: p4switch.Predicate{Proto: packet.ProtoTCP, ServicePort: trace.PortSSH},
			Key:    p4switch.KeyDstIP, PrefixBits: 16,
			Reduce: p4switch.CountSYN, Threshold: 5, Slots: 1 << 12,
		},
		{
			Name:   "syn-fanout",
			Filter: p4switch.Predicate{Proto: packet.ProtoTCP},
			Key:    p4switch.KeyDstIP, PrefixBits: 16,
			Reduce: p4switch.CountSYN, Threshold: 50, Slots: 1 << 12,
		},
		{
			Name:   "rst-burst",
			Filter: p4switch.Predicate{Proto: packet.ProtoTCP},
			Key:    p4switch.KeyDstIP, PrefixBits: 16,
			Reduce: p4switch.CountRST, Threshold: 10, Slots: 1 << 12,
		},
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "smartwatch:", err)
	os.Exit(1)
}
