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
	"smartwatch/internal/trace"
)

func main() {
	var (
		in          = flag.String("in", "", "input pcap trace (required unless -gen)")
		useSwitch   = flag.Bool("switch", false, "enable the P4 switch tier (coarse queries + steering)")
		detectors   = flag.String("detectors", "ssh,portscan,rst,incomplete,dns,worm,ssl", "comma-separated detectors: ssh,ftp,kerberos,portscan,rst,incomplete,dns,worm,ssl,microburst,lowslow")
		intervalMs  = flag.Int("interval", 100, "monitoring interval (virtual ms)")
		rowBits     = flag.Int("rowbits", 14, "FlowCache rows = 2^rowbits (x12 buckets)")
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
	)
	flag.Parse()
	if *in == "" && *gen == "" {
		flag.Usage()
		os.Exit(2)
	}

	if err := checkFlags(*rowBits, *intervalMs, *genMax, *kvRetention); err != nil {
		fatal(err)
	}
	if *emitP4 != "" && !*useSwitch {
		fatal(fmt.Errorf("-emit-p4 requires -switch"))
	}
	dets, err := parseDetectors(*detectors)
	if err != nil {
		fatal(err)
	}
	cfg := core.Config{
		IntervalNs: int64(*intervalMs) * 1e6,
		BatchSize:  64,
		Cache:      flowcache.DefaultConfig(*rowBits),
	}
	if *useSwitch {
		cfg.EnableSwitch = true
		cfg.Queries = defaultQueries()
	}
	if *workers < 1 || *workers&(*workers-1) != 0 {
		fatal(fmt.Errorf("-workers must be a power of two, got %d", *workers))
	}
	if err := checkGeometry(cfg.Cache, *workers); err != nil {
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
	// The export files are created before the drive, so a bad path fails
	// the run before it starts rather than after the report.
	ipfixFile, p4File := createOutput(*ipfixOut), createOutput(*emitP4)
	src, err := buildSource(*in, *follow, *gen, *genRepeat, *genRate, *genMax)
	if err != nil {
		fatal(err)
	}

	// One engine: a runner over -workers platforms, which at one worker is
	// that platform driven on the ingest loop's goroutine.
	cl := buildCluster(cfg, *workers, dets)
	pls := cl.Workers()
	if *serve && *kvRetention == 0 {
		*kvRetention = 64 // bound the daemon's heap
	}
	if *kvRetention > 0 {
		for _, pl := range pls {
			pl.KV().SetRetention(*kvRetention)
		}
	}
	d := newDaemon(cl, src, 512)

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
	printReport(os.Stdout, kvIntervals, rep, *verbose)
	if len(pls) > 1 {
		// Drain on a drained runner returns its cached report. Workers of a
		// wider rack carry no per-interval metrics writer, so -metrics gets
		// one final merged snapshot.
		crep, _ := cl.Drain()
		fmt.Printf("cluster: workers=%d policy=%s imbalance=%.2f folds=%d folded-events=%d sync-wait=%.2f ms merge=%.2f ms\n",
			len(pls), crep.Steer.Policy, crep.Steer.Imbalance, crep.Steer.Folds, crep.Steer.FoldedEvents,
			float64(crep.Steer.SyncWaitNs)/1e6, float64(crep.MergeNs)/1e6)
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
	finishOutputs(pls, cl.Switch(), ipfixFile, p4File)
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

// checkFlags rejects a numeric flag outside its range. Left alone, each
// would run on a different value without a word: a table or interval
// below 1 falls back to core's default, a negative -gen-max means
// unbounded and a negative -kv-retention skips the -serve default.
func checkFlags(rowBits, intervalMs int, genMax int64, kvRetention int) error {
	switch {
	case rowBits < 1:
		return fmt.Errorf("-rowbits must be >= 1, got %d", rowBits)
	case intervalMs < 1:
		return fmt.Errorf("-interval must be >= 1 (virtual ms), got %d", intervalMs)
	case genMax < 0:
		return fmt.Errorf("-gen-max must be >= 0 (0 = unbounded), got %d", genMax)
	case kvRetention < 0:
		return fmt.Errorf("-kv-retention must be >= 0 (0 = unbounded), got %d", kvRetention)
	}
	return nil
}

// checkGeometry rejects a table the runner would panic on: a FlowCache
// layout its own Validate refuses (-rowbits out of range, a row wider than
// the occupancy mask), then a -workers split that leaves a worker less
// than one row bit of it. workers is already validated; the zero Config
// is core.New's default table.
func checkGeometry(cache flowcache.Config, workers int) error {
	rowBits := cache.RowBits
	if rowBits == 0 {
		rowBits = 12
	} else if err := cache.Validate(); err != nil {
		return err
	}
	if left := rowBits - bits.TrailingZeros(uint(workers)); left < 1 {
		return fmt.Errorf("-workers %d leave %d of %d row bits per worker (need >= 1): raise -rowbits", workers, left, rowBits)
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

// buildCluster assembles the runner from the platform config, which keeps
// the switch fields (one worker runs them itself; more lift them into the
// shared steering tier). Detectors come only from the parsed -detectors
// constructors: each worker builds its own instances.
func buildCluster(cfg core.Config, workers int, dets []func() detect.Detector) *cluster.Runner {
	return cluster.New(cluster.Config{
		Workers: workers,
		Worker:  cfg,
		Detectors: func() []detect.Detector {
			out := make([]detect.Detector, len(dets))
			for i, mk := range dets {
				out[i] = mk()
			}
			return out
		},
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
// merged one) and the flow-log intervals summed over the platforms' KV
// stores.
func printReport(w io.Writer, kvIntervals int, rep core.Report, verbose bool) {
	fmt.Fprintf(w, "packets: total=%d forwarded-direct=%d to-snic=%d to-host=%d blocked=%d dropped-at-switch=%d\n",
		rep.Counts.Total, rep.Counts.ForwardedDirect, rep.Counts.ToSNIC,
		rep.Counts.ToHost, rep.Counts.Blocked, rep.Counts.DroppedAtSwitch)
	fmt.Fprintf(w, "flowcache: processed=%d hit-rate=%.3f evictions=%d ring-drops=%d host-punts=%d mode-switchovers=%d\n",
		rep.Cache.Processed(), rep.Cache.HitRate(),
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

// createOutput creates an export file named by a flag, or returns nil
// when the flag is empty.
func createOutput(path string) *os.File {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	return f
}

// finishOutputs writes the optional export artifacts into the files
// created before the drive, failing hard on any error so CI catches broken
// runs. The IPFIX export walks every platform's flow log through one
// exporter (lane order, one template set).
func finishOutputs(pls []*core.Platform, sw *p4switch.Switch, ipfixOut, p4Out *os.File) {
	if ipfixOut != nil {
		exp := host.NewIPFIXExporter(ipfixOut, 1)
		for _, pl := range pls {
			if err := exp.ExportKV(pl.KV()); err != nil {
				fatal(err)
			}
		}
		if err := ipfixOut.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "flow log exported as IPFIX to %s\n", ipfixOut.Name())
	}
	if p4Out != nil {
		writeP4(sw, p4Out)
	}
	for _, pl := range pls {
		if err := pl.MetricsErr(); err != nil {
			fatal(fmt.Errorf("metrics emit: %w", err))
		}
	}
}

// writeP4 renders the switch query set plus its end-of-run control-plane
// entries. main has already refused -emit-p4 without -switch.
func writeP4(sw *p4switch.Switch, out *os.File) {
	src := sw.EmitP4("smartwatch") + "\n// Control-plane entries at end of run:\n"
	for _, e := range sw.ControlPlaneEntries() {
		src += "// " + e + "\n"
	}
	if _, err := out.WriteString(src); err != nil {
		fatal(err)
	}
	if err := out.Close(); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "P4 program written to %s\n", out.Name())
}

// serveExpvar starts the live metrics endpoint: /debug/vars carries the
// whole registry under the "smartwatch" key (plus the stdlib expvars),
// /metrics serves the latest snapshot as one JSON object, and the blank
// net/http/pprof import wires /debug/pprof. Snapshots are read via the
// registry's lock-free cache, so serving never perturbs the datapath.
func serveExpvar(addr string, reg *obs.Registry) error {
	expvar.Publish("smartwatch", expvar.Func(func() any { return lastSnapshot(reg) }))
	http.HandleFunc("/metrics", metricsHandler(reg))
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

// metricsHandler serves the registry's latest snapshot as one JSON object.
func metricsHandler(reg *obs.Registry) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, lastSnapshot(reg))
	}
}

// lastSnapshot is the registry's latest snapshot, or an empty object
// before the first interval close.
func lastSnapshot(reg *obs.Registry) any {
	if s := reg.LastSnapshot(); s != nil {
		return s
	}
	return struct{}{}
}

// detectorCtors builds each -detectors name's detector.
var detectorCtors = map[string]func() detect.Detector{
	"ssh":        bruteForce(trace.PortSSH),
	"ftp":        bruteForce(trace.PortFTP),
	"kerberos":   bruteForce(trace.PortKerberos),
	"portscan":   func() detect.Detector { return detect.NewPortScan(detect.PortScanConfig{}) },
	"rst":        func() detect.Detector { return detect.NewForgedRST(detect.ForgedRSTConfig{}) },
	"incomplete": func() detect.Detector { return detect.NewIncomplete(0, 0, nil) },
	"dns":        func() detect.Detector { return detect.NewDNSAmplification(0, 0) },
	"worm":       func() detect.Detector { return detect.NewWorm(0, 0) },
	"ssl":        func() detect.Detector { return detect.NewSSLExpiry(0) },
	"microburst": func() detect.Detector { return detect.NewMicroburst(0, 0) },
	"lowslow":    func() detect.Detector { return detect.NewLowSlow(detect.LowSlowConfig{}) },
}

// bruteForce builds a brute-force detector guarding one service port.
func bruteForce(service uint16) func() detect.Detector {
	return func() detect.Detector { return detect.NewBruteForce(detect.BruteForceConfig{Service: service}) }
}

// parseDetectors resolves the -detectors list to its constructors, in list
// order.
func parseDetectors(list string) ([]func() detect.Detector, error) {
	var out []func() detect.Detector
	for _, name := range strings.Split(list, ",") {
		if name = strings.TrimSpace(name); name == "" {
			continue
		}
		mk, ok := detectorCtors[name]
		if !ok {
			return nil, fmt.Errorf("unknown detector %q", name)
		}
		out = append(out, mk)
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
