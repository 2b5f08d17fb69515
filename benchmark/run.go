package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"smartwatch/internal/cluster"
	"smartwatch/internal/core"
	"smartwatch/internal/detect"
	"smartwatch/internal/host"
	"smartwatch/internal/packet"
	"smartwatch/internal/pcap"
	"smartwatch/internal/snic"
	"smartwatch/internal/stats"
	"smartwatch/internal/trace"
)

// inputs is one workload's generated input: a pcap on disk (file-fed) or
// a packet slice (in-memory), plus what generating it cost.
type inputs struct {
	w     *workload
	scale float64
	// pkts holds the offered packets for in-memory workloads and for
	// traced runs (the layer replays need them); nil otherwise so the
	// generator's heap does not count toward peak RSS.
	pkts      []packet.Packet
	truth     []trace.GroundTruth
	packets   int
	pcapPath  string
	pcapBytes int64

	genNs, encodeNs, warmNs int64
}

// prepare generates the workload's input from the seed. keepPackets also
// retains the packet slice of file-fed workloads.
func prepare(w *workload, seed uint64, scale float64, dir string, keepPackets bool) (*inputs, error) {
	in := &inputs{w: w, scale: scale}
	n := scaled(w.packets, scale)
	stream, truth := w.gen(seed, n, scale)
	in.truth = truth
	if !w.fileFed {
		t0 := time.Now()
		// Sized up front: append's doubling would leave the peak RSS to
		// whenever the collector happened to free the outgrown copies.
		in.pkts = make([]packet.Packet, 0, n)
		for p := range stream {
			in.pkts = append(in.pkts, p)
		}
		in.genNs = time.Since(t0).Nanoseconds()
		in.packets = len(in.pkts)
		return in, nil
	}

	// File-fed: stream the generator straight into the pcap writer, so the
	// generator's heap never counts toward the run's peak RSS.
	in.pcapPath = filepath.Join(dir, fmt.Sprintf("%s-seed%d-%d.pcap", w.name, seed, os.Getpid()))
	f, err := os.Create(in.pcapPath)
	if err != nil {
		return nil, err
	}
	pw := pcap.NewWriter(f, pcap.WriterConfig{SnapLen: snapLen, Encode: packet.EncodeOptions{EmbedMeta: true}})
	t0 := time.Now()
	for p := range stream {
		if err := pw.WritePacket(&p); err != nil {
			f.Close()
			return nil, fmt.Errorf("encode pcap: %w", err)
		}
	}
	if err := pw.Flush(); err != nil {
		f.Close()
		return nil, fmt.Errorf("flush pcap: %w", err)
	}
	if err := f.Close(); err != nil {
		return nil, fmt.Errorf("close pcap: %w", err)
	}
	in.encodeNs = time.Since(t0).Nanoseconds()
	in.packets = int(pw.Count())
	if keepPackets {
		// The traced run wants generation and encode apart, and the
		// packets exactly as the platform will decode them.
		t1 := time.Now()
		s, _ := w.gen(seed, n, scale)
		for range s {
		}
		in.genNs = time.Since(t1).Nanoseconds()
		in.encodeNs -= in.genNs
		src, err := pcap.OpenFile(in.pcapPath)
		if err != nil {
			return nil, err
		}
		in.pkts, err = src.Reader().ReadAll()
		src.Close()
		if err != nil {
			return nil, fmt.Errorf("read back pcap: %w", err)
		}
	}

	// Warm the page cache: the timed region reads the file from memory,
	// not from a disk or a link.
	t2 := time.Now()
	rf, err := os.Open(in.pcapPath)
	if err != nil {
		return nil, err
	}
	in.pcapBytes, err = io.Copy(io.Discard, bufio.NewReaderSize(rf, 1<<20))
	rf.Close()
	if err != nil {
		return nil, fmt.Errorf("warm pcap: %w", err)
	}
	in.warmNs = time.Since(t2).Nanoseconds()
	return in, nil
}

func (in *inputs) cleanup() {
	if in.pcapPath != "" {
		os.Remove(in.pcapPath)
	}
}

// engine is the platform under test behind one face: a single Platform's
// session or a cluster runner.
type engine struct {
	pl  *core.Platform
	ses *core.Session
	cl  *cluster.Runner
}

func newEngine(w *workload, cfg core.Config, mkDetectors func() []detect.Detector) *engine {
	if w.workers > 1 {
		cl := cluster.New(cluster.Config{Workers: w.workers, Worker: cfg, Detectors: mkDetectors, Steer: cluster.SteerHash})
		for _, wpl := range cl.Workers() {
			wpl.KV().SetRetention(w.kvRetention)
		}
		return &engine{cl: cl}
	}
	cfg.Detectors = mkDetectors()
	pl := core.New(cfg)
	pl.KV().SetRetention(w.kvRetention)
	return &engine{pl: pl}
}

func (e *engine) platforms() []*core.Platform {
	if e.cl != nil {
		return e.cl.Workers()
	}
	return []*core.Platform{e.pl}
}

func (e *engine) start() error {
	if e.cl != nil {
		return e.cl.Start()
	}
	e.ses = e.pl.NewSession()
	return e.ses.Start()
}

func (e *engine) ingest(b []packet.Packet) error {
	if e.cl != nil {
		return e.cl.Ingest(b)
	}
	return e.ses.Ingest(b)
}

func (e *engine) drain() (core.Report, *cluster.Report, error) {
	if e.cl != nil {
		crep, err := e.cl.Drain()
		return crep.Merged, &crep, err
	}
	rep, err := e.ses.Drain()
	return rep, nil, err
}

func (e *engine) close() error {
	if e.cl != nil {
		return e.cl.Close()
	}
	return e.pl.Close()
}

// pass is what one drive of the platform over the inputs produced.
type pass struct {
	cfg      core.Config
	wallNs   int64 // source open .. Drain returned
	newNs    int64 // core.New / cluster.New
	drainNs  int64
	rep      core.Report
	crep     *cluster.Report
	skipped  int64
	mallocs  uint64
	allocB   uint64
	gcCycles uint32
	gcPause  uint64

	flowlogPkts uint64
	storeLen    int
	kvWrites    uint64
	occupancy   int
	liteNs      int64
	generalNs   int64

	// Traced passes only.
	tr        *tracer
	decodeNs  int64
	ingestNs  int64
	vectors   int
	ingestLat *stats.Quantiles // per-vector Ingest latency, ns
	// ingestName is the span name of the platform call the client waits on.
	ingestName string
}

// drive runs one pass: build the platform (set-up), then time source open
// → vectors → Drain. One client, closed loop: a synchronous decode loop
// fills each 512-packet vector and the next is decoded only after Ingest
// returned, so every layer sits on the blocking path and a saving in any
// of them shows in the total one for one. (cmd/smartwatch overlaps decode
// with the drive on a second goroutine; with both cores busy the wall
// clock then follows whichever vCPU the box's other tenants leave alone.)
// With a tracer the same loop also records a span per vector and layer.
func drive(in *inputs, cfg core.Config, tr *tracer) (*pass, error) {
	w := in.w
	ps := &pass{cfg: cfg, tr: tr, ingestName: "core.ingest", ingestLat: stats.NewQuantiles(0)}
	if w.workers > 1 {
		ps.ingestName = "cluster.ingest"
	}
	mk := func() []detect.Detector { return w.buildDetectors(in.scale) }
	if tr != nil && w.workers <= 1 {
		mk = func() []detect.Detector { return tr.wrapDetectors(w, in.scale) }
	}
	t0 := time.Now()
	eng := newEngine(w, cfg, mk)
	if tr != nil && eng.pl != nil {
		tr.subscribe(eng.pl.Bus())
	}
	ps.newNs = time.Since(t0).Nanoseconds()
	defer eng.close()

	runtime.GC()
	debug.FreeOSMemory()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)

	start := time.Now()
	if err := eng.start(); err != nil {
		return nil, err
	}
	var rd *pcap.Reader
	if w.fileFed {
		src, err := pcap.OpenFile(in.pcapPath)
		if err != nil {
			return nil, err
		}
		defer src.Close()
		rd = src.Reader()
	}
	vec := make([]packet.Packet, 0, vectorLen)
	for next := 0; ; {
		var v0, v1 int64
		if tr != nil {
			v0 = tr.now()
		}
		if rd != nil {
			vec = vec[:0]
			for len(vec) < vectorLen {
				p, err := rd.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					return nil, fmt.Errorf("pcap decode: %w", err)
				}
				vec = append(vec, p)
			}
		} else {
			vec = in.pkts[next:min(next+vectorLen, len(in.pkts))]
			next += len(vec)
		}
		if len(vec) == 0 {
			break
		}
		if tr != nil {
			v1 = tr.now()
		}
		if err := eng.ingest(vec); err != nil {
			return nil, err
		}
		if tr != nil {
			ps.recordVector(v0, v1, tr.now(), len(vec), rd != nil)
		}
	}
	if rd != nil {
		ps.skipped = rd.Skipped()
	}
	d0 := time.Now()
	rep, crep, err := eng.drain()
	end := time.Now()
	if err != nil {
		return nil, err
	}
	ps.wallNs, ps.drainNs = end.Sub(start).Nanoseconds(), end.Sub(d0).Nanoseconds()
	ps.rep, ps.crep = rep, crep
	if tr != nil {
		now := tr.now()
		tr.add(span{Name: "core.drain", Start: now - ps.drainNs, End: now, Parent: -1, Vec: -1})
	}

	runtime.ReadMemStats(&m1)
	ps.mallocs = m1.Mallocs - m0.Mallocs
	ps.allocB = m1.TotalAlloc - m0.TotalAlloc
	ps.gcCycles = m1.NumGC - m0.NumGC
	ps.gcPause = m1.PauseTotalNs - m0.PauseTotalNs
	ps.readState(eng)
	return ps, nil
}

// readState collects what the Report does not carry: the final flow-log
// interval, host store size, table occupancy and mode residency.
func (ps *pass) readState(eng *engine) {
	for _, pl := range eng.platforms() {
		kv := pl.KV()
		if ivs := kv.Intervals(); len(ivs) > 0 {
			kv.Scan(ivs[len(ivs)-1], func(hr host.HostRecord) bool {
				ps.flowlogPkts += hr.Pkts
				return true
			})
		}
		ps.storeLen += pl.Store().Len()
		ps.kvWrites += kv.Writes()
		ps.occupancy += pl.Cache().Occupancy()
		g, l := pl.Cache().ModeResidency()
		ps.generalNs += g
		ps.liteNs += l
	}
}

// proof is the workload self-proof recorded with every run: where each
// offered packet went, so no number can silently measure the drop path.
type proof struct {
	Offered         uint64  `json:"offered"`
	ForwardedDirect uint64  `json:"forwarded_direct"`
	DroppedAtSwitch uint64  `json:"dropped_at_switch"`
	ToSNIC          uint64  `json:"to_snic"`
	Processed       uint64  `json:"snic_processed"`
	Dropped         uint64  `json:"snic_dropped"`
	CacheProcessed  uint64  `json:"flowcache_processed"`
	HitRate         float64 `json:"flowcache_hit_rate"`
	Evictions       uint64  `json:"evictions"`
	RingDrops       uint64  `json:"ring_drops"`
	HostPunts       uint64  `json:"host_punts"`
	Switchovers     uint64  `json:"switchovers"`
	Intervals       uint64  `json:"intervals"`
	Alerts          int     `json:"alerts"`
	SkippedFrames   int64   `json:"skipped_frames"`
	Unplaced        uint64  `json:"ledger_unplaced"`
}

func absDiff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}

// verify checks the pass against the ledger identities and the workload's
// own assertions. It returns the self-proof, the failed-operation count
// and every violated check.
func verify(in *inputs, ps *pass) (proof, uint64, []string) {
	rep, w := &ps.rep, in.w
	c := rep.Counts
	pr := proof{
		Offered: c.Total, ForwardedDirect: c.ForwardedDirect, DroppedAtSwitch: c.DroppedAtSwitch,
		ToSNIC: c.ToSNIC, Processed: rep.SNIC.Processed, Dropped: rep.SNIC.Dropped,
		CacheProcessed: rep.Cache.Processed(), HitRate: rep.Cache.HitRate(),
		Evictions: rep.Cache.Evictions, RingDrops: rep.Cache.RingDrops, HostPunts: rep.Cache.HostPunts,
		Switchovers: rep.Switchovers, Intervals: c.Intervals, Alerts: len(rep.Alerts),
		SkippedFrames: ps.skipped,
	}
	pr.Unplaced = absDiff(c.Total, c.ForwardedDirect+c.DroppedAtSwitch+c.ToSNIC) +
		absDiff(c.ToSNIC, rep.SNIC.Processed+rep.SNIC.Dropped) +
		absDiff(rep.SNIC.Processed, rep.Cache.Processed()+rep.Cache.HostPunts)

	var errs []string
	fail := func(format string, a ...any) { errs = append(errs, fmt.Sprintf(format, a...)) }
	if pr.Unplaced != 0 {
		fail("ledger: %d packets unplaced (%+v)", pr.Unplaced, pr)
	}
	if c.Total+uint64(ps.skipped) != uint64(in.packets) {
		fail("offered %d + skipped %d != generated %d", c.Total, ps.skipped, in.packets)
	}
	if ps.skipped != 0 {
		fail("pcap reader skipped %d frames", ps.skipped)
	}
	failed := uint64(ps.skipped) + pr.Unplaced
	if w.paced {
		failed += rep.SNIC.Dropped
		if rep.SNIC.Dropped != 0 {
			fail("paced workload lost %d packets at the sNIC", rep.SNIC.Dropped)
		}
	}
	if w.assert != nil {
		if msg := w.assert(rep); msg != "" {
			fail("%s", msg)
		}
	}
	// One platform sees every packet of an attacker; the cluster's workers
	// each see a hash-share of them, so its recall is reported, not gated.
	if len(in.truth) > 0 && w.workers <= 1 {
		if recall, _ := score(rep.Alerts, in.truth); recall < 0.5 {
			fail("detect recall %.2f below 0.5", recall)
		}
	}
	return pr, failed, errs
}

// score compares alerts with the injectors' ground truth, per attack
// label: recall is the share of true attackers some alert of that label
// names, precision the share of named attackers that are true. The
// conn-exhaust detector names the attacking /24, so a /24 match counts.
func score(alerts []detect.Alert, truth []trace.GroundTruth) (recall, precision float64) {
	var want, hit, named, namedTrue int
	for _, t := range truth {
		isTrue := map[packet.Addr]bool{}
		for _, a := range t.Attackers {
			isTrue[a] = true
			isTrue[a.Prefix(24)] = true
		}
		seen := map[packet.Addr]bool{}
		for _, al := range alerts {
			if al.Detector == t.Label && al.Attacker != 0 {
				seen[al.Attacker] = true
			}
		}
		for a := range seen {
			named++
			if isTrue[a] {
				namedTrue++
			}
		}
		for _, a := range t.Attackers {
			want++
			if seen[a] || seen[a.Prefix(24)] {
				hit++
			}
		}
	}
	if want > 0 {
		recall = float64(hit) / float64(want)
	}
	if named > 0 {
		precision = float64(namedTrue) / float64(named)
	}
	return recall, precision
}

// signature hashes every deterministic field of the report: two runs of
// one seed must agree on it whatever the host did to their timing. Bus
// delivery counts are left out because the traced run adds subscribers.
func signature(ps *pass) string {
	rep := &ps.rep
	h := sha256.New()
	fmt.Fprintf(h, "%+v|%d %d %.6f %.6f|%+v|%+v|%.3f|%d|%v|%+v|%d %d\n",
		rep.Counts, rep.SNIC.Processed, rep.SNIC.Dropped, rep.SNIC.EngineBusyNs, rep.SNIC.SpanNs,
		rep.Cache, rep.SwitchStats, rep.HostCPUNs, rep.Switchovers, rep.Events.Published, rep.Host,
		ps.flowlogPkts, ps.storeLen)
	for _, p := range []float64{50, 99} {
		fmt.Fprintf(h, "%.6f ", rep.SNIC.Latency.Percentile(p))
	}
	for _, a := range rep.Alerts {
		fmt.Fprintf(h, "%s %d %d %d %v\n", a.Detector, a.Ts, a.Attacker, a.Victim, a.Flow)
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// endToEnd derives the end-to-end metrics of one untraced pass.
func endToEnd(in *inputs, ps *pass, setupNs int64) map[string]float64 {
	rep := &ps.rep
	n := float64(in.packets)
	return map[string]float64{
		"setup_s":            float64(setupNs) / 1e9,
		"ns_per_pkt":         float64(ps.wallNs) / n,
		"peak_rss_mb":        peakRSSMB(),
		"allocs_per_kpkt":    float64(ps.mallocs) / n * 1e3,
		"sim_delivered_frac": 1 - rep.SNIC.LossRate(),
		"flowcache_hit_rate": rep.Cache.HitRate(),
		"flowlog_coverage":   ratio(float64(ps.flowlogPkts), float64(rep.Cache.Processed())),
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func nanToZero(x float64) float64 {
	if math.IsNaN(x) {
		return 0
	}
	return x
}

// snicConfig is the sNIC model core.New resolves cfg to.
func snicConfig(cfg core.Config) snic.Config {
	if cfg.SNIC.Profile.ClockHz == 0 {
		return snic.DefaultConfig()
	}
	return cfg.SNIC
}

// peakRSSMB is this process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
