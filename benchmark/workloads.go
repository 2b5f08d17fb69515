package main

import (
	"fmt"
	"iter"
	"math"
	"sort"
	"strings"

	"smartwatch/internal/core"
	"smartwatch/internal/detect"
	"smartwatch/internal/flowcache"
	"smartwatch/internal/p4switch"
	"smartwatch/internal/packet"
	"smartwatch/internal/stats"
	"smartwatch/internal/trace"
)

// Every workload drives the platform the way Platform.Run, the CLI and
// -serve do: a closed loop with one client handing over 512-packet
// vectors, the next one only after Ingest returned.
const vectorLen = 512

// snapLen keeps the metadata TLV (auth outcome) the ssh detector reads at
// frame offset 54..74; a 64-byte snap would cut it and blind the detector.
const snapLen = 96

// Fixed packet counts at scale 1, sized so one timed pass is 1–2.5 s on
// the 2-core reference box and a 10 s run fits three fresh-process passes.
const (
	backbonePackets  = 3_000_000
	manyflowsPackets = 2_000_000
	churnPackets     = 800_000
)

// workload is one committed input + platform configuration.
type workload struct {
	name string
	why  string
	// packets is the fixed number offered at scale 1.
	packets int
	// fileFed workloads read a pcap through pcap.FileSource; the others
	// hold the packets in memory.
	fileFed bool
	// paced workloads stay below modelled sNIC capacity: a single sNIC
	// drop fails the run.
	paced bool
	// workers > 1 selects the cluster runner.
	workers int
	// detectors names the detector set ("" = none).
	detectors string
	// kvRetention mirrors the daemon's -kv-retention (0 = unbounded).
	kvRetention int
	// gen builds the n offered packets and the injectors' ground truth.
	gen func(seed uint64, n int, scale float64) (packet.Stream, []trace.GroundTruth)
	// assert names what the run must have exercised for the workload to
	// have measured what it exists to measure ("" = it did).
	assert func(rep *core.Report) string
	// config returns the platform config without detectors; scale < 1
	// (smoke tests) may shrink a table so the workload keeps its character.
	config func(scale float64) core.Config
}

const defaultDetectors = "ssh,portscan,rst,incomplete,dns,worm,ssl"

var workloads = []workload{
	{
		name:      "backbone",
		packets:   backbonePackets,
		why:       "common case: CAIDA-2019-like mix with ssh brute force and port scan, pcap-fed, switch and default detectors on, table resident; no single layer dominates",
		fileFed:   true,
		paced:     true,
		detectors: defaultDetectors,
		gen:       genBackbone,
		config:    backboneConfig,
	},
	{
		name:    "manyflows",
		packets: manyflowsPackets,
		why:     "2^20-flow population over a 252 MB RowBits-18 table, no switch, no detectors: bare forwarding through a DRAM-bound FlowCache read path",
		fileFed: true,
		paced:   true,
		gen:     genManyflows,
		config:  func(float64) core.Config { return baseConfig(18, 100e6) },
	},
	{
		name:        "churn",
		packets:     churnPackets,
		why:         "many flows plus connection exhaustion on an oversubscribed RowBits-12 table, pinning detectors, 20 ms intervals: FlowCache write path and host flush dominate",
		fileFed:     true,
		paced:       true,
		detectors:   "lowslow,ssh,portscan,rst,incomplete",
		kvRetention: 8,
		gen:         genChurn,
		assert: func(rep *core.Report) string {
			if rep.Cache.Evictions == 0 || rep.Cache.HostPunts == 0 {
				return fmt.Sprintf("churn evicted %d and punted %d, want both > 0", rep.Cache.Evictions, rep.Cache.HostPunts)
			}
			return ""
		},
		config: func(scale float64) core.Config {
			// Shrink the table with the flow population: it stays
			// oversubscribed, so inserts keep evicting and punting.
			return baseConfig(12+int(math.Round(math.Log2(scale))), 20e6)
		},
	},
	{
		name:    "surge",
		packets: backbonePackets,
		why:     "backbone packets held in memory, re-timed into 15/40 Mpps phases with microbursts above 43 Mpps: mode flips, Lite probes and the sNIC drop path; pcap bypassed",
		gen:     genSurge,
		assert: func(rep *core.Report) string {
			if loss := rep.SNIC.LossRate(); loss < 0.01 || loss > 0.10 || rep.Switchovers < 10 {
				return fmt.Sprintf("surge lost %.4f of its packets and flipped modes %d times, want 0.01..0.10 and >= 10", loss, rep.Switchovers)
			}
			return ""
		},
		config: func(float64) core.Config { return baseConfig(16, 100e6) },
	},
	{
		name:      "fanout2",
		packets:   backbonePackets,
		why:       "the backbone pcap through a 2-worker hash-steered cluster: steering, SPSC ingress rings, two drive goroutines and the merge; the only multi-core number",
		fileFed:   true,
		paced:     true,
		workers:   2,
		detectors: defaultDetectors,
		gen:       genBackbone,
		config:    backboneConfig,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func baseConfig(rowBits int, intervalNs int64) core.Config {
	return core.Config{
		Cache:      flowcache.DefaultConfig(rowBits),
		IntervalNs: intervalNs,
		BatchSize:  64,
		Shards:     1,
	}
}

func backboneConfig(scale float64) core.Config {
	// The interval shrinks with the trace so a smoke run still closes the
	// ~5 intervals the switch needs to start steering.
	c := baseConfig(16, int64(100e6*scale))
	c.EnableSwitch = true
	c.Queries = defaultQueries()
	return c
}

// defaultQueries is cmd/smartwatch's standing coarse query set.
func defaultQueries() []p4switch.Query {
	tcp := p4switch.Predicate{Proto: packet.ProtoTCP}
	ssh := p4switch.Predicate{Proto: packet.ProtoTCP, ServicePort: trace.PortSSH}
	return []p4switch.Query{
		{Name: "ssh-conns", Filter: ssh, Key: p4switch.KeyDstIP, PrefixBits: 16,
			Reduce: p4switch.CountSYN, Threshold: 5, Slots: 1 << 12},
		{Name: "syn-fanout", Filter: tcp, Key: p4switch.KeyDstIP, PrefixBits: 16,
			Reduce: p4switch.CountSYN, Threshold: 50, Slots: 1 << 12},
		{Name: "rst-burst", Filter: tcp, Key: p4switch.KeyDstIP, PrefixBits: 16,
			Reduce: p4switch.CountRST, Threshold: 10, Slots: 1 << 12},
	}
}

// detectorNames lists every detector any workload configures; the
// per-detector metrics are emitted for all of them on every workload
// (zero where a workload does not run one).
var detectorNames = []string{"ssh", "portscan", "rst", "incomplete", "dns", "worm", "ssl", "lowslow"}

// buildDetector mirrors cmd/smartwatch's -detectors names. lowslow holds
// its pins for 2 s of idleness instead of 500 ms: over churn's ~4 s of
// virtual time that keeps enough rows fully pinned for inserts to punt.
func buildDetector(name string, scale float64) detect.Detector {
	switch name {
	case "ssh":
		return detect.NewBruteForce(detect.BruteForceConfig{Service: trace.PortSSH})
	case "portscan":
		return detect.NewPortScan(detect.PortScanConfig{})
	case "rst":
		return detect.NewForgedRST(detect.ForgedRSTConfig{})
	case "incomplete":
		return detect.NewIncomplete(0, 0, nil)
	case "dns":
		return detect.NewDNSAmplification(0, 0)
	case "worm":
		return detect.NewWorm(0, 0)
	case "ssl":
		return detect.NewSSLExpiry(0)
	case "lowslow":
		return detect.NewLowSlow(detect.LowSlowConfig{IdleNs: int64(2e9 * scale), MinAgeNs: int64(1e9 * scale)})
	}
	panic("benchmark: unknown detector " + name)
}

func (w *workload) detectorList() []string {
	if w.detectors == "" {
		return nil
	}
	return strings.Split(w.detectors, ",")
}

func (w *workload) buildDetectors(scale float64) []detect.Detector {
	var out []detect.Detector
	for _, name := range w.detectorList() {
		out = append(out, buildDetector(name, scale))
	}
	return out
}

func scaled(n int, scale float64) int {
	return max(1, int(float64(n)*scale))
}

// mergeLimit merges a timestamp-ordered background stream with a small
// sorted slice of injected packets and stops after n packets.
func mergeLimit(bg packet.Stream, extra []packet.Packet, n int) packet.Stream {
	return func(yield func(packet.Packet) bool) {
		sent, j := 0, 0
		for p := range bg {
			for j < len(extra) && extra[j].Ts <= p.Ts {
				if sent >= n || !yield(extra[j]) {
					return
				}
				sent++
				j++
			}
			if sent >= n || !yield(p) {
				return
			}
			sent++
		}
	}
}

func collectSorted(inj ...trace.Injector) ([]packet.Packet, []trace.GroundTruth) {
	var pkts []packet.Packet
	var truth []trace.GroundTruth
	for _, in := range inj {
		pkts = append(pkts, packet.Collect(in.Stream())...)
		truth = append(truth, in.Truth())
	}
	sort.SliceStable(pkts, func(i, j int) bool { return pkts[i].Ts < pkts[j].Ts })
	return pkts, truth
}

// backboneLinks: the background is this many independent CAIDA-2019-like
// generators merged, each with a share of the flows and the rate. One
// generator at Zipf 1.25 puts a quarter of all packets into its single
// heaviest flow, and whether that flow is UDP (which the switch's TCP
// queries never steer) would swing every metric by seed; sixteen heads of
// 1.5 % each average the lottery out.
const backboneLinks = 16

// genBackbone is the CAIDA-2019 preset (65k flows, Zipf 1.25, bursty
// elephants) at a nominal 3 M trains/s — about 8 Mpps once bursts are
// counted, a quarter of General-mode capacity — with an ssh brute force
// and a port scan compressed into the ~0.4 s of virtual time.
func genBackbone(seed uint64, n int, scale float64) (packet.Stream, []trace.GroundTruth) {
	links := make([]packet.Stream, backboneLinks)
	for i := range links {
		links[i] = trace.NewWorkload(trace.WorkloadConfig{
			Seed: seed*backboneLinks + uint64(i), Flows: scaled(65000/backboneLinks, scale), ZipfS: 1.25,
			PacketRate: 3e6 / backboneLinks, Duration: 600e9, MeanBurst: 5, UDPFraction: 0.12,
		}).Stream()
	}
	horizon := int64(float64(n) / 8e6 * 1e9) // a little under the virtual span
	attacks, truth := collectSorted(
		trace.BruteForce(trace.BruteForceConfig{
			Seed: seed, Attackers: 5, AttemptsPerAttacker: 6, AttemptGap: horizon / 10,
			LegitClients: 4, Start: horizon / 20,
		}),
		trace.PortScan(trace.PortScanConfig{
			Seed: seed, Targets: 16, PortsPerTarget: 16, ScanDelay: horizon / 400, Start: horizon / 10,
		}),
	)
	return mergeLimit(mergeStreams(links), attacks, n), truth
}

// mergeStreams interleaves timestamp-ordered streams into one. Each input
// is pulled a batch at a time, so the coroutine switch iter.Pull costs is
// paid once per 256 packets rather than per packet (pcap.Merge's way).
func mergeStreams(streams []packet.Stream) packet.Stream {
	const batch = 256
	return func(yield func(packet.Packet) bool) {
		type head struct {
			buf  []packet.Packet
			next func() ([]packet.Packet, bool)
		}
		heads := make([]head, 0, len(streams))
		for _, s := range streams {
			next, stop := iter.Pull(func(yield func([]packet.Packet) bool) {
				// Two buffers alternate: the consumer is done with one
				// by the time it asks for the batch after the next.
				buf, spare := make([]packet.Packet, 0, batch), make([]packet.Packet, 0, batch)
				for p := range s {
					if buf = append(buf, p); len(buf) == batch {
						if !yield(buf) {
							return
						}
						buf, spare = spare[:0], buf
					}
				}
				if len(buf) > 0 {
					yield(buf)
				}
			})
			defer stop()
			if buf, ok := next(); ok {
				heads = append(heads, head{buf, next})
			}
		}
		for len(heads) > 0 {
			first := 0
			for i := 1; i < len(heads); i++ {
				if heads[i].buf[0].Ts < heads[first].buf[0].Ts {
					first = i
				}
			}
			h := &heads[first]
			if !yield(h.buf[0]) {
				return
			}
			if h.buf = h.buf[1:]; len(h.buf) == 0 {
				var ok bool
				if h.buf, ok = h.next(); !ok {
					heads = append(heads[:first], heads[first+1:]...)
				}
			}
		}
	}
}

// manyflowsBackground draws from a 2^20-flow population at Zipf 1.05: the
// head is barely heavier than the tail, so most packets land on rows no
// recent packet touched.
func manyflowsBackground(seed uint64, scale, rate float64) packet.Stream {
	return trace.NewWorkload(trace.WorkloadConfig{
		Seed: seed, Flows: scaled(1<<20, scale), ZipfS: 1.05, PacketRate: rate,
		Duration: 600e9, MeanBurst: 3, UDPFraction: 0.12,
	}).Stream()
}

func genManyflows(seed uint64, n int, scale float64) (packet.Stream, []trace.GroundTruth) {
	return mergeLimit(manyflowsBackground(seed, scale, 2e6), nil, n), nil
}

// churnPps is the churn trace's effective packet rate: a twentieth of
// manyflows', so that 800k packets span ~4 s of virtual time and two hundred
// 20 ms intervals, each of which re-snapshots the whole host FlowStore.
const churnPps = 0.2e6

// genChurn is the many-flow background plus connection exhaustion: a
// rotating /24 parks half-open connections that the lowslow detector pins.
func genChurn(seed uint64, n int, scale float64) (packet.Stream, []trace.GroundTruth) {
	horizon := int64(float64(n) / churnPps * 1e9)
	const conns = 400
	attacks, truth := collectSorted(trace.ConnExhaust(trace.ConnExhaustConfig{
		Seed: seed, Connections: conns, ConnGap: horizon / (4 * conns), Start: horizon / 20,
	}))
	return mergeLimit(manyflowsBackground(seed, scale, churnPps/2), attacks, n), truth
}

// genSurge re-times the backbone packets into alternating 15 and 40 Mpps
// phases (2 ms each: the controller's 1 ms, alpha 0.75 EWMA crosses the
// 30 and 25 Mpps thresholds one window into every phase) and drops one
// 120 Mpps microburst into every 40 Mpps phase: the only place the sNIC
// input buffer overruns.
func genSurge(seed uint64, n int, scale float64) (packet.Stream, []trace.GroundTruth) {
	bg, _ := genBackbone(seed, n, scale)
	return func(yield func(packet.Packet) bool) {
		rng := stats.NewRand(seed ^ 0x5a5a)
		const phaseNs = 2e6
		var (
			ts, phaseStart, nextBurst float64
			fast                      bool
			burstLeft                 int
		)
		for p := range bg {
			if ts-phaseStart >= phaseNs {
				phaseStart, fast = ts, !fast
				if fast {
					nextBurst = ts + phaseNs*(0.2+0.6*rng.Float64())
				}
			}
			gap := 1e9 / 15e6
			if fast {
				gap = 1e9 / 40e6
				if burstLeft == 0 && ts >= nextBurst {
					burstLeft = 3000 + rng.IntN(2000)
					nextBurst = ts + 2*phaseNs // one burst per fast phase
				}
			}
			if burstLeft > 0 {
				gap = 1e9 / 120e6
				burstLeft--
			}
			p.Ts = int64(ts)
			if !yield(p) {
				return
			}
			ts += gap
		}
	}, nil
}
