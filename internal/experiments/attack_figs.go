package experiments

import (
	"math"

	"smartwatch/internal/core"
	"smartwatch/internal/detect"
	"smartwatch/internal/host"
	"smartwatch/internal/p4switch"
	"smartwatch/internal/packet"
	"smartwatch/internal/pcap"
	"smartwatch/internal/trace"
)

// latencyModel charges the per-packet latency of the two processing paths:
// the sNIC fast path and the host detour (PCIe + copy + NF), matching the
// cost split of §2.1.3 / Fig. 8a.
type latencyModel struct {
	snicNs float64
	hostNs float64
}

func defaultLatencyModel() latencyModel {
	return latencyModel{snicNs: 1500, hostNs: host.DefaultCostModel().PacketNs}
}

// sshSenders is Fig. 8a's host NF: it counts the packets the platform
// delivers to the host per sender class (legitimate client, attacker).
type sshSenders [2]float64

// sshClass is 0 for a packet of a legitimate client's session, 1 for an
// attacker's.
func sshClass(p *packet.Packet) int {
	b1, b2, _, _ := p.Tuple.SrcIP.Octets()
	rb1, rb2, _, _ := p.Tuple.DstIP.Octets()
	if (b1 == 100 && b2 == 99) || (rb1 == 100 && rb2 == 99) {
		return 0
	}
	return 1
}

func (n *sshSenders) Name() string { return "zeek-ssh" }
func (n *sshSenders) HandlePacket(p *packet.Packet) host.Verdict {
	n[sshClass(p)]++
	return host.Pass
}
func (n *sshSenders) Tick(int64) {}

// Fig8aSSHLatency reproduces Fig. 8a: per-packet SSH latency under
// (1) SmartWatch with a successful authentication (host involvement ends
// at auth), (2) baseline Zeek (every packet through the host), and
// (3) SmartWatch observing repeated failures. A packet costs the sNIC
// fast path, plus the host detour when the platform delivered it to the
// host.
func Fig8aSSHLatency(scale float64) *Table {
	lm := defaultLatencyModel()
	pkts := packet.Collect(trace.BruteForce(trace.BruteForceConfig{
		Seed: 8, Attackers: 3, AttemptsPerAttacker: 4,
		LegitClients: 4, LegitDataPackets: scaleInt(300, math.Max(scale, 0.2)),
	}).Stream())
	var sent sshSenders
	for i := range pkts {
		sent[sshClass(&pkts[i])]++
	}
	hosted := &sshSenders{}
	drive{
		cfg: core.Config{Cache: detectCache(10), Detectors: []detect.Detector{
			detect.NewBruteForce(detect.BruteForceConfig{Service: 22, Psi: 3}),
		}},
		setup: func(pl *core.Platform) { _ = pl.Ports().Attach(0, hosted) },
	}.run(packet.StreamOf(pkts))
	latency := func(class int) float64 { return lm.snicNs + lm.hostNs*hosted[class]/sent[class] }
	sw, zeek, fail := latency(0), lm.snicNs+lm.hostNs, latency(1)
	t := &Table{
		ID: "fig8a", Title: "SSH packet latency: SmartWatch vs baseline Zeek (ns)",
		Columns: []string{"scenario", "avg_latency_ns"},
	}
	t.AddRow("smartwatch-auth-success", f2(sw))
	t.AddRow("baseline-zeek", f2(zeek))
	t.AddRow("smartwatch-auth-failures", f2(fail))
	reduction := (zeek - sw) / zeek * 100
	t.AddRow("latency-reduction-%", f2(reduction))
	t.Notes = append(t.Notes,
		"paper: once SSH_AUTH_SUCCESS fires, packets stop visiting Zeek => ~77% avg latency reduction")
	return t
}

// Fig8bForgedRST reproduces Fig. 8b: the latency profile of the forged-RST
// pipeline as the hold window T grows — the Bloom-filter fast path keeps
// most RSTs at a ~411 ns surcharge while longer windows make wheel scans
// (duplicate checks) more expensive.
func Fig8bForgedRST(scale float64) *Table {
	lm := defaultLatencyModel()
	const bloomNs = 411
	const perEntryScanNs = 30
	t := &Table{
		ID: "fig8b", Title: "Forged-RST latency profile vs hold window T",
		Columns: []string{"T_s", "pct_snic_only", "pct_bloom_fast", "pct_wheel_scan", "avg_rst_extra_ns"},
	}
	for _, Ts := range []float64{0.25, 0.5, 1, 2} {
		det := detect.NewForgedRST(detect.ForgedRSTConfig{TNs: int64(Ts * 1e9)})
		// The session count stays fixed so the RST arrival span (~2 s)
		// always exceeds the largest T; only the background scales.
		inj := trace.ForgedRST(trace.ForgedRSTConfig{
			Seed: 9, Sessions: 400, ForgedFraction: 0.3,
			RaceGap: 50e6, DataPackets: 10, DuplicateRSTs: 2,
		})
		background := trace.NewWorkload(trace.WorkloadConfig{
			Seed: 10, Flows: scaleInt(2000, math.Max(scale, 0.2)), PacketRate: 1e6,
			Duration: int64(4e8 * math.Max(scale, 0.25)), UDPFraction: 0,
		})
		// A 1 ms tick releases held RSTs at the wheel's own granularity.
		_, rep := drive{cfg: core.Config{Cache: detectCache(11), TickNs: 1e6, Detectors: []detect.Detector{det}}}.
			run(pcap.Merge(background.Stream(), inj.Stream()))
		// Every RST takes the Bloom fast path or one wheel scan, which costs
		// perEntryScanNs per entry it walks.
		total := float64(rep.Counts.Total)
		fast, scan := float64(det.BloomFastPath), float64(det.WheelScans)
		extra := lm.hostNs + (fast*bloomNs+float64(det.Wheel().ScanCost())*perEntryScanNs)/(fast+scan)
		t.AddRow(f(Ts), f2((total-fast-scan)/total*100), f2(fast/total*100), f2(scan/total*100), f2(extra))
	}
	t.Notes = append(t.Notes,
		"paper shape: ~99% of packets never leave the sNIC; most RSTs take the Bloom fast path;",
		"scan cost (and so RST latency tail) grows with T as more RSTs stay buffered")
	return t
}

// Fig8cPortScan reproduces Fig. 8c: detection rate vs average scan delay
// (5 ms to 300 s) for SmartWatch's TRW pipeline vs a standalone P4 switch
// threshold query. Slow scanners evade per-interval volumetric thresholds
// but not per-connection state tracking.
func Fig8cPortScan(scale float64) *Table {
	t := &Table{
		ID: "fig8c", Title: "Port-scan detection rate vs average scan delay",
		Columns: []string{"scan_delay_ms", "smartwatch", "p4switch"},
	}
	scanners := scaleInt(10, math.Max(scale, 0.3))
	probes := 40
	const intervalNs = int64(5e9) // 5 s switch monitoring interval
	for _, delayMs := range []float64{5, 10, 1000, 15000, 300000} {
		var detectedSW, detectedP4 int
		for s := 0; s < scanners; s++ {
			scanner := packet.AddrFrom4(203, 7, byte(s>>8), byte(s+1))
			inj := trace.PortScan(trace.PortScanConfig{
				Seed: uint64(s + 1), Scanner: scanner,
				Targets: 4, PortsPerTarget: probes / 4,
				ScanDelay: int64(delayMs * 1e6), OpenFraction: 0.02, SilentFraction: 0.3,
			})
			pkts := packet.Collect(inj.Stream())

			// SmartWatch: TRW over handshake outcomes, probes unanswered
			// after 2 s counted as failures on a 100 ms tick.
			det := detect.NewPortScan(detect.PortScanConfig{ResponseTimeoutNs: 2e9})
			drive{cfg: core.Config{Cache: detectCache(10), IntervalNs: intervalNs, TickNs: 100e6,
				Detectors: []detect.Detector{det}}, tailNs: 10e9}.run(packet.StreamOf(pkts))
			if det.Flagged(scanner) {
				detectedSW++
			}

			// Standalone P4 switch: SYNs per source per interval.
			sw := p4switch.New(p4switch.DefaultConfig())
			q := p4switch.Query{
				Name: "scan", Filter: p4switch.Predicate{Proto: packet.ProtoTCP},
				Key: p4switch.KeySrcIP, PrefixBits: 32,
				Reduce: p4switch.CountSYN, Threshold: 10, Slots: 1 << 12,
			}
			if err := sw.InstallQueries([]p4switch.Query{q}); err != nil {
				panic(err)
			}
			tr := p4switch.NewTracker(sw.Queries(), 0)
			next := intervalNs
			p4hit := false
			for i := range pkts {
				for pkts[i].Ts >= next {
					for _, fk := range sw.EndInterval(tr.Candidates()) {
						if fk.Key == scanner {
							p4hit = true
						}
					}
					next += intervalNs
				}
				tr.Observe(&pkts[i])
				sw.Process(&pkts[i])
			}
			for _, fk := range sw.EndInterval(tr.Candidates()) {
				if fk.Key == scanner {
					p4hit = true
				}
			}
			if p4hit {
				detectedP4++
			}
		}
		t.AddRow(f(delayMs),
			f2(float64(detectedSW)/float64(scanners)),
			f2(float64(detectedP4)/float64(scanners)))
	}
	t.Notes = append(t.Notes,
		"paper shape: SmartWatch holds ~1.0 across all delays; the switch threshold query",
		"collapses once per-interval SYN counts fall below threshold (paranoid scanners)")
	return t
}
