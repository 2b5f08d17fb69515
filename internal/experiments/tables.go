package experiments

import (
	"math"

	"smartwatch/internal/core"
	"smartwatch/internal/detect"
	"smartwatch/internal/flowcache"
	"smartwatch/internal/packet"
	"smartwatch/internal/pcap"
	"smartwatch/internal/snic"
	"smartwatch/internal/trace"
)

// metered wraps a detector and accounts its sNIC cycles and host punts for
// Table 2. To the platform it is a detector from outside package detect,
// which the chain drives through OnPacket; it forwards SetHooks, so the
// wrapped detector's Tick work still reaches the platform.
type metered struct {
	detect.Detector
	cycles float64
	toHost uint64
}

// matchCheckCycles is the per-packet cost every installed detector pays to
// decide whether a packet concerns it (the match-action dispatch check on
// the sNIC) — the overhead Table 2's ~2%-per-detector rows are made of.
const matchCheckCycles = 30

func (m *metered) OnPacket(p *packet.Packet, rec *flowcache.Record, ctx snic.Ctx) detect.Reaction {
	r := m.Detector.OnPacket(p, rec, ctx)
	m.cycles += matchCheckCycles + r.ExtraCycles
	if r.ToHost {
		m.toHost++
	}
	return r
}

// SetHooks hands the platform's hooks on to the wrapped detector, when it
// takes them.
func (m *metered) SetHooks(h detect.Hooks) {
	if hd, ok := m.Detector.(interface{ SetHooks(detect.Hooks) }); ok {
		hd.SetHooks(h)
	}
}

// Table2Resources reproduces Table 2: with all fifteen detectors running
// simultaneously over a mixed CAIDA-2018-like trace, the share of sNIC
// cycles each consumes (the FlowCache baseline dominates) and the share of
// trace packets each forwards to the host.
func Table2Resources(scale float64) *Table {
	// Mixed workload: background plus every attack.
	bg := trace.CAIDA(2018).Config()
	bg.Duration = int64(4e8 * math.Max(scale, 0.1))
	bg.Flows = scaleInt(bg.Flows/5, math.Max(scale, 0.2))
	streams := []packet.Stream{
		trace.NewWorkload(bg).Stream(),
		trace.BruteForce(trace.BruteForceConfig{Seed: 50, Attackers: 4, AttemptsPerAttacker: 6, LegitClients: 6, LegitDataPackets: 80}).Stream(),
		trace.BruteForce(trace.BruteForceConfig{Seed: 51, Port: trace.PortFTP, Attackers: 3, AttemptsPerAttacker: 5, LegitClients: 4}).Stream(),
		trace.Kerberos(trace.KerberosConfig{Seed: 52, Abusers: 3, RequestsPerAbuser: 30}).Stream(),
		trace.SSLExpiry(trace.SSLExpiryConfig{Seed: 53, Servers: 16, HandshakesPerServer: 4}).Stream(),
		trace.ForgedRST(trace.ForgedRSTConfig{Seed: 54, Sessions: 60, ForgedFraction: 0.4, DuplicateRSTs: 1}).Stream(),
		trace.Incomplete(trace.IncompleteConfig{Seed: 55, Sources: 5, SynsPerSource: 25}).Stream(),
		trace.PortScan(trace.PortScanConfig{Seed: 56, Targets: 10, PortsPerTarget: 15, ScanDelay: 4e6}).Stream(),
		trace.DNSAmplification(trace.DNSAmplificationConfig{Seed: 57, Resolvers: 4, Queries: 30}).Stream(),
		trace.Microburst(trace.MicroburstConfig{Seed: 58, Bursts: 6, FlowsPerBurst: 20, PacketsPerFlow: 10, Gap: 50e6}).Stream(),
		trace.Worm(trace.WormConfig{Seed: 59, InfectedHosts: 3, TargetsPerHost: 30}).Stream(),
	}
	mixed := pcap.Merge(streams...)

	ssl := trace.SSLExpiry(trace.SSLExpiryConfig{Seed: 53})
	covertRef := trace.CovertTiming(trace.CovertTimingConfig{Seed: 60})
	dets := []*metered{
		{Detector: detect.NewBruteForce(detect.BruteForceConfig{Service: trace.PortSSH, Psi: 3})},
		{Detector: detect.NewSSLExpiry(ssl.Horizon())},
		{Detector: detect.NewBruteForce(detect.BruteForceConfig{Service: trace.PortFTP, Psi: 3})},
		{Detector: detect.NewBruteForce(detect.BruteForceConfig{Service: trace.PortKerberos, Psi: 5})},
		{Detector: detect.NewForgedRST(detect.ForgedRSTConfig{})},
		{Detector: detect.NewIncomplete(2e9, 10, nil)},
		{Detector: detect.NewPortScan(detect.PortScanConfig{ResponseTimeoutNs: 2e9})},
		{Detector: detect.NewDNSAmplification(10, 2000)},
		{Detector: detect.NewMicroburst(200e3, 0)},
		{Detector: detect.NewWorm(16, 0)},
		{Detector: detect.NewCovertTiming(detect.CovertTimingConfig{BenignIPDs: covertRef.BenignIPDSample(2000)})},
	}

	chain := make([]detect.Detector, len(dets))
	for i, m := range dets {
		chain[i] = m
	}
	_, rep := drive{cfg: core.Config{Cache: detectCache(12), TickNs: 50e6, Detectors: chain}}.run(mixed)
	prof := snic.Netronome()
	flowCacheCycles := prof.BaseCycles*float64(rep.SNIC.Processed) +
		prof.CyclesPerRead*float64(rep.Cache.Reads) + prof.CyclesPerWrite*float64(rep.Cache.Writes)
	total := rep.Counts.Total

	totalCycles := flowCacheCycles
	for _, m := range dets {
		totalCycles += m.cycles
	}
	t := &Table{
		ID: "table2", Title: "Per-detector sNIC cycles and host-processed packets (all detectors on)",
		Columns: []string{"detector", "snic_cycles_pct", "host_processed_pct"},
	}
	t.AddRow("flowcache+offline(HH,HC,card,FSE,slowloris)", f2(flowCacheCycles/totalCycles*100), "0.00")
	for _, m := range dets {
		t.AddRow(m.Name(), f2(m.cycles/totalCycles*100), f2(float64(m.toHost)/float64(total)*100))
	}
	t.Notes = append(t.Notes,
		"paper shape: baseline FlowCache consumes ~80% of cycles; each detector only ~2%;",
		"host-processed stays in low single digits per detector (<16% total)")
	return t
}

// Table3NICs reproduces Table 3 / §4.1: predicted packet throughput for
// the three SmartNIC hardware profiles under the same 64 B stress
// workload, via the trace-driven cycle simulation.
func Table3NICs(scale float64) *Table {
	n := scaleInt(120_000, math.Max(scale, 0.3))
	t := &Table{
		ID: "table3", Title: "Cross-NIC throughput predictions (64 B stress, Lite mode)",
		Columns: []string{"snic", "cores", "clock_ghz", "predicted_mpps"},
	}
	for _, prof := range []snic.Profile{snic.Netronome(), snic.BlueField(), snic.LiquidIO()} {
		capMpps := snic.CapacityProbe(
			func() *snic.Engine {
				cfg := flowcache.DefaultConfig(12)
				cfg.RingEntries = 1 << 20
				sc := snic.DefaultConfig()
				sc.Profile = prof
				e, _ := cacheOnSNIC(cfg, flowcache.Lite, sc)
				return e
			},
			func(pps float64) packet.Stream { return snic.RetimeUniform(stressStream(n, 100_000, 0.3, 61), pps) },
			10, 60, 0.001)
		t.AddRow(prof.Name, d(prof.PMEs), f2(prof.ClockHz/1e9), f2(capMpps))
	}
	t.Notes = append(t.Notes, "paper: Netronome 43, LiquidIO 42.2, BlueField 40.7 Mpps (fewer cores = slightly lower)")
	return t
}
