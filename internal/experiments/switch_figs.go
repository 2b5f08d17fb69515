package experiments

import (
	"math"
	"sort"

	"smartwatch/internal/core"
	"smartwatch/internal/p4switch"
	"smartwatch/internal/packet"
	"smartwatch/internal/pcap"
	"smartwatch/internal/trace"
)

// Fig2SwitchState reproduces Fig. 2a/2b: P4 switch state vs the traffic
// volume steered to the sNIC, for the SSH-brute-forcing and port-scan
// queries across CAIDA trace years. Whitelisting the top-k heavy benign
// flows inside the fired subsets trades switch SRAM for steered volume;
// the curve knees once the heavy flows are exhausted (the hoverboard
// effect of §3.1).
func Fig2SwitchState(scale float64) *Table {
	t := &Table{
		ID: "fig2", Title: "P4 switch state vs traffic steered to the sNIC (whitelist sweep)",
		Columns: []string{"attack", "year", "whitelist_k", "steered_gbps", "switch_state_mb"},
	}
	for _, atk := range []string{"ssh", "portscan"} {
		for _, year := range []int{2015, 2016, 2018, 2019} {
			rows := fig2Curve(atk, year, scale)
			for _, r := range rows {
				t.AddRow(atk, d(year), d(r.k), f(r.gbps), f(r.stateMB))
			}
		}
	}
	t.Notes = append(t.Notes,
		"paper shape: per year, steered volume falls steeply with the first whitelist entries, then knees",
		"later trace years carry more traffic, shifting curves up and right")
	return t
}

type fig2Point struct {
	k       int
	gbps    float64
	stateMB float64
}

func fig2Curve(attack string, year int, scale float64) []fig2Point {
	// Build the year's workload plus the attack, sized down for speed.
	cfg := trace.CAIDA(year).Config()
	cfg.Duration = int64(2e8 * math.Max(scale, 0.05))
	cfg.Flows = scaleInt(cfg.Flows/5, math.Max(scale, 0.2))
	background := trace.NewWorkload(cfg)

	var attackStream packet.Stream
	var query p4switch.Query
	switch attack {
	case "ssh":
		inj := trace.BruteForce(trace.BruteForceConfig{
			Seed: uint64(year), Attackers: 6, AttemptsPerAttacker: 10, AttemptGap: 10e6,
			Target: packet.MustParseAddr("10.1.0.22"), LegitClients: 10, LegitDataPackets: 100,
		})
		attackStream = inj.Stream()
		query = p4switch.Query{
			Name: "ssh", Filter: p4switch.Predicate{Proto: packet.ProtoTCP, DstPort: trace.PortSSH},
			Key: p4switch.KeyDstIP, PrefixBits: 16, Reduce: p4switch.CountSYN, Threshold: 5, Slots: 1 << 12,
		}
	default:
		inj := trace.PortScan(trace.PortScanConfig{
			Seed: uint64(year), Targets: 12, PortsPerTarget: 20, ScanDelay: 2e6,
		})
		attackStream = inj.Stream()
		query = p4switch.Query{
			Name: "scan", Filter: p4switch.Predicate{Proto: packet.ProtoTCP},
			Key: p4switch.KeyDstIP, PrefixBits: 16, Reduce: p4switch.CountSYN, Threshold: 50, Slots: 1 << 12,
		}
	}
	mixed := pcap.Merge(background.Stream(), attackStream)

	// Pass 1: find the fired subsets over the first interval, then replay
	// and collect per-flow byte volume inside the steered subsets.
	sw := p4switch.New(p4switch.DefaultConfig())
	if err := sw.InstallQueries([]p4switch.Query{query}); err != nil {
		panic(err)
	}
	tr := p4switch.NewTracker(sw.Queries(), 0)
	type flowVol struct {
		key   packet.FlowKey
		bytes uint64
	}
	vols := map[packet.FlowKey]uint64{}
	var spanNs int64
	half := cfg.Duration / 2
	firedInstalled := false
	for p := range mixed {
		if p.Ts > spanNs {
			spanNs = p.Ts
		}
		if p.Ts >= half && !firedInstalled {
			for _, fk := range sw.EndInterval(tr.Candidates()) {
				_ = sw.Steer(fk)
			}
			firedInstalled = true
		}
		tr.Observe(&p)
		if sw.Process(&p) == p4switch.ToSNIC {
			vols[p.Key()] += uint64(p.Size)
		}
	}
	if spanNs == 0 {
		spanNs = 1
	}

	// Post-process: whitelisting the top-k flows removes their volume from
	// the steered set and adds k exact-match entries to switch state.
	flows := make([]flowVol, 0, len(vols))
	var total uint64
	for k, b := range vols {
		flows = append(flows, flowVol{k, b})
		total += b
	}
	sort.Slice(flows, func(i, j int) bool { return flows[i].bytes > flows[j].bytes })
	baseState := float64(sw.SRAMBytesUsed())
	const entryBytes = 32
	var out []fig2Point
	prefix := uint64(0)
	ks := []int{0, 2, 5, 10, 20, 50, 100, 200}
	ki := 0
	for i := 0; i <= len(flows); i++ {
		if ki < len(ks) && i == min(ks[ki], len(flows)) {
			steered := float64(total-prefix) * 8 / (float64(spanNs) / 1e9) / 1e9 // Gbps
			out = append(out, fig2Point{k: ks[ki], gbps: steered, stateMB: (baseState + float64(i*entryBytes)) / (1 << 20)})
			ki++
		}
		if i < len(flows) {
			prefix += flows[i].bytes
		}
	}
	return out
}

// Fig3Scaling reproduces Fig. 3a/3b: CPU cores and sNICs required to
// sustain packet arrival rates of 15–2320 Mpps under four deployments.
// Per-component capacities and traffic split fractions are calibrated from
// a platform run over the CAIDA-2018 preset (see fig3Fractions).
func Fig3Scaling(scale float64) *Table {
	fr := fig3Fractions(scale)
	t := &Table{
		ID: "fig3", Title: "Resources required vs packet arrival rate (4 deployments)",
		Columns: []string{"deployment", "rate_mpps", "cpu_cores", "snics"},
	}
	const (
		snicMpps     = 43.0 // one 40 GbE sNIC at 64 B line rate
		hostCoreMpps = 2.5  // one DPDK core doing full monitoring
		snapCoreDiv  = 8.0  // snapshot/aggregation cores per sNIC-load unit
	)
	ceil := func(x float64) int {
		if x <= 0 {
			return 0
		}
		return int(math.Ceil(x))
	}
	for _, rate := range []float64{15, 30, 60, 120, 240, 580, 1160, 2320} {
		// 1) Standalone host: every packet burns a core's cycles; plain
		// NICs are still needed to receive at line rate.
		t.AddRow("host", f(rate), d(ceil(rate/hostCoreMpps)), d(ceil(rate/snicMpps)))
		// 2) SmartWatch without a switch: sNICs absorb everything; the
		// host sees only the punted fraction plus snapshot work.
		cores := rate*fr.hostShareNoSwitch/hostCoreMpps + rate/snicMpps/snapCoreDiv
		t.AddRow("smartwatch-no-switch", f(rate), d(ceil(cores)), d(ceil(rate/snicMpps)))
		// 3) SmartWatch: the switch forwards the bulk; only the steered
		// fraction reaches the sNIC tier.
		steered := rate * fr.steeredShare
		cores = steered*fr.hostShareSteered/hostCoreMpps + steered/snicMpps/snapCoreDiv
		t.AddRow("smartwatch", f(rate), d(ceil(cores)), d(ceil(steered/snicMpps)))
		// 4) Switch + host (no sNIC): the steered fraction lands on host
		// cores directly.
		t.AddRow("switch-host", f(rate), d(ceil(steered/hostCoreMpps)), "0")
	}
	t.AddRow("calibration", "-", f2(fr.steeredShare), f2(fr.hostShareSteered))
	t.Notes = append(t.Notes,
		"paper shape: the switch cuts SmartWatch's sNIC and core needs by >=14x at 2320 Mpps",
		"calibration row: measured steered fraction and host share from the CAIDA-2018 run")
	return t
}

// fractions is Fig. 3's traffic split.
type fractions struct {
	steeredShare      float64
	hostShareSteered  float64
	hostShareNoSwitch float64
}

// fig3Fractions measures the steered fraction on the CAIDA 2018 preset
// behind the switch with the SSH query installed; the host shares are
// calibrated constants.
func fig3Fractions(scale float64) fractions {
	cfg := trace.CAIDA(2018).Config()
	cfg.Duration = int64(1e8 * math.Max(scale, 0.05))
	cfg.Flows = scaleInt(cfg.Flows/10, math.Max(scale, 0.2))
	background := trace.NewWorkload(cfg)
	attack := trace.BruteForce(trace.BruteForceConfig{
		Seed: 3, Attackers: 4, AttemptsPerAttacker: 8, AttemptGap: 5e6,
		Target: packet.MustParseAddr("10.1.0.22"), LegitClients: 6, LegitDataPackets: 60,
	})
	_, rep := drive{cfg: core.Config{EnableSwitch: true, IntervalNs: cfg.Duration / 4, Queries: []p4switch.Query{{
		Name: "ssh", Filter: p4switch.Predicate{Proto: packet.ProtoTCP, DstPort: trace.PortSSH},
		Key: p4switch.KeyDstIP, PrefixBits: 16, Reduce: p4switch.CountSYN, Threshold: 3, Slots: 1 << 12,
	}}}}.run(pcap.Merge(background.Stream(), attack.Stream()))
	fr := fractions{hostShareSteered: 0.16, hostShareNoSwitch: 0.03}
	if rep.Counts.Total > 0 {
		fr.steeredShare = float64(rep.Counts.ToSNIC) / float64(rep.Counts.Total)
	}
	if fr.steeredShare <= 0 {
		fr.steeredShare = 0.05
	}
	return fr
}
