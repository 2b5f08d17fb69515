package trace

import (
	"testing"

	"smartwatch/internal/packet"
)

// checkStream asserts the common injector invariants: determinism,
// non-empty output, and monotone timestamps.
func checkStream(t *testing.T, inj Injector) []packet.Packet {
	t.Helper()
	a := packet.Collect(inj.Stream())
	b := packet.Collect(inj.Stream())
	if len(a) == 0 {
		t.Fatal("injector produced no packets")
	}
	if len(a) != len(b) {
		t.Fatalf("replay lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverges at %d", i)
		}
	}
	for i := 1; i < len(a); i++ {
		if a[i].Ts < a[i-1].Ts {
			t.Fatalf("timestamps regress at %d", i)
		}
	}
	return a
}

func TestBruteForceSSH(t *testing.T) {
	inj := BruteForce(BruteForceConfig{Seed: 1, Attackers: 3, AttemptsPerAttacker: 4, LegitClients: 2})
	pkts := checkStream(t, inj)
	truth := inj.Truth()
	if truth.Label != "ssh-bruteforce" || len(truth.Attackers) != 3 {
		t.Errorf("truth = %+v", truth)
	}
	var failures, successes int
	attackerSet := map[packet.Addr]bool{}
	for _, a := range truth.Attackers {
		attackerSet[a] = true
	}
	for _, p := range pkts {
		switch p.AuthOutcome {
		case packet.AuthFailure:
			failures++
			if !attackerSet[p.Tuple.SrcIP] {
				t.Errorf("failure from non-attacker %s", p.Tuple.SrcIP)
			}
		case packet.AuthSuccess:
			successes++
			if attackerSet[p.Tuple.SrcIP] {
				t.Errorf("success from attacker %s", p.Tuple.SrcIP)
			}
		}
		if p.IsTCP() && p.Tuple.DstPort != PortSSH && p.Tuple.SrcPort != PortSSH {
			t.Errorf("non-SSH packet in SSH attack: %v", p.Tuple)
		}
	}
	if failures != 3*4 {
		t.Errorf("failures = %d, want 12", failures)
	}
	if successes != 2 {
		t.Errorf("successes = %d, want 2", successes)
	}
}

func TestBruteForceFTPLabel(t *testing.T) {
	inj := BruteForce(BruteForceConfig{Seed: 2, Port: PortFTP, Attackers: 1, AttemptsPerAttacker: 1})
	if inj.Truth().Label != "ftp-bruteforce" {
		t.Errorf("label = %s", inj.Truth().Label)
	}
}

func TestPortScan(t *testing.T) {
	inj := PortScan(PortScanConfig{Seed: 3, Targets: 4, PortsPerTarget: 25, ScanDelay: 1e6})
	pkts := checkStream(t, inj)
	truth := inj.Truth()
	var syns, synacks, rsts int
	for _, p := range pkts {
		switch {
		case p.Flags.Has(packet.FlagSYN | packet.FlagACK):
			synacks++
		case p.Flags.Has(packet.FlagSYN):
			syns++
			if p.Tuple.SrcIP != truth.Attackers[0] {
				t.Errorf("SYN not from scanner")
			}
		case p.Flags.Has(packet.FlagRST):
			rsts++
		}
	}
	if syns != 100 {
		t.Errorf("probes = %d, want 100", syns)
	}
	// With 5% open / 30% silent defaults most probes elicit an RST.
	if rsts < 40 {
		t.Errorf("rsts = %d, too few", rsts)
	}
	if synacks == 0 {
		t.Errorf("no open ports found")
	}
}

func TestForgedRSTGroundTruth(t *testing.T) {
	inj := ForgedRST(ForgedRSTConfig{Seed: 4, Sessions: 40, ForgedFraction: 0.5})
	pkts := checkStream(t, inj)
	truth := inj.Truth()
	if len(truth.Flows) == 0 || len(truth.Flows) == 40 {
		t.Fatalf("forged count = %d, want strictly between 0 and 40", len(truth.Flows))
	}
	forged := map[packet.FlowKey]bool{}
	for _, k := range truth.Flows {
		forged[k] = true
	}
	// For each forged session there must be data after the RST; for
	// genuine sessions there must not.
	rstSeen := map[packet.FlowKey]bool{}
	dataAfter := map[packet.FlowKey]bool{}
	for _, p := range pkts {
		k := p.Key()
		if p.Flags.Has(packet.FlagRST) {
			rstSeen[k] = true
		} else if rstSeen[k] && p.PayloadLen > 0 {
			dataAfter[k] = true
		}
	}
	for k := range rstSeen {
		if forged[k] && !dataAfter[k] {
			t.Errorf("forged session %v has no race data", k)
		}
		if !forged[k] && dataAfter[k] {
			t.Errorf("genuine session %v has data after RST", k)
		}
	}
}

func TestSlowloris(t *testing.T) {
	inj := Slowloris(SlowlorisConfig{Seed: 5, Connections: 10, TrickleGap: 50e6, Duration: 500e6})
	pkts := checkStream(t, inj)
	conns := map[packet.FlowKey]int{}
	var fins int
	for _, p := range pkts {
		conns[p.Key()]++
		if p.Flags.Has(packet.FlagFIN) {
			fins++
		}
	}
	if len(conns) != 10 {
		t.Errorf("connections = %d, want 10", len(conns))
	}
	if fins != 0 {
		t.Errorf("slowloris connections must never close, got %d FINs", fins)
	}
	for k, n := range conns {
		if n < 5 {
			t.Errorf("connection %v trickled only %d packets", k, n)
		}
	}
}

func TestDNSAmplification(t *testing.T) {
	inj := DNSAmplification(DNSAmplificationConfig{Seed: 6, Resolvers: 2, Queries: 10})
	pkts := checkStream(t, inj)
	truth := inj.Truth()
	var reqBytes, respBytes int
	for _, p := range pkts {
		if !p.IsUDP() {
			t.Fatalf("non-UDP packet in DNS attack")
		}
		if p.Tuple.DstPort == PortDNS {
			reqBytes += int(p.Size)
			if p.Tuple.SrcIP != truth.Victims[0] {
				t.Errorf("query not spoofed from victim")
			}
		} else {
			respBytes += int(p.Size)
		}
	}
	if factor := float64(respBytes) / float64(reqBytes); factor < 10 {
		t.Errorf("amplification factor = %.1f, want > 10", factor)
	}
}

func TestCovertTiming(t *testing.T) {
	inj := CovertTiming(CovertTimingConfig{Seed: 7, Flows: 30, PacketsPerFlow: 100})
	pkts := checkStream(t, inj)
	truth := inj.Truth()
	if len(truth.Flows) != 3 {
		t.Fatalf("modulated flows = %d, want 3 (10%%)", len(truth.Flows))
	}
	// Gather IPDs per flow and verify modulated flows are bimodal around
	// Delay0/Delay1 while benign flows are not.
	ipds := map[packet.FlowKey][]int64{}
	lastTs := map[packet.FlowKey]int64{}
	for _, p := range pkts {
		k := p.Key()
		if prev, ok := lastTs[k]; ok {
			ipds[k] = append(ipds[k], p.Ts-prev)
		}
		lastTs[k] = p.Ts
	}
	mod := map[packet.FlowKey]bool{}
	for _, k := range truth.Flows {
		mod[k] = true
	}
	for k, ds := range ipds {
		var nearLow, nearHigh int
		for _, d := range ds {
			if d < 10e3 {
				nearLow++
			}
			if d > 55e3 {
				nearHigh++
			}
		}
		if mod[k] {
			if nearLow < 20 || nearHigh < 20 {
				t.Errorf("modulated flow %v not bimodal: low=%d high=%d", k, nearLow, nearHigh)
			}
		}
	}
	if len(inj.BenignIPDSample(100)) != 100 {
		t.Errorf("BenignIPDSample wrong length")
	}
}

func TestFingerprintSignatures(t *testing.T) {
	inj := Fingerprint(FingerprintConfig{Seed: 8, Sites: 5, FlowsPerSite: 4, PacketsPerFlow: 50, Bins: 16})
	pkts := packet.Collect(inj.Stream())
	if len(pkts) != 5*4*50 {
		t.Fatalf("packets = %d", len(pkts))
	}
	truth := inj.Truth()
	if len(truth.Extra) != 5 {
		t.Fatalf("sites in truth = %d", len(truth.Extra))
	}
	for site, flows := range truth.Extra {
		if len(flows) != 4 {
			t.Errorf("site %s has %d flows, want 4", site, len(flows))
		}
	}
	// Two flows of the same site should have more similar PLDs than flows
	// of different sites (checked loosely via histogram overlap).
	hist := func(flow packet.FlowKey) []float64 {
		h := make([]float64, 16)
		n := 0.0
		for _, p := range pkts {
			if p.Key() == flow {
				bin := int(p.Size) * 16 / 1600
				if bin > 15 {
					bin = 15
				}
				h[bin]++
				n++
			}
		}
		for i := range h {
			h[i] /= n
		}
		return h
	}
	l1 := func(a, b []float64) float64 {
		s := 0.0
		for i := range a {
			d := a[i] - b[i]
			if d < 0 {
				d = -d
			}
			s += d
		}
		return s
	}
	s0 := truth.Extra["site-00"]
	s1 := truth.Extra["site-01"]
	same := l1(hist(s0[0]), hist(s0[1]))
	diff := l1(hist(s0[0]), hist(s1[0]))
	if same >= diff {
		t.Errorf("same-site distance %.3f >= cross-site %.3f", same, diff)
	}
}

func TestMicroburstWindows(t *testing.T) {
	inj := Microburst(MicroburstConfig{Seed: 9, Bursts: 3, FlowsPerBurst: 5, PacketsPerFlow: 4, BurstSpan: 100e3, Gap: 10e6})
	pkts := checkStream(t, inj)
	truth := inj.Truth()
	if len(truth.Extra) != 3 {
		t.Fatalf("bursts in truth = %d", len(truth.Extra))
	}
	// All packets must fall within some burst window.
	for _, p := range pkts {
		in := false
		for b := 0; b < 3; b++ {
			s, e := inj.BurstWindow(b)
			if p.Ts >= s && p.Ts < e {
				in = true
				break
			}
		}
		if !in {
			t.Fatalf("packet at %d outside all burst windows", p.Ts)
		}
	}
	if len(truth.Extra["burst-00"]) != 5 {
		t.Errorf("burst-00 culprits = %d", len(truth.Extra["burst-00"]))
	}
}

func TestWormInvariantSignature(t *testing.T) {
	inj := Worm(WormConfig{Seed: 10, InfectedHosts: 2, TargetsPerHost: 10})
	pkts := checkStream(t, inj)
	sigs := map[uint64]int{}
	dsts := map[packet.Addr]bool{}
	for _, p := range pkts {
		if p.App.PayloadSig != 0 {
			sigs[p.App.PayloadSig]++
			dsts[p.Tuple.DstIP] = true
		}
	}
	if len(sigs) != 1 {
		t.Fatalf("worm must use one invariant signature, got %d", len(sigs))
	}
	if len(dsts) != 10 {
		t.Errorf("distinct destinations = %d, want 10", len(dsts))
	}
}

func TestKerberos(t *testing.T) {
	inj := Kerberos(KerberosConfig{Seed: 11, Abusers: 2, RequestsPerAbuser: 5})
	pkts := checkStream(t, inj)
	var failures int
	for _, p := range pkts {
		if p.Tuple.DstPort != PortKerberos && p.Tuple.SrcPort != PortKerberos {
			t.Fatalf("non-kerberos packet: %v", p.Tuple)
		}
		if p.AuthOutcome == packet.AuthFailure {
			failures++
		}
	}
	if failures != 10 {
		t.Errorf("failed ticket responses = %d, want 10", failures)
	}
}

func TestSSLExpiry(t *testing.T) {
	inj := SSLExpiry(SSLExpiryConfig{Seed: 12, Servers: 8, ExpiringFraction: 0.25, HandshakesPerServer: 2})
	pkts := checkStream(t, inj)
	truth := inj.Truth()
	if len(truth.Victims) != 2 {
		t.Fatalf("expiring servers = %d, want 2", len(truth.Victims))
	}
	expiring := map[packet.Addr]bool{}
	for _, v := range truth.Victims {
		expiring[v] = true
	}
	for _, p := range pkts {
		if p.App.TLSCertExpiry == 0 {
			continue
		}
		soon := p.App.TLSCertExpiry < inj.Horizon()
		if soon != expiring[p.Tuple.SrcIP] {
			t.Errorf("certificate expiry mismatch for %s: notAfter=%d", p.Tuple.SrcIP, p.App.TLSCertExpiry)
		}
	}
}

func TestIncomplete(t *testing.T) {
	inj := Incomplete(IncompleteConfig{Seed: 13, Sources: 2, SynsPerSource: 10, CompleteFraction: 0.2})
	pkts := checkStream(t, inj)
	// Count sessions with SYN but no data.
	havSyn := map[packet.FlowKey]bool{}
	havData := map[packet.FlowKey]bool{}
	for _, p := range pkts {
		k := p.Key()
		if p.Flags.Has(packet.FlagSYN) && !p.Flags.Has(packet.FlagACK) {
			havSyn[k] = true
		}
		if p.PayloadLen > 0 {
			havData[k] = true
		}
	}
	incomplete := 0
	for k := range havSyn {
		if !havData[k] {
			incomplete++
		}
	}
	if incomplete < 10 {
		t.Errorf("incomplete sessions = %d, want most of 20", incomplete)
	}
}
