package detect

import (
	"reflect"
	"testing"

	"smartwatch/internal/flowcache"
	"smartwatch/internal/packet"
	"smartwatch/internal/snic"
	"smartwatch/internal/stats"
	"smartwatch/internal/trace"
)

// driver runs a stream through a FlowCache and a detector, applying
// pin/unpin reactions, and fires Tick at the given interval. It stands in
// for the platform wiring of internal/core in these unit tests.
type driver struct {
	cache *flowcache.Cache
	det   Detector
	// toHost counts packets the detector punted to the host tier.
	toHost uint64
	total  uint64
}

func newDriver(det Detector) *driver {
	cfg := flowcache.DefaultConfig(10)
	cfg.RingEntries = 1 << 18
	return &driver{cache: flowcache.New(cfg), det: det}
}

func (dr *driver) run(s packet.Stream, tickNs int64) {
	nextTick := int64(0)
	for p := range s {
		if tickNs > 0 {
			for p.Ts >= nextTick {
				dr.det.Tick(nextTick)
				nextTick += tickNs
			}
		}
		rec, _ := dr.cache.Process(&p)
		r := dr.det.OnPacket(&p, rec, snic.Ctx{})
		dr.total++
		if r.ToHost {
			dr.toHost++
		}
		k := p.Key()
		if r.Pin {
			dr.cache.Pin(k)
		}
		if r.Unpin || r.Whitelist {
			dr.cache.Unpin(k)
		}
		nextTick = max(nextTick, p.Ts)
	}
	dr.det.Tick(nextTick + tickNs)
}

// hookRecorder captures hook calls.
type hookRecorder struct {
	unpins     []packet.FlowKey
	whitelists []packet.FlowKey
	blacklists []packet.Addr
}

func (h *hookRecorder) Unpin(k packet.FlowKey)     { h.unpins = append(h.unpins, k) }
func (h *hookRecorder) Whitelist(k packet.FlowKey) { h.whitelists = append(h.whitelists, k) }
func (h *hookRecorder) Blacklist(a packet.Addr)    { h.blacklists = append(h.blacklists, a) }

func attackerSet(t trace.GroundTruth) map[packet.Addr]bool {
	m := map[packet.Addr]bool{}
	for _, a := range t.Attackers {
		m[a] = true
	}
	return m
}

func TestBruteForceDetectsSSHGuessers(t *testing.T) {
	hooks := &hookRecorder{}
	det := NewBruteForce(BruteForceConfig{Service: 22, Psi: 3, Hooks: hooks})
	inj := trace.BruteForce(trace.BruteForceConfig{Seed: 1, Attackers: 4, AttemptsPerAttacker: 5, LegitClients: 5, LegitDataPackets: 200})
	dr := newDriver(det)
	dr.run(inj.Stream(), 100e6)

	truth := attackerSet(inj.Truth())
	alerts := det.Drain()
	found := map[packet.Addr]bool{}
	for _, a := range alerts {
		if !truth[a.Attacker] {
			t.Errorf("false positive on %s", a.Attacker)
		}
		found[a.Attacker] = true
	}
	for atk := range truth {
		if !found[atk] {
			t.Errorf("missed attacker %s", atk)
		}
	}
	if len(hooks.blacklists) != len(truth) {
		t.Errorf("blacklists = %d, want %d", len(hooks.blacklists), len(truth))
	}
	// Legit clients' bulk data must not go to the host: once whitelisted
	// after auth success, their packets stay on the sNIC (Fig. 8a's win).
	if hs := det.HostShare(); hs <= 0 || hs > 0.25 {
		t.Errorf("host share = %.3f, want small once whitelisting kicks in", hs)
	}
	if dr.toHost == 0 || dr.toHost == dr.total {
		t.Errorf("host punts = %d of %d, want a strict subset", dr.toHost, dr.total)
	}
}

func TestBruteForceIgnoresOtherTraffic(t *testing.T) {
	det := NewBruteForce(BruteForceConfig{Service: 22, Psi: 2})
	p := packet.Packet{Tuple: packet.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 1000, DstPort: 80, Proto: packet.ProtoTCP}}
	if r := det.OnPacket(&p, &flowcache.Record{}, snic.Ctx{}); r != (Reaction{}) {
		t.Errorf("non-service packet reacted: %+v", r)
	}
}

func TestPortScanDetectsScanner(t *testing.T) {
	hooks := &hookRecorder{}
	det := NewPortScan(PortScanConfig{ResponseTimeoutNs: 1e9, Hooks: hooks})
	inj := trace.PortScan(trace.PortScanConfig{Seed: 2, Targets: 8, PortsPerTarget: 10, ScanDelay: 5e6, OpenFraction: 0.05, SilentFraction: 0.3})
	dr := newDriver(det)
	dr.run(inj.Stream(), 100e6)

	scanner := inj.Truth().Attackers[0]
	if !det.Flagged(scanner) {
		t.Fatalf("scanner %s not flagged (verdict=%v)", scanner, det.Verdict(scanner))
	}
	if len(hooks.blacklists) == 0 {
		t.Error("no blacklist request")
	}
	// Every later packet from the scanner is dropped; one from a source
	// that is not flagged is not, even when it shares the scanner's bit in
	// the flagged-source prefilter.
	twin := scanner + 1
	for flagBit(twin) != flagBit(scanner) || det.Flagged(twin) {
		twin++
	}
	for _, c := range []struct {
		src  packet.Addr
		drop bool
	}{{scanner, true}, {twin, false}, {scanner + 1, false}} {
		p, rec := synTo(20e9, c.src, 0x0a0000fe, 443)
		if got := det.OnPacket(p, rec, snic.Ctx{}).DropPacket; got != c.drop {
			t.Errorf("packet from %s (flagged %v): drop %v, want %v", c.src, det.Flagged(c.src), got, c.drop)
		}
	}
}

func TestPortScanSparesBenignClients(t *testing.T) {
	det := NewPortScan(PortScanConfig{ResponseTimeoutNs: 1e9})
	// Benign background: full handshakes everywhere.
	w := trace.NewWorkload(trace.WorkloadConfig{Seed: 5, Flows: 300, PacketRate: 1e6, Duration: 1e8, UDPFraction: 0})
	dr := newDriver(det)
	dr.run(w.Stream(), 100e6)
	if alerts := det.Drain(); len(alerts) != 0 {
		t.Errorf("false scan alerts on benign traffic: %v", alerts)
	}
}

func TestForgedRSTDetection(t *testing.T) {
	det := NewForgedRST(ForgedRSTConfig{TNs: 2e9})
	inj := trace.ForgedRST(trace.ForgedRSTConfig{Seed: 3, Sessions: 30, ForgedFraction: 0.5, RaceGap: 10e6})
	dr := newDriver(det)
	dr.run(inj.Stream(), 50e6)

	truth := inj.Truth()
	forged := map[packet.FlowKey]bool{}
	for _, k := range truth.Flows {
		forged[k] = true
	}
	detected := map[packet.FlowKey]bool{}
	for _, a := range det.Drain() {
		if a.Info == "data raced a buffered RST: forged reset discarded" {
			if !forged[a.Flow] {
				t.Errorf("false positive on %v", a.Flow)
			}
			detected[a.Flow] = true
		}
	}
	for k := range forged {
		if !detected[k] {
			t.Errorf("missed forged RST on %v", k)
		}
	}
	if det.Forged == 0 {
		t.Error("no forged RSTs discarded")
	}
	if det.BloomFastPath == 0 {
		t.Error("bloom fast path never taken")
	}
}

func TestForgedRSTReleasesGenuine(t *testing.T) {
	hooks := &hookRecorder{}
	det := NewForgedRST(ForgedRSTConfig{TNs: 1e9, Hooks: hooks})
	inj := trace.ForgedRST(trace.ForgedRSTConfig{Seed: 4, Sessions: 20, ForgedFraction: 0}) // all genuine
	dr := newDriver(det)
	dr.run(inj.Stream(), 100e6)
	// Advance far past T so everything expires.
	det.Tick(1e12)
	if det.Released != 20 {
		t.Errorf("released = %d, want 20 genuine RSTs", det.Released)
	}
	if det.Forged != 0 {
		t.Errorf("forged = %d on genuine-only trace", det.Forged)
	}
	if len(hooks.unpins) != 20 {
		t.Errorf("unpins = %d", len(hooks.unpins))
	}
}

func TestIncompleteFlows(t *testing.T) {
	det := NewIncomplete(1e9, 5, nil)
	inj := trace.Incomplete(trace.IncompleteConfig{Seed: 5, Sources: 3, SynsPerSource: 12, CompleteFraction: 0.1, Gap: 10e6})
	dr := newDriver(det)
	dr.run(inj.Stream(), 200e6)
	det.Tick(1e12)

	truth := attackerSet(inj.Truth())
	found := map[packet.Addr]bool{}
	for _, a := range det.Drain() {
		if !truth[a.Attacker] {
			t.Errorf("false positive %s", a.Attacker)
		}
		found[a.Attacker] = true
	}
	if len(found) != len(truth) {
		t.Errorf("found %d of %d sources", len(found), len(truth))
	}
}

func TestDNSAmplificationDetector(t *testing.T) {
	det := NewDNSAmplification(10, 2048)
	inj := trace.DNSAmplification(trace.DNSAmplificationConfig{Seed: 6, Resolvers: 3, Queries: 10})
	dr := newDriver(det)
	dr.run(inj.Stream(), 100e6)

	alerts := det.Drain()
	if len(alerts) == 0 {
		t.Fatal("no amplification alerts")
	}
	victim := inj.Truth().Victims[0]
	for _, a := range alerts {
		if a.Victim != victim {
			t.Errorf("victim = %s, want %s", a.Victim, victim)
		}
	}
}

func TestDNSAmplificationIgnoresBalancedDNS(t *testing.T) {
	det := NewDNSAmplification(10, 1024)
	dr := newDriver(det)
	// Symmetric DNS: 100B each way.
	var pkts []packet.Packet
	tuple := packet.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 5353, DstPort: 53, Proto: packet.ProtoUDP}
	for i := 0; i < 50; i++ {
		pkts = append(pkts,
			packet.Packet{Ts: int64(i * 1000), Tuple: tuple, Size: 100},
			packet.Packet{Ts: int64(i*1000 + 500), Tuple: tuple.Reverse(), Size: 120})
	}
	dr.run(packet.StreamOf(pkts), 0)
	if alerts := det.Drain(); len(alerts) != 0 {
		t.Errorf("false positives on balanced DNS: %v", alerts)
	}
}

func TestWormDetector(t *testing.T) {
	det := NewWorm(10, 0)
	inj := trace.Worm(trace.WormConfig{Seed: 7, InfectedHosts: 3, TargetsPerHost: 20})
	dr := newDriver(det)
	dr.run(inj.Stream(), 100e6)

	truth := attackerSet(inj.Truth())
	found := map[packet.Addr]bool{}
	for _, a := range det.Drain() {
		if !truth[a.Attacker] {
			t.Errorf("false positive %s", a.Attacker)
		}
		found[a.Attacker] = true
	}
	if len(found) != len(truth) {
		t.Errorf("found %d of %d infected hosts", len(found), len(truth))
	}
}

func TestSSLExpiryDetector(t *testing.T) {
	inj := trace.SSLExpiry(trace.SSLExpiryConfig{Seed: 8, Servers: 12, ExpiringFraction: 0.25, HandshakesPerServer: 3})
	det := NewSSLExpiry(inj.Horizon())
	dr := newDriver(det)
	dr.run(inj.Stream(), 100e6)

	expiring := map[packet.Addr]bool{}
	for _, v := range inj.Truth().Victims {
		expiring[v] = true
	}
	found := map[packet.Addr]bool{}
	for _, a := range det.Drain() {
		if !expiring[a.Victim] {
			t.Errorf("false positive on %s", a.Victim)
		}
		found[a.Victim] = true
	}
	if len(found) != len(expiring) {
		t.Errorf("found %d of %d expiring servers", len(found), len(expiring))
	}
	if det.HostShare() <= 0 {
		t.Error("certificate packets should be host processed")
	}
}

func TestMicroburstCapturesCulprits(t *testing.T) {
	det := NewMicroburst(100e3, 0)
	inj := trace.Microburst(trace.MicroburstConfig{Seed: 9, Bursts: 3, FlowsPerBurst: 6, PacketsPerFlow: 4, BurstSpan: 120e3, Gap: 50e6})
	// Drive directly with synthetic queue delays: inside burst windows the
	// delay is high.
	for p := range inj.Stream() {
		det.OnPacket(&p, nil, snic.Ctx{QueueDelayNs: 300e3})
		// Simulate drain between bursts with a low-delay packet.
		idle := packet.Packet{Ts: p.Ts + 1, Tuple: p.Tuple}
		det.OnPacket(&idle, nil, snic.Ctx{QueueDelayNs: 0})
	}
	det.Tick(1e12)
	reports := det.Reports()
	if len(reports) == 0 {
		t.Fatal("no burst reports")
	}
	// All culprit flows across reports must be real burst flows.
	truth := inj.Truth()
	real := map[packet.FlowKey]bool{}
	for _, flows := range truth.Extra {
		for _, k := range flows {
			real[k] = true
		}
	}
	for _, rep := range reports {
		for k := range rep.Flows {
			if !real[k] {
				t.Errorf("non-culprit flow %v reported", k)
			}
		}
	}
}

func TestCovertTimingROCSeparation(t *testing.T) {
	inj := trace.CovertTiming(trace.CovertTimingConfig{Seed: 10, Flows: 40, PacketsPerFlow: 150})
	det := NewCovertTiming(CovertTimingConfig{
		BinNs: 1e3, Bins: 100,
		BenignIPDs: inj.BenignIPDSample(5000),
		DThreshold: 0.25, MinSamples: 60,
	})
	det.ProgramAll()
	dr := newDriver(det)
	dr.run(inj.Stream(), 10e6)
	det.Tick(1e12)

	truth := inj.Truth()
	modulated := map[packet.FlowKey]bool{}
	for _, k := range truth.Flows {
		modulated[k] = true
	}
	verdicts := det.Verdicts()
	if len(verdicts) == 0 {
		t.Fatal("no verdicts")
	}
	var tp, fp, fn int
	for k, positive := range verdicts {
		switch {
		case positive && modulated[k]:
			tp++
		case positive && !modulated[k]:
			fp++
		case !positive && modulated[k]:
			fn++
		}
	}
	if tp != len(modulated) {
		t.Errorf("TP=%d of %d modulated flows (FN=%d)", tp, len(modulated), fn)
	}
	if fp > 2 {
		t.Errorf("FP=%d benign flows misflagged", fp)
	}
}

func TestFingerprintAccuracy(t *testing.T) {
	inj := trace.Fingerprint(trace.FingerprintConfig{Seed: 11, Sites: 8, FlowsPerSite: 8, PacketsPerFlow: 120, Bins: 32})
	pkts := packet.Collect(inj.Stream())

	// Split flows per site: even flow indices train, odd indices test.
	flowSite := map[packet.FlowKey]int{}
	isTrain := map[packet.FlowKey]bool{}
	for i := 0; i < inj.NumFlows(); i++ {
		k := inj.FlowTuple(i).Canonical()
		flowSite[k] = inj.FlowSite(i)
		isTrain[k] = (i/8)%2 == 0 // i/Sites alternates per flow "round"
	}

	// Aggregate training PLDs per site.
	trainHists := map[int]*stats.Histogram{}
	for s := 0; s < 8; s++ {
		trainHists[s] = stats.NewHistogram(0, 1500, 32)
	}
	for _, p := range pkts {
		if isTrain[p.Key()] {
			trainHists[flowSite[p.Key()]].Add(float64(p.Size))
		}
	}
	nb := stats.NewNaiveBayes(32)
	names := inj.Sites()
	for s := 0; s < 8; s++ {
		if err := nb.Train(names[s], trainHists[s].Counts); err != nil {
			t.Fatal(err)
		}
	}

	det := NewFingerprint(32, 1500, 40, nb, nil)
	dr := newDriver(det)
	dr.run(packet.StreamOf(pkts), 10e6)
	// Only test flows are programmed implicitly here via ProgramAll;
	// re-run with explicit programming of test flows.
	det = NewFingerprint(32, 1500, 40, nb, nil)
	for k, tr := range isTrain {
		if !tr {
			det.Program(k)
		}
	}
	dr = newDriver(det)
	dr.run(packet.StreamOf(pkts), 10e6)
	det.Tick(1e12)

	correct, total := 0, 0
	for k, label := range det.Classifications() {
		total++
		if label == names[flowSite[k]] {
			correct++
		}
	}
	if total == 0 {
		t.Fatal("no classifications")
	}
	if acc := float64(correct) / float64(total); acc < 0.8 {
		t.Errorf("fingerprint accuracy %.2f (%d/%d), want >= 0.8", acc, correct, total)
	}
}

// TestMapWalkingTicksEmitInKeyOrder: CovertTiming and Fingerprint decide
// every flow with enough samples inside one Tick by walking a map. The
// alerts of that tick must come out ordered by flow key — so two identical
// runs give the same sequence — not in whatever order the map iterates.
func TestMapWalkingTicksEmitInKeyOrder(t *testing.T) {
	covert := func() []Alert {
		inj := trace.CovertTiming(trace.CovertTimingConfig{Seed: 10, Flows: 40, ModulatedFraction: 0.5, PacketsPerFlow: 150})
		det := NewCovertTiming(CovertTimingConfig{
			BinNs: 1e3, Bins: 100,
			BenignIPDs: inj.BenignIPDSample(5000),
			DThreshold: 0.25, MinSamples: 60,
		})
		det.ProgramAll()
		newDriver(det).run(inj.Stream(), 0) // no ticks: every flow decides in the last one
		return det.Drain()
	}
	fingerprint := func() []Alert {
		inj := trace.Fingerprint(trace.FingerprintConfig{Seed: 11, Sites: 4, FlowsPerSite: 8, PacketsPerFlow: 120, Bins: 32})
		pkts := packet.Collect(inj.Stream())
		nb := stats.NewNaiveBayes(32)
		hists := map[int]*stats.Histogram{}
		for i := 0; i < inj.NumFlows(); i++ {
			k := inj.FlowTuple(i).Canonical()
			h := hists[inj.FlowSite(i)]
			if h == nil {
				h = stats.NewHistogram(0, 1500, 32)
				hists[inj.FlowSite(i)] = h
			}
			for _, p := range pkts {
				if p.Key() == k {
					h.Add(float64(p.Size))
				}
			}
		}
		for s, name := range inj.Sites() {
			if err := nb.Train(name, hists[s].Counts); err != nil {
				t.Fatal(err)
			}
		}
		det := NewFingerprint(32, 1500, 40, nb, inj.Sites())
		det.ProgramAll()
		newDriver(det).run(packet.StreamOf(pkts), 0)
		return det.Drain()
	}
	for name, run := range map[string]func() []Alert{"covert-timing": covert, "website-fingerprint": fingerprint} {
		first := run()
		if len(first) < 8 {
			t.Fatalf("%s: %d alerts in the deciding tick; the order check needs several", name, len(first))
		}
		for i := 1; i < len(first); i++ {
			if !keyLess(first[i-1].Flow, first[i].Flow) {
				t.Fatalf("%s: alert %d (%v) not after alert %d (%v) in key order", name, i, first[i].Flow, i-1, first[i-1].Flow)
			}
		}
		if second := run(); !reflect.DeepEqual(first, second) {
			t.Errorf("%s: two identical runs emitted different alert sequences", name)
		}
	}
}
