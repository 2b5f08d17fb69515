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

// foreign is a Detector from outside the package as far as Chain can
// tell: it has no inspect method, so it is reached through OnPacket, like
// the benchmark's decorators.
type foreign struct {
	react Reaction
	calls int
}

func (f *foreign) Name() string { return "foreign" }
func (f *foreign) OnPacket(*packet.Packet, *flowcache.Record, snic.Ctx) Reaction {
	f.calls++
	return f.react
}
func (f *foreign) Tick(int64)     {}
func (f *foreign) Drain() []Alert { return nil }

// Each flag bit is the Reaction field it is named after, and compress
// undoes expand.
func TestVerdictExpandCompress(t *testing.T) {
	fields := map[Verdict]Reaction{
		VPin:          {Pin: true},
		VUnpin:        {Unpin: true},
		VToHost:       {ToHost: true},
		VWhitelist:    {Whitelist: true},
		VBlacklistSrc: {BlacklistSrc: true},
		VDrop:         {DropPacket: true},
	}
	for v, want := range fields {
		if got := expand(v, 0); got != want {
			t.Errorf("expand(%#x) = %+v, want %+v", v, got, want)
		}
	}
	for v := Verdict(0); v < 1<<6; v++ {
		if gv, gc := compress(expand(v, 12.5)); gv != v || gc != 12.5 {
			t.Errorf("compress(expand(%#x, 12.5)) = %#x, %v", v, gv, gc)
		}
	}
}

// everyDetector builds one of each in-line detector type, Chain included,
// configured so that the mixed trace makes it act.
func everyDetector() []Detector {
	covert := NewCovertTiming(CovertTimingConfig{BenignIPDs: []float64{5e3, 8e3, 13e3}})
	covert.ProgramAll()
	fp := NewFingerprint(0, 0, 0, nil, nil)
	fp.ProgramAll()
	return []Detector{
		NewBruteForce(BruteForceConfig{Service: trace.PortSSH}),
		NewPortScan(PortScanConfig{ResponseTimeoutNs: 50e6}),
		NewForgedRST(ForgedRSTConfig{TNs: 100e6}),
		NewIncomplete(50e6, 3, nil),
		NewDNSAmplification(0, 0),
		NewWorm(0, 0),
		NewSSLExpiry(0),
		NewLowSlow(LowSlowConfig{IdleNs: 100e6, MinAgeNs: 200e6}),
		NewMicroburst(200e3, 0),
		covert,
		fp,
		NewChain(NewPortScan(PortScanConfig{}), &foreign{react: Reaction{ToHost: true, ExtraCycles: 3}}, NewWorm(0, 0)),
	}
}

// mixedTrace is background traffic with one of every attack the in-line
// detectors look for.
func mixedTrace() []packet.Packet {
	return mergeByTs(
		trace.NewWorkload(trace.WorkloadConfig{Seed: 11, Flows: 3000, PacketRate: 0.1e6, Duration: 600e6, UDPFraction: 0.15}).Stream(),
		trace.BruteForce(trace.BruteForceConfig{Seed: 11, Attackers: 3, AttemptsPerAttacker: 5, LegitClients: 3}).Stream(),
		trace.PortScan(trace.PortScanConfig{Seed: 11, Targets: 4, PortsPerTarget: 12, ScanDelay: 2e6, OpenFraction: 0.2, SilentFraction: 0.5}).Stream(),
		trace.ForgedRST(trace.ForgedRSTConfig{Seed: 11, Sessions: 12, ForgedFraction: 0.5, RaceGap: 5e6, DataPackets: 4, DuplicateRSTs: 1}).Stream(),
		trace.Incomplete(trace.IncompleteConfig{Seed: 11, Sources: 3, SynsPerSource: 6, Gap: 3e6}).Stream(),
		trace.DNSAmplification(trace.DNSAmplificationConfig{Seed: 11, Resolvers: 3, Queries: 20, Gap: 2e6}).Stream(),
		trace.Worm(trace.WormConfig{Seed: 11, InfectedHosts: 2, TargetsPerHost: 20, Gap: 2e6}).Stream(),
		trace.SSLExpiry(trace.SSLExpiryConfig{Seed: 11, Servers: 6, ExpiringFraction: 0.5, HandshakesPerServer: 3}).Stream(),
		trace.SlowPost(trace.SlowPostConfig{Seed: 11, Connections: 4, ByteGap: 30e6, Duration: 500e6}).Stream(),
	)
}

// TestOnPacketMatchesChain: for every detector type, the bare public
// OnPacket (the adapter) and a one-detector Chain (the register path)
// return the same Reaction for every packet of a mixed trace, and raise
// the same alerts.
func TestOnPacketMatchesChain(t *testing.T) {
	pkts := mixedTrace()
	bare, chained := everyDetector(), everyDetector()
	var seen Verdict
	for i := range bare {
		name := bare[i].Name()
		t.Run(name, func(t *testing.T) {
			ra, rb := newDriver(bare[i]), newDriver(NewChain(chained[i]))
			rng := stats.NewRand(5)
			var acted int
			next := int64(0)
			for j := range pkts {
				p := &pkts[j]
				for ; p.Ts >= next; next += 10e6 {
					ra.det.Tick(next)
					rb.det.Tick(next)
				}
				// A queueing delay that crosses the microburst threshold
				// now and then.
				ctx := snic.Ctx{QueueDelayNs: float64(rng.IntN(260)) * 1e3}
				recA, _ := ra.cache.Process(p)
				recB, _ := rb.cache.Process(p)
				a, b := ra.det.OnPacket(p, recA, ctx), rb.det.OnPacket(p, recB, ctx)
				if a != b {
					t.Fatalf("packet %d (%v): OnPacket %+v, Chain %+v", j, p.Tuple, a, b)
				}
				if a != (Reaction{}) {
					acted++
				}
				v, _ := compress(a)
				seen |= v
				for _, dr := range []*driver{ra, rb} {
					if a.Pin {
						dr.cache.Pin(p.Key())
					}
					if a.Unpin || a.Whitelist {
						dr.cache.Unpin(p.Key())
					}
				}
			}
			ra.det.Tick(next + 1e9)
			rb.det.Tick(next + 1e9)
			if acted == 0 {
				t.Errorf("%s never reacted to the mixed trace: the comparison is vacuous", name)
			}
			// Same alerts in the same sequence: no Tick emits in map order.
			if a, b := ra.det.Drain(), rb.det.Drain(); !reflect.DeepEqual(a, b) {
				t.Errorf("alerts differ: %d bare, %d chained", len(a), len(b))
			}
		})
	}
	if all := VPin | VUnpin | VToHost | VWhitelist | VBlacklistSrc | VDrop; seen != all {
		t.Errorf("the trace exercised verdict bits %#x, want all of %#x", seen, all)
	}
}

// TestChainInspectMatchesOnPacket: Chain.Inspect, the two scalars the
// platform acts on, carries for every packet of the mixed trace exactly
// what the detector's public OnPacket answers — for one of every detector
// type (the nested Chain with its foreign member included) and for all of
// them in one chain. The Inspect side is handed the identity the way the
// platform hands it (the record's key, the hash in ctx.FlowHash); the
// OnPacket side gets no hash and derives both itself.
func TestChainInspectMatchesOnPacket(t *testing.T) {
	pkts := mixedTrace()
	bare, chained := everyDetector(), everyDetector()
	type pair struct {
		name    string
		onPkt   Detector
		inspect *Chain
	}
	pairs := []pair{{"all", NewChain(everyDetector()...), NewChain(everyDetector()...)}}
	for i := range bare {
		pairs = append(pairs, pair{bare[i].Name(), bare[i], NewChain(chained[i])})
	}
	for _, pc := range pairs {
		t.Run(pc.name, func(t *testing.T) {
			ra, rb := newDriver(pc.onPkt), newDriver(pc.inspect)
			rng := stats.NewRand(5)
			var seen Verdict
			next := int64(0)
			for j := range pkts {
				p := &pkts[j]
				for ; p.Ts >= next; next += 10e6 {
					ra.det.Tick(next)
					rb.det.Tick(next)
				}
				qd := float64(rng.IntN(260)) * 1e3
				recA, _ := ra.cache.Process(p)
				recB, _ := rb.cache.Process(p)
				a := ra.det.OnPacket(p, recA, snic.Ctx{QueueDelayNs: qd})
				v, cycles := pc.inspect.Inspect(p, recB, snic.Ctx{QueueDelayNs: qd, FlowHash: p.Key().Hash()})
				if b := expand(v, cycles); a != b {
					t.Fatalf("packet %d (%v): OnPacket %+v, Inspect %+v", j, p.Tuple, a, b)
				}
				seen |= v
				for _, dr := range []*driver{ra, rb} {
					if a.Pin {
						dr.cache.Pin(p.Key())
					}
					if a.Unpin || a.Whitelist {
						dr.cache.Unpin(p.Key())
					}
				}
			}
			ra.det.Tick(next + 1e9)
			rb.det.Tick(next + 1e9)
			if a, b := ra.det.Drain(), rb.det.Drain(); !reflect.DeepEqual(a, b) {
				t.Errorf("alerts differ: %d from OnPacket, %d from Inspect", len(a), len(b))
			}
			if all := VPin | VUnpin | VToHost | VWhitelist | VBlacklistSrc | VDrop; pc.name == "all" && seen != all {
				t.Errorf("the trace exercised verdict bits %#x, want all of %#x", seen, all)
			}
		})
	}
}

// A chain mixing package detectors with a foreign one merges exactly as
// Reaction.merge did: flags ORed, cycles added in chain order.
func TestChainMergesForeignDetectors(t *testing.T) {
	f1 := &foreign{react: Reaction{Whitelist: true, ExtraCycles: 0.25}}
	f2 := &foreign{react: Reaction{BlacklistSrc: true, DropPacket: true, ExtraCycles: 0.5}}
	ch := NewChain(f1, NewSSLExpiry(0), f2)
	p := packet.Packet{
		Tuple: packet.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 443, DstPort: 5000, Proto: packet.ProtoTCP},
		App:   packet.AppInfo{TLSCertExpiry: 1},
	}
	got := ch.OnPacket(&p, nil, snic.Ctx{})
	want := Reaction{ToHost: true, Whitelist: true, BlacklistSrc: true, DropPacket: true, ExtraCycles: 30.75}
	if got != want {
		t.Fatalf("chain reaction %+v, want %+v", got, want)
	}
	if f1.calls != 1 || f2.calls != 1 {
		t.Fatalf("foreign detectors called %d and %d times, want once each", f1.calls, f2.calls)
	}
	if r := NewChain().OnPacket(&p, nil, snic.Ctx{}); r != (Reaction{}) {
		t.Fatalf("empty chain reacted: %+v", r)
	}
}

// steadyChain is churn's detector list plus the other default detectors
// and a foreign one, over a flow that every TCP detector has seen open.
func steadyChain(t testing.TB) (*Chain, *packet.Packet, *flowcache.Record) {
	ch := NewChain(
		NewLowSlow(LowSlowConfig{}), NewBruteForce(BruteForceConfig{}), NewPortScan(PortScanConfig{}),
		NewForgedRST(ForgedRSTConfig{}), NewIncomplete(0, 0, nil), NewDNSAmplification(0, 0),
		NewWorm(0, 0), NewSSLExpiry(0), &foreign{react: Reaction{ExtraCycles: 1}},
	)
	cache := flowcache.New(flowcache.DefaultConfig(8))
	tuple := packet.FiveTuple{SrcIP: 0x0a000001, DstIP: 0x0a000002, SrcPort: 40000, DstPort: 8080, Proto: packet.ProtoTCP}
	for i, fl := range []packet.TCPFlags{packet.FlagSYN, packet.FlagSYN | packet.FlagACK, packet.FlagACK} {
		p := packet.Packet{Ts: int64(i + 1), Tuple: tuple, Flags: fl, Size: 64}
		if i == 1 {
			p = p.Reverse()
		}
		rec, _ := cache.Process(&p)
		ch.OnPacket(&p, rec, snic.Ctx{})
	}
	data := &packet.Packet{Ts: 10, Tuple: tuple, Flags: packet.FlagACK, Size: 200, PayloadLen: 146}
	rec, _ := cache.Process(data)
	if rec == nil {
		t.Fatal("no record for the steady flow")
	}
	return ch, data, rec
}

// The chain runs on every packet of every workload, detectors or none: a
// Reaction handed down by pointer escaped through the interface call and
// cost an allocation per packet in a prototype (DESIGN.md §18.4).
func TestChainOnPacketDoesNotAllocate(t *testing.T) {
	ch, p, rec := steadyChain(t)
	var sink Reaction
	if n := testing.AllocsPerRun(1000, func() { sink = ch.OnPacket(p, rec, snic.Ctx{}) }); n != 0 {
		t.Errorf("Chain.OnPacket over package + foreign detectors allocates %v times per packet", n)
	}
	if sink.ExtraCycles == 0 {
		t.Error("steady packet cost no cycles: the detectors did not run")
	}
	empty := NewChain()
	if n := testing.AllocsPerRun(1000, func() { sink = empty.OnPacket(p, rec, snic.Ctx{}) }); n != 0 {
		t.Errorf("empty Chain.OnPacket allocates %v times per packet", n)
	}
	// Inspect, as the platform calls it: the identity carried in.
	ctx := snic.Ctx{FlowHash: rec.Key.Hash()}
	var (
		v      Verdict
		cycles float64
	)
	for _, c := range []*Chain{ch, empty} {
		if n := testing.AllocsPerRun(1000, func() { v, cycles = c.Inspect(p, rec, ctx) }); n != 0 {
			t.Errorf("Chain.Inspect over %d detectors allocates %v times per packet", len(c.Detectors()), n)
		}
	}
	if v, cycles = ch.Inspect(p, rec, ctx); cycles == 0 || v != 0 {
		t.Errorf("steady packet through Inspect: verdict %#x, %v cycles; want none and some", v, cycles)
	}
}

// synTo builds a SYN and a fresh record for it.
func synTo(ts int64, src, dst packet.Addr, dport uint16) (*packet.Packet, *flowcache.Record) {
	p := &packet.Packet{
		Ts: ts, Flags: packet.FlagSYN, Size: 64,
		Tuple: packet.FiveTuple{SrcIP: src, DstIP: dst, SrcPort: 50000, DstPort: dport, Proto: packet.ProtoTCP},
	}
	k := p.Key()
	return p, &flowcache.Record{Key: k}
}

// Two sources cross their thresholds in the same Tick. The alerts — their
// order, and for Incomplete the victim each names — used to follow Go's
// map iteration; they follow the probes' (timestamp, key) order now, every
// run.
func TestTickExpiryOrderIsDeterministic(t *testing.T) {
	const srcA, srcB = packet.Addr(0xc6336401), packet.Addr(0xcb007101)
	run := func(build func() Detector) []Alert {
		det := build()
		// Every probe goes to its own destination, so each is its own
		// flow; A's and B's i-th probes share a timestamp, and B's has the
		// lower destination, hence the lower key.
		for i := 0; i < 12; i++ {
			for j, src := range []packet.Addr{srcB, srcA} {
				p, rec := synTo(int64(1000+10*i), src, packet.Addr(0x0a000100+i*2+j), uint16(1000+i))
				det.OnPacket(p, rec, snic.Ctx{})
			}
		}
		det.Tick(10e9)
		return det.Drain()
	}
	detectors := map[string]func() Detector{
		"tcp-incomplete": func() Detector { return NewIncomplete(1e9, 5, nil) },
		"portscan":       func() Detector { return NewPortScan(PortScanConfig{ResponseTimeoutNs: 1e9}) },
	}
	for name, build := range detectors {
		first := run(build)
		if len(first) != 2 || first[0].Attacker != srcB || first[1].Attacker != srcA {
			t.Fatalf("%s: alerts %v, want source B's then source A's", name, first)
		}
		if name == "tcp-incomplete" {
			// The fifth expiry of each source names its destination.
			if first[0].Victim != 0x0a000100+4*2 || first[1].Victim != 0x0a000100+4*2+1 {
				t.Errorf("%s: victims %v and %v, want each source's fifth destination", name, first[0].Victim, first[1].Victim)
			}
		}
		for i := 1; i < 50; i++ {
			if again := run(build); !reflect.DeepEqual(again, first) {
				t.Fatalf("%s: run %d raised %v, run 0 raised %v", name, i, again, first)
			}
		}
	}
}

// A Tick that moves time backwards is the wheel's counted no-op for both
// wheel-backed detectors; neither carries a guard of its own.
func TestLowSlowAndForgedRSTTickBackwards(t *testing.T) {
	ls := NewLowSlow(LowSlowConfig{IdleNs: 100e6})
	rst := NewForgedRST(ForgedRSTConfig{TNs: 100e6})
	syn, rec := synTo(1e9, 1, 2, 80)
	ls.OnPacket(syn, rec, snic.Ctx{})
	reset := *syn
	reset.Flags = packet.FlagRST
	rst.OnPacket(&reset, rec, snic.Ctx{})

	now := int64(1e9 + 50e6)
	for _, d := range []Detector{ls, rst} {
		d.Tick(now)
		d.Tick(now - 1)
		d.Tick(0)
		d.Tick(now)
	}
	if ls.Expiries != 0 || rst.Released != 0 {
		t.Fatalf("a backwards Tick released entries: lowslow %d, forged-rst %d", ls.Expiries, rst.Released)
	}
	if ls.Wheel().Regressions() != 2 || rst.Wheel().Regressions() != 2 {
		t.Errorf("regressions counted: lowslow %d, forged-rst %d, want 2 and 2", ls.Wheel().Regressions(), rst.Wheel().Regressions())
	}
	ls.Tick(now + 200e6)
	rst.Tick(now + 200e6)
	if ls.Expiries != 1 || rst.Released != 1 {
		t.Errorf("after the deadline: lowslow expired %d, forged-rst released %d, want 1 and 1", ls.Expiries, rst.Released)
	}
}
