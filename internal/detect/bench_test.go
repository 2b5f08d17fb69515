package detect

import (
	"testing"

	"smartwatch/internal/flowcache"
	"smartwatch/internal/packet"
	"smartwatch/internal/snic"
)

// benchFlows is the flow population of the micro-benchmarks: 128 Ki
// records (10 MB) and, when all are tracked, a 256 Ki-slot lsTable (18 MB)
// — past L2 and most of L3, as on the churn workload. Flows are visited
// in a scattered order so neither the records nor the table stream.
const benchFlows = 1 << 17

type benchFlow struct {
	tuple packet.FiveTuple
	rec   flowcache.Record
	hash  uint64 // carried to the detector as the platform carries it
}

func newBenchFlows() []benchFlow {
	flows := make([]benchFlow, benchFlows)
	for i := range flows {
		t := packet.FiveTuple{
			SrcIP: packet.Addr(0x0a000000 + i), DstIP: packet.Addr(0xc0a80000 + i%251),
			SrcPort: uint16(1024 + i%60000), DstPort: 8080, Proto: packet.ProtoTCP,
		}
		k := t.Canonical()
		flows[i] = benchFlow{tuple: t, rec: flowcache.Record{Key: k}, hash: k.Hash()}
	}
	return flows
}

// scatter visits all of benchFlows in a fixed pseudo-random order.
func scatter(i int) int { return i * 40503 % benchFlows }

// open walks every flow through its three-way handshake.
func (f *benchFlow) open(det Detector, ts int64) {
	for i, fl := range []packet.TCPFlags{packet.FlagSYN, packet.FlagSYN | packet.FlagACK, packet.FlagACK} {
		p := packet.Packet{Ts: ts + int64(i), Tuple: f.tuple, Flags: fl, Size: 64}
		if i == 1 {
			p = p.Reverse()
		}
		det.OnPacket(&p, &f.rec, snic.Ctx{FlowHash: f.hash})
	}
}

var benchSink Reaction

// BenchmarkLowSlowOnPacket is the detector alone on the three packet
// kinds churn offers it: a data packet of a tracked flow (table hit), a
// data packet of a flow it never saw open (table miss), and a SYN (insert
// plus a wheel entry; Tick keeps the tracked set near 64 Ki flows).
func BenchmarkLowSlowOnPacket(b *testing.B) {
	flows := newBenchFlows()
	// data offers det a data packet of every step'th flow, scattered.
	data := func(b *testing.B, det Detector, step int) {
		p := new(packet.Packet) // one heap packet: it escapes through the interface call
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f := &flows[scatter(i)&^(step-1)]
			*p = packet.Packet{Ts: int64(1e6 + i), Tuple: f.tuple, Flags: packet.FlagACK, Size: 200, PayloadLen: 146}
			benchSink = det.OnPacket(p, &f.rec, snic.Ctx{FlowHash: f.hash})
		}
	}
	// The map-backed oracle runs the same cases: the before of DESIGN.md §18.
	detectors := []struct {
		suffix string
		build  func() Detector
	}{
		{"", func() Detector { return NewLowSlow(LowSlowConfig{}) }},
		{"-maporacle", func() Detector { return newMapLowSlow(LowSlowConfig{}) }},
	}
	for _, d := range detectors {
		b.Run("tracked"+d.suffix, func(b *testing.B) {
			det := d.build()
			for i := range flows {
				flows[i].open(det, int64(i))
			}
			data(b, det, 1)
		})
		b.Run("untracked"+d.suffix, func(b *testing.B) {
			det := d.build()
			// Track the odd half, probe the even half: misses in a table
			// as full as the tracked case's.
			for i := 1; i < len(flows); i += 2 {
				flows[i].open(det, int64(i))
			}
			data(b, det, 2)
		})
	}
	b.Run("syn", func(b *testing.B) {
		// One new half-open flow per op, idle deadline 64 Ki ops later.
		const idleNs = 1 << 16
		det := NewLowSlow(LowSlowConfig{IdleNs: idleNs})
		rec := new(flowcache.Record)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t := flows[scatter(i)].tuple
			t.SrcPort, t.DstPort = uint16(i), uint16(i>>16) // a new flow each lap
			p := packet.Packet{Ts: int64(i), Tuple: t, Flags: packet.FlagSYN, Size: 64}
			k := t.Canonical()
			*rec = flowcache.Record{Key: k}
			benchSink = det.OnPacket(&p, rec, snic.Ctx{FlowHash: k.Hash()})
			if i%1024 == 0 {
				det.Tick(int64(i))
			}
		}
	})
}

// BenchmarkPortScanNewSources is a scan seen from the sources' side: every
// op is a source never seen before, whose one probe is answered by a RST —
// a SYN and a RST through PortScan, and a fresh TRW walk stored by value.
// Past map growth it allocates nothing (TestPerSourceStateDoesNotAllocate).
func BenchmarkPortScanNewSources(b *testing.B) {
	det := NewPortScan(PortScanConfig{})
	p, rec := new(packet.Packet), new(flowcache.Record)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := packet.FiveTuple{SrcIP: packet.Addr(0x0b000000 + i), DstIP: 0x0a000001, SrcPort: 40000, DstPort: 80, Proto: packet.ProtoTCP}
		var k packet.FlowKey
		ctx := snic.Ctx{FlowHash: t.Identity(&k)}
		*rec = flowcache.Record{Key: k}
		*p = packet.Packet{Ts: int64(i), Tuple: t, Flags: packet.FlagSYN, Size: 64}
		det.OnPacket(p, rec, ctx)
		*p = p.Reverse()
		p.Flags = packet.FlagRST | packet.FlagACK
		benchSink = det.OnPacket(p, rec, ctx)
	}
}

// BenchmarkChainOnPacket is Chain.OnPacket over the two detector lists
// the benchmark workloads configure — churn's five (lowslow first) and
// the default seven — on established flows' data packets.
func BenchmarkChainOnPacket(b *testing.B) {
	lists := []struct {
		name  string
		build func() []Detector
	}{
		{"5detectors", func() []Detector {
			return []Detector{
				NewLowSlow(LowSlowConfig{}), NewBruteForce(BruteForceConfig{}), NewPortScan(PortScanConfig{}),
				NewForgedRST(ForgedRSTConfig{}), NewIncomplete(0, 0, nil),
			}
		}},
		{"7detectors", func() []Detector {
			return []Detector{
				NewBruteForce(BruteForceConfig{}), NewPortScan(PortScanConfig{}), NewForgedRST(ForgedRSTConfig{}),
				NewIncomplete(0, 0, nil), NewDNSAmplification(0, 0), NewWorm(0, 0), NewSSLExpiry(0),
			}
		}},
	}
	for _, l := range lists {
		b.Run(l.name, func(b *testing.B) {
			flows := newBenchFlows()
			ch := NewChain(l.build()...)
			for i := range flows {
				flows[i].open(ch, int64(i))
			}
			p := new(packet.Packet)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f := &flows[scatter(i)]
				*p = packet.Packet{Ts: int64(1e6 + i), Tuple: f.tuple, Flags: packet.FlagACK, Size: 200, PayloadLen: 146}
				benchSink = ch.OnPacket(p, &f.rec, snic.Ctx{FlowHash: f.hash})
			}
		})
	}
}
