package snic

import (
	"testing"

	"smartwatch/internal/packet"
	"smartwatch/internal/stats"
)

// goldenTrace is a fixed seeded arrival pattern that walks the engine
// through every regime the scheduler sees: a paced phase well under
// capacity, overload bursts that fill the input buffer and drop, and idle
// gaps long enough for every thread to go stale. SrcPort carries 16 seeded
// bits that goldenCost turns into the packet's cost, so the cost of a
// packet does not depend on which packets before it were dropped.
func goldenTrace(n int, seed uint64) []packet.Packet {
	rng := stats.NewRand(seed)
	pkts := make([]packet.Packet, n)
	ts := int64(1_000)
	for i := range pkts {
		switch (i / 4096) % 4 {
		case 0, 2: // paced: ~20 Mpps with jitter
			ts += 30 + rng.Int64N(40)
		case 1: // overload: ~110 Mpps
			ts += rng.Int64N(19)
		case 3: // sparse: idle gaps between short trains
			if i%64 == 0 {
				ts += 200_000
			}
			ts += 25
		}
		pkts[i] = packet.Packet{
			Ts:    ts,
			Tuple: packet.FiveTuple{SrcIP: packet.Addr(i), DstIP: 1, SrcPort: uint16(rng.Uint64()), DstPort: 443, Proto: packet.ProtoTCP},
			Size:  64,
		}
	}
	return pkts
}

// goldenCost maps the packet's seeded bits to a cost: 0–15 reads, 0–3
// writes, up to 150 extra cycles, and one 1 000-read outlier per 65 536
// packets.
func goldenCost(p *packet.Packet, _ Ctx) Cost {
	b := p.Tuple.SrcPort
	c := Cost{Reads: int(b & 15), Writes: int(b>>4) & 3, ExtraCycles: float64(b>>6&3) * 50}
	if b == 7 {
		c.Reads = 1000
	}
	return c
}

// TestEngineGolden pins the engine's modelled outputs to the values the
// heap-scheduled engine produced for the same trace and cost function
// (recorded at the commit before the sorted ring replaced the heap). Every
// float is compared bit for bit: the scheduler may change how the earliest
// thread is found, never which thread it is.
func TestEngineGolden(t *testing.T) {
	type golden struct {
		profile            Profile
		processed, dropped uint64
		busyNs, spanNs     float64
		p50, p99           float64
	}
	cases := []golden{
		{Netronome(), 166391, 33609, 3.7450845000000757e+08, 1.603110782e+08, 4059.8666666671634, 27161.73333332278},
		{BlueField(), 161740, 38260, 9.4169828e+07, 1.603091712e+08, 2161.2000000029802, 21985.849999355152},
		{LiquidIO(), 163026, 36974, 2.0348591818180728e+08, 1.6030991283636364e+08, 2765.4727272726595, 24249.278181873262},
		{Netronome().WithPMEs(1), 12023, 187977, 2.7110400000000007e+07, 1.603350498666667e+08, 19572.866666674614, 31945.269334947618},
	}
	pkts := goldenTrace(200_000, 0x5eed)
	for _, g := range cases {
		cfg := DefaultConfig()
		cfg.Profile = g.profile
		rep := New(cfg, goldenCost).Run(packet.StreamOf(pkts))
		p50, p99 := rep.Latency.Quantile(0.5), rep.Latency.Quantile(0.99)
		if rep.Processed != g.processed || rep.Dropped != g.dropped ||
			rep.EngineBusyNs != g.busyNs || rep.SpanNs != g.spanNs || p50 != g.p50 || p99 != g.p99 {
			t.Errorf("%s x%d PMEs:\n got  processed=%d dropped=%d busyNs=%v spanNs=%v p50=%v p99=%v\n want processed=%d dropped=%d busyNs=%v spanNs=%v p50=%v p99=%v",
				g.profile.Name, g.profile.PMEs,
				rep.Processed, rep.Dropped, rep.EngineBusyNs, rep.SpanNs, p50, p99,
				g.processed, g.dropped, g.busyNs, g.spanNs, g.p50, g.p99)
		}
	}
}
