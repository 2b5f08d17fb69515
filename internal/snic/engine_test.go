package snic

import (
	"testing"

	"smartwatch/internal/flowcache"
	"smartwatch/internal/packet"
	"smartwatch/internal/stats"
)

// constHandler charges a fixed cost.
func constHandler(reads, writes int) Handler {
	return func(*packet.Packet, Ctx) Cost { return Cost{Reads: reads, Writes: writes} }
}

// synthetic returns n 64 B packets: 70% from a Zipf flow population (the
// elephants and warm mice), 30% from ever-new one-packet flows — the churn
// that dominates backbone traces and keeps the FlowCache miss rate
// realistic in steady state.
func synthetic(n, flows int, seed uint64) packet.Stream {
	return func(yield func(packet.Packet) bool) {
		rng := stats.NewRand(seed)
		z := stats.NewZipf(rng, flows, 1.2)
		churn := 1 << 24
		for i := 0; i < n; i++ {
			var f int
			if rng.Float64() < 0.3 {
				churn++
				f = churn
			} else {
				f = z.Sample()
			}
			p := packet.Packet{
				Ts: int64(i), // re-timed by RetimeUniform
				Tuple: packet.FiveTuple{
					SrcIP: packet.Addr(f)*2654435761 + 99, DstIP: packet.Addr(f + 13),
					SrcPort: uint16(f), DstPort: 443, Proto: packet.ProtoTCP,
				},
				Size: 64,
			}
			if !yield(p) {
				return
			}
		}
	}
}

// cacheHandler wires a FlowCache into the simulator.
func cacheHandler(c *flowcache.Cache) Handler {
	return func(p *packet.Packet, _ Ctx) Cost {
		_, res := c.Process(p)
		return Cost{Reads: res.Reads, Writes: res.Writes}
	}
}

// steadyCache returns a cache whose capacity is below the flow-population
// size, emulating the saturated steady state of a long CAIDA replay.
func steadyCache(mode flowcache.Mode) *flowcache.Cache {
	cfg := flowcache.DefaultConfig(12) // 4096 rows x 12 = 49k entries
	cfg.RingEntries = 1 << 20
	c := flowcache.New(cfg)
	c.SetMode(mode)
	return c
}

const steadyFlows = 100_000

func TestDispatchCapsLineRate(t *testing.T) {
	// Zero-cost handler: throughput must cap at the scatter-gather limit
	// (~43 Mpps), the paper's observation for 64 B packets.
	cap := CapacityProbe(
		func() *Engine {
			return New(DefaultConfig(), constHandler(0, 0))
		},
		func(pps float64) packet.Stream { return RetimeUniform(synthetic(60_000, 1000, 1), pps) },
		10, 80, 0.001,
	)
	if cap < 41 || cap > 46 {
		t.Errorf("dispatch-capped capacity = %.1f Mpps, want ~43", cap)
	}
}

func TestGeneralModeCapacity(t *testing.T) {
	// General (4,8) on a saturated table: lossless band ends in the
	// high-20s/low-30s Mpps (paper: 30 Mpps).
	cap := CapacityProbe(
		func() *Engine {
			return New(DefaultConfig(), cacheHandler(steadyCache(flowcache.General)))
		},
		func(pps float64) packet.Stream {
			return RetimeUniform(synthetic(150_000, steadyFlows, 2), pps)
		},
		10, 60, 0.001,
	)
	if cap < 24 || cap > 38 {
		t.Errorf("General capacity = %.1f Mpps, want ~30", cap)
	}
}

func TestLiteModeCapacity(t *testing.T) {
	// Lite (2,0) must reach the 43 Mpps line rate.
	cap := CapacityProbe(
		func() *Engine {
			return New(DefaultConfig(), cacheHandler(steadyCache(flowcache.Lite)))
		},
		func(pps float64) packet.Stream {
			return RetimeUniform(synthetic(150_000, steadyFlows, 3), pps)
		},
		10, 60, 0.001,
	)
	if cap < 39 {
		t.Errorf("Lite capacity = %.1f Mpps, want ~43", cap)
	}
	// And Lite must out-throughput General.
	gen := CapacityProbe(
		func() *Engine {
			return New(DefaultConfig(), cacheHandler(steadyCache(flowcache.General)))
		},
		func(pps float64) packet.Stream {
			return RetimeUniform(synthetic(150_000, steadyFlows, 3), pps)
		},
		10, 60, 0.001,
	)
	if cap <= gen {
		t.Errorf("Lite (%.1f) must exceed General (%.1f)", cap, gen)
	}
}

func TestTable3CrossNICPredictions(t *testing.T) {
	// §4.1: same workload, per-NIC profiles; the predicted ordering is
	// Netronome (43) > LiquidIO (42.2) > BlueField (40.7), all close.
	run := func(p Profile) float64 {
		return CapacityProbe(
			func() *Engine {
				cfg := DefaultConfig()
				cfg.Profile = p
				return New(cfg, cacheHandler(steadyCache(flowcache.Lite)))
			},
			func(pps float64) packet.Stream {
				return RetimeUniform(synthetic(120_000, steadyFlows, 4), pps)
			},
			10, 60, 0.001,
		)
	}
	nfp := run(Netronome())
	bf := run(BlueField())
	lio := run(LiquidIO())
	t.Logf("Table 3: netronome=%.1f bluefield=%.1f liquidio=%.1f", nfp, bf, lio)
	if !(nfp >= lio && lio >= bf-1) {
		t.Errorf("ordering violated: nfp=%.1f lio=%.1f bf=%.1f", nfp, lio, bf)
	}
	for name, v := range map[string]float64{"netronome": nfp, "bluefield": bf, "liquidio": lio} {
		if v < 36 || v > 46 {
			t.Errorf("%s capacity %.1f outside Table 3 band [38,44]", name, v)
		}
	}
}

func TestLatencyGrowsWithLoad(t *testing.T) {
	mk := func() *Engine { return New(DefaultConfig(), cacheHandler(steadyCache(flowcache.General))) }
	low := mk().Run(RetimeUniform(synthetic(50_000, steadyFlows, 5), 5e6))
	high := mk().Run(RetimeUniform(synthetic(50_000, steadyFlows, 5), 28e6))
	if low.Latency.Quantile(0.5) >= high.Latency.Quantile(0.99) {
		t.Errorf("latency should grow with load: p50@5M=%.0f p99@28M=%.0f",
			low.Latency.Quantile(0.5), high.Latency.Quantile(0.99))
	}
	// Paper Fig. 5b: latencies are single-digit microseconds at load.
	if p50 := high.Latency.Quantile(0.5); p50 < 500 || p50 > 20_000 {
		t.Errorf("p50 latency %.0f ns implausible", p50)
	}
}

func TestOverloadDropsNotHangs(t *testing.T) {
	e := New(DefaultConfig(), constHandler(24, 4))
	rep := e.Run(RetimeUniform(synthetic(80_000, 1000, 6), 60e6))
	if rep.Dropped == 0 {
		t.Error("60 Mpps must overload the datapath")
	}
	if rep.Processed == 0 {
		t.Error("some packets must still be processed")
	}
	if rep.LossRate() <= 0 || rep.LossRate() >= 1 {
		t.Errorf("loss rate = %f", rep.LossRate())
	}
}

func TestFewerPMEsLowerThroughput(t *testing.T) {
	run := func(pmes int) float64 {
		cfg := DefaultConfig()
		cfg.Profile = cfg.Profile.WithPMEs(pmes)
		rep := New(cfg, constHandler(8, 2)).Run(RetimeUniform(synthetic(60_000, 1000, 7), 43e6))
		return rep.AchievedMpps
	}
	if run(20) >= run(77) {
		t.Error("20 PMEs should not outperform 77")
	}
}

func TestReportAccounting(t *testing.T) {
	e := New(DefaultConfig(), constHandler(1, 1))
	rep := e.Run(RetimeUniform(synthetic(10_000, 100, 8), 1e6))
	if rep.Processed != 10_000 || rep.Dropped != 0 {
		t.Errorf("processed=%d dropped=%d", rep.Processed, rep.Dropped)
	}
	if rep.AchievedMpps < 0.9 || rep.AchievedMpps > 1.1 {
		t.Errorf("achieved = %.2f Mpps, want ~1", rep.AchievedMpps)
	}
	if u := rep.Utilization(e.cfg.Profile); u <= 0 || u >= 1 {
		t.Errorf("utilization = %f", u)
	}
}

func TestEngineValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil handler must panic")
		}
	}()
	New(DefaultConfig(), nil)
}

func BenchmarkSimulatedPacket(b *testing.B) {
	c := steadyCache(flowcache.General)
	e := New(DefaultConfig(), cacheHandler(c))
	pkts := packet.Collect(RetimeUniform(synthetic(b.N, 10_000, 9), 30e6))
	b.ResetTimer()
	e.Run(packet.StreamOf(pkts))
}
