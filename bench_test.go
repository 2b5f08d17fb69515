package smartwatch_test

// One testing.B benchmark per table and figure of the paper's evaluation.
// Each benchmark runs the corresponding experiment harness (the same code
// cmd/experiments uses); the wall-clock measured is the simulator's own
// cost, while the experiment's Table carries the modelled figures the
// paper plots. benchScale keeps single iterations tractable; regenerate
// full-scale outputs with `go run ./cmd/experiments all`.

import (
	"io"
	"testing"

	"smartwatch"
	"smartwatch/internal/experiments"
	"smartwatch/internal/flowcache"
	"smartwatch/internal/packet"
	"smartwatch/internal/snic"
	"smartwatch/internal/stats"
)

const benchScale = 0.1

// run executes an experiment b.N times, rendering to io.Discard so table
// formatting is included in the measured cost.
func run(b *testing.B, fn func(float64) *experiments.Table) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tb := fn(benchScale)
		if _, err := tb.WriteTo(io.Discard); err != nil {
			b.Fatal(err)
		}
		if len(tb.Rows) == 0 {
			b.Fatalf("%s produced no rows", tb.ID)
		}
	}
}

func BenchmarkFig2SwitchState(b *testing.B)  { run(b, experiments.Fig2SwitchState) }
func BenchmarkFig3Scaling(b *testing.B)      { run(b, experiments.Fig3Scaling) }
func BenchmarkFig4LatencyDist(b *testing.B)  { run(b, experiments.Fig4LatencyDist) }
func BenchmarkFig5Policies(b *testing.B)     { run(b, experiments.Fig5Policies) }
func BenchmarkFig6Throughput(b *testing.B)   { run(b, experiments.Fig6Throughput) }
func BenchmarkFig7HostOverhead(b *testing.B) { run(b, experiments.Fig7HostOverhead) }
func BenchmarkFig8aSSH(b *testing.B)         { run(b, experiments.Fig8aSSHLatency) }
func BenchmarkFig8bRST(b *testing.B)         { run(b, experiments.Fig8bForgedRST) }
func BenchmarkFig8cPortScan(b *testing.B)    { run(b, experiments.Fig8cPortScan) }
func BenchmarkFig9aCovert(b *testing.B)      { run(b, experiments.Fig9aCovertROC) }
func BenchmarkFig9bFingerprint(b *testing.B) { run(b, experiments.Fig9bFingerprint) }
func BenchmarkFig10Volumetric(b *testing.B) {
	run(b, func(float64) *experiments.Table { return experiments.Fig10Volumetric(0.03) })
}
func BenchmarkFig11aMicroburst(b *testing.B) { run(b, experiments.Fig11aMicroburst) }
func BenchmarkFig11bThroughput(b *testing.B) { run(b, experiments.Fig11bThroughput) }
func BenchmarkTable2Resources(b *testing.B)  { run(b, experiments.Table2Resources) }
func BenchmarkTable3NICs(b *testing.B)       { run(b, experiments.Table3NICs) }
func BenchmarkTable4Detection(b *testing.B)  { run(b, experiments.Table4Detection) }

// BenchmarkPlatformPipeline measures the end-to-end public-API pipeline:
// background traffic through the assembled platform (switch + sNIC + host)
// per packet.
func BenchmarkPlatformPipeline(b *testing.B) {
	w := smartwatch.NewWorkload(smartwatch.WorkloadConfig{
		Seed: 1, Flows: 5000, PacketRate: 2e6, Duration: 1e12,
	})
	pl := smartwatch.New(smartwatch.Config{IntervalNs: 100e6})
	b.ResetTimer()
	n := int64(0)
	pl.Run(func(yield func(smartwatch.Packet) bool) {
		for p := range w.Stream() {
			if n >= int64(b.N) {
				return
			}
			n++
			if !yield(p) {
				return
			}
		}
	})
}

func BenchmarkAblations(b *testing.B) { run(b, experiments.Ablations) }

// benchPackets builds a deterministic Zipf packet mix for the hot-path
// micro-benchmarks: enough distinct flows to exercise P hits, E hits and
// misses without leaving cache-resident working-set territory.
func benchPackets(n int) []packet.Packet {
	rng := stats.NewRand(42)
	z := stats.NewZipf(rng, 1<<14, 1.2)
	pkts := make([]packet.Packet, n)
	for i := range pkts {
		fl := z.Sample()
		pkts[i] = packet.Packet{
			Ts: int64(i),
			Tuple: packet.FiveTuple{
				SrcIP: packet.Addr(fl*2654435761 + 17), DstIP: packet.Addr(fl + 3),
				SrcPort: uint16(fl), DstPort: 443, Proto: packet.ProtoTCP,
			},
			Size: 64,
		}
	}
	return pkts
}

// BenchmarkFlowCacheProcess measures the FlowCache hot path in isolation:
// one Process call per packet on the paper's (4,8) layout. Must be
// 0 allocs/op at steady state.
func BenchmarkFlowCacheProcess(b *testing.B) {
	c := flowcache.New(flowcache.DefaultConfig(10))
	pkts := benchPackets(1 << 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := &pkts[i&(len(pkts)-1)]
		c.Process(p)
	}
}

// BenchmarkFlowCacheProcessBatch measures the vectored hot path: the same
// per-packet work as BenchmarkFlowCacheProcess, but hashes pre-computed
// per 64-packet vector and stat counters flushed once per vector. One op
// is one packet, so the two benchmarks compare directly. Must be
// 0 allocs/op at steady state.
func BenchmarkFlowCacheProcessBatch(b *testing.B) {
	c := flowcache.New(flowcache.DefaultConfig(10))
	pkts := benchPackets(1 << 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; {
		off := i & (len(pkts) - 1)
		n := 64
		if off+n > len(pkts) {
			n = len(pkts) - off
		}
		if i+n > b.N {
			n = b.N - i
		}
		c.ProcessBatch(pkts[off : off+n])
		i += n
	}
}

// BenchmarkShardedBatchFanout measures the batched shard router: 64k
// packets per op through RunParallelBatches(·, 256) on 4 shards — the
// slice-per-batch handoff that replaces RunParallel's per-packet channel
// send.
func BenchmarkShardedBatchFanout(b *testing.B) {
	s := flowcache.NewSharded(4, flowcache.DefaultConfig(10), flowcache.ControllerConfig{})
	pkts := benchPackets(1 << 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.RunParallelBatches(pkts, 256)
	}
}

// BenchmarkPlatformPipelineBatched is BenchmarkPlatformPipeline with the
// batched drive (BatchSize=64): end-to-end per-packet cost including the
// vectored ingest and pre-hashed FlowCache path.
func BenchmarkPlatformPipelineBatched(b *testing.B) {
	w := smartwatch.NewWorkload(smartwatch.WorkloadConfig{
		Seed: 1, Flows: 5000, PacketRate: 2e6, Duration: 1e12,
	})
	pl := smartwatch.New(smartwatch.Config{IntervalNs: 100e6, BatchSize: 64})
	b.ResetTimer()
	n := int64(0)
	pl.Run(func(yield func(smartwatch.Packet) bool) {
		for p := range w.Stream() {
			if n >= int64(b.N) {
				return
			}
			n++
			if !yield(p) {
				return
			}
		}
	})
}

// BenchmarkSNICDispatch measures the discrete-event dispatch loop: thread
// scheduling, cycle accounting and latency bookkeeping per packet, with the
// application handler stubbed to a fixed cost. Must be 0 allocs/op at
// steady state.
func BenchmarkSNICDispatch(b *testing.B) {
	pkts := benchPackets(1 << 16)
	eng := snic.New(snic.DefaultConfig(), func(p *packet.Packet, ctx snic.Ctx) snic.Cost {
		return snic.Cost{Reads: 4, Writes: 1}
	})
	b.ReportAllocs()
	b.ResetTimer()
	eng.Run(func(yield func(packet.Packet) bool) {
		for i := 0; i < b.N; i++ {
			p := pkts[i&(len(pkts)-1)]
			p.Ts = int64(i * 30) // ~33 Mpps offered, below capacity
			if !yield(p) {
				return
			}
		}
	})
}

// BenchmarkBufferedStream measures the producer/consumer stream bridge:
// per-packet overhead of handing batches across the goroutine boundary.
func BenchmarkBufferedStream(b *testing.B) {
	pkts := benchPackets(1 << 12)
	b.ReportAllocs()
	b.ResetTimer()
	src := func(yield func(packet.Packet) bool) {
		for i := 0; i < b.N; i++ {
			if !yield(pkts[i&(len(pkts)-1)]) {
				return
			}
		}
	}
	n := 0
	for range packet.Buffered(src, 512) {
		n++
	}
	if n != b.N {
		b.Fatalf("saw %d packets, want %d", n, b.N)
	}
}
