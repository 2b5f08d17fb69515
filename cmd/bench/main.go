// Command bench measures the repository's performance-critical paths and
// emits a machine-readable BENCH_*.json snapshot, so successive PRs can
// track the trajectory (BENCH_1.json, BENCH_2.json, ...).
//
// It measures two layers:
//
//   - micro: the FlowCache Process hot path, the sNIC dispatch loop, the
//     buffered stream bridge, the sharded FlowCache datapath (sequential
//     vs pooled workers vs spawn-per-call fan-out, 64k packets per op)
//     end-to-end session ingest, the cluster steering decision and the
//     cluster drive at 1/2/4 workers, via testing.Benchmark (ns/op,
//     allocs/op); micros whose parallelism cannot exist on the current
//     box (multi-worker cluster drives on GOMAXPROCS=1) are skipped and
//     noted rather than measured as noise;
//   - macro: wall-clock for the full `experiments all` sweep at a small
//     scale, sequential vs parallel, plus the resulting speedup.
//
// A prior snapshot can be diffed against the fresh run with -compare:
// per-micro ns/op and allocs/op deltas print benchstat-style, and the
// process exits non-zero when any micro regressed by more than
// -tolerance (fractional; the CI smoke treats this as report-only — the
// shared 1-core box is too noisy to gate on).
//
// Usage:
//
//	bench [-out BENCH_1.json] [-scale 0.01] [-note "..."] [-skip-macro]
//	      [-compare BENCH_2.json] [-tolerance 0.10]
//	      [-cpuprofile prof/bench.cpu] [-memprofile prof/bench.mem]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"

	"smartwatch/internal/cluster"
	"smartwatch/internal/core"
	"smartwatch/internal/detect"
	"smartwatch/internal/experiments"
	"smartwatch/internal/flowcache"
	"smartwatch/internal/packet"
	"smartwatch/internal/snic"
	"smartwatch/internal/stats"
	"smartwatch/internal/trace"
)

// Micro is one testing.Benchmark result.
type Micro struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	N           int     `json:"iterations"`
}

// Macro is the experiments-sweep wall-clock measurement.
type Macro struct {
	Scale       float64 `json:"scale"`
	Experiments int     `json:"experiments"`
	SequentialS float64 `json:"sequential_s"`
	ParallelS   float64 `json:"parallel_s"`
	Parallel    int     `json:"parallel"`
	Speedup     float64 `json:"speedup"`
}

// Snapshot is the emitted document.
type Snapshot struct {
	Generated  string           `json:"generated"`
	GoVersion  string           `json:"go_version"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Micro      map[string]Micro `json:"micro"`
	Macro      *Macro           `json:"macro,omitempty"`
	Notes      []string         `json:"notes,omitempty"`
}

type noteList []string

func (n *noteList) String() string     { return fmt.Sprint(*n) }
func (n *noteList) Set(s string) error { *n = append(*n, s); return nil }

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

func toMicro(r testing.BenchmarkResult) Micro {
	return Micro{
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		N:           r.N,
	}
}

func main() {
	out := flag.String("out", "", "output file (default stdout)")
	scale := flag.Float64("scale", 0.01, "workload scale for the macro sweep")
	skipMacro := flag.Bool("skip-macro", false, "skip the experiments wall-clock sweep")
	comparePath := flag.String("compare", "", "prior BENCH_*.json to diff against (benchstat-style deltas)")
	tolerance := flag.Float64("tolerance", 0.10, "fractional ns/op regression -compare tolerates before exiting non-zero")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the micro benchmarks to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile (taken at exit) to this file")
	var notes noteList
	flag.Var(&notes, "note", "free-form note recorded in the snapshot (repeatable)")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
			}
		}()
	}

	snap := Snapshot{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Micro:      map[string]Micro{},
		Notes:      notes,
	}

	pkts := benchPackets(1 << 16)

	fmt.Fprintln(os.Stderr, "bench: flowcache.Process ...")
	cache := flowcache.New(flowcache.DefaultConfig(10))
	snap.Micro["flowcache_process"] = toMicro(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cache.Process(&pkts[i&(len(pkts)-1)])
		}
	}))

	fmt.Fprintln(os.Stderr, "bench: flowcache.ProcessBatch (vectors of 64) ...")
	cacheBatch := flowcache.New(flowcache.DefaultConfig(10))
	snap.Micro["flowcache_process_batch64"] = toMicro(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		// One op is one packet (comparable to flowcache_process); the
		// cache sees them in vectors of 64.
		for i := 0; i < b.N; {
			off := i & (len(pkts) - 1)
			n := 64
			if off+n > len(pkts) {
				n = len(pkts) - off
			}
			if i+n > b.N {
				n = b.N - i
			}
			cacheBatch.ProcessBatch(pkts[off : off+n])
			i += n
		}
	}))

	// Per-policy hot path: same vectored drive as flowcache_process_batch64
	// (which measures the default lru-lpc), one micro per alternative
	// policy, so -compare catches a regression in any replacement path.
	for _, policy := range []string{flowcache.PolicyNameLRU, flowcache.PolicyNameS3FIFO} {
		policy := policy
		fmt.Fprintf(os.Stderr, "bench: flowcache.ProcessBatch, policy=%s ...\n", policy)
		pcfg := flowcache.DefaultConfig(10)
		pcfg.Policy = policy
		pc := flowcache.New(pcfg)
		snap.Micro["flowcache_process_batch64_"+policy] = toMicro(testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; {
				off := i & (len(pkts) - 1)
				n := 64
				if off+n > len(pkts) {
					n = len(pkts) - off
				}
				if i+n > b.N {
					n = b.N - i
				}
				pc.ProcessBatch(pkts[off : off+n])
				i += n
			}
		}))
	}

	// Adaptive controller overhead: the full Observe+Process step with the
	// feedback loop live, against the same packet mix.
	fmt.Fprintln(os.Stderr, "bench: flowcache adaptive observe+process ...")
	acfg := flowcache.DefaultControllerConfig()
	acfg.Adaptive.Enabled = true
	ash := flowcache.NewSharded(1, flowcache.DefaultConfig(10), acfg)
	snap.Micro["flowcache_adaptive_observe_process"] = toMicro(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ash.ObserveProcess(&pkts[i&(len(pkts)-1)])
		}
	}))

	// LowSlow detector hot path: per-SYN wheel Schedule plus the Advance
	// cadence over a connection-accretion trace — the timing-wheel cost a
	// deployment pays for idle-deadline tracking (ISSUE 10). One op is one
	// packet, including its share of Tick work.
	fmt.Fprintln(os.Stderr, "bench: lowslow detector wheel hot path ...")
	lsPkts := packet.Collect(trace.ConnExhaust(trace.ConnExhaustConfig{
		Seed: 9, Connections: 8192, ConnGap: 50_000,
	}).Stream())
	lsDet := detect.NewLowSlow(detect.LowSlowConfig{})
	lsCache := flowcache.New(flowcache.DefaultConfig(10))
	lsNext, lsBase := int64(0), int64(0)
	lsSpan := lsPkts[len(lsPkts)-1].Ts + 1
	snap.Micro["detect_lowslow_wheel"] = toMicro(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			j := i % len(lsPkts)
			if j == 0 && i > 0 {
				lsBase += lsSpan // keep virtual time monotonic across passes
			}
			p := lsPkts[j]
			p.Ts += lsBase
			for p.Ts >= lsNext {
				lsDet.Tick(lsNext)
				lsNext += 10e6
			}
			rec, _ := lsCache.Process(&p)
			lsDet.OnPacket(&p, rec, snic.Ctx{})
		}
	}))

	fmt.Fprintln(os.Stderr, "bench: snic dispatch loop ...")
	snap.Micro["snic_dispatch"] = toMicro(testing.Benchmark(func(b *testing.B) {
		eng := snic.New(snic.DefaultConfig(), func(p *packet.Packet, ctx snic.Ctx) snic.Cost {
			return snic.Cost{Reads: 4, Writes: 1}
		})
		b.ReportAllocs()
		b.ResetTimer()
		eng.Run(func(yield func(packet.Packet) bool) {
			for i := 0; i < b.N; i++ {
				p := pkts[i&(len(pkts)-1)]
				p.Ts = int64(i * 30)
				if !yield(p) {
					return
				}
			}
		})
	}))

	fmt.Fprintln(os.Stderr, "bench: buffered stream bridge ...")
	snap.Micro["packet_buffered"] = toMicro(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
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
	}))

	// Sharded datapath: one op is the whole 64k-packet slice, so the
	// shards=1 and shards=4 numbers divide directly into per-packet cost
	// and unsharded-vs-sharded throughput.
	fmt.Fprintln(os.Stderr, "bench: sharded flowcache, shards=1 sequential (64k pkts/op) ...")
	sh1 := flowcache.NewSharded(1, flowcache.DefaultConfig(10), flowcache.ControllerConfig{})
	snap.Micro["flowcache_sharded1_64k"] = toMicro(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := range pkts {
				sh1.ObserveProcess(&pkts[j])
			}
		}
	}))

	fmt.Fprintln(os.Stderr, "bench: sharded flowcache, shards=4 parallel workers (64k pkts/op) ...")
	sh4 := flowcache.NewSharded(4, flowcache.DefaultConfig(10), flowcache.ControllerConfig{})
	snap.Micro["flowcache_sharded4_parallel_64k"] = toMicro(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sh4.RunParallel(pkts, 256)
		}
	}))

	fmt.Fprintln(os.Stderr, "bench: sharded flowcache, shards=4 batched fan-out (64k pkts/op) ...")
	sh4b := flowcache.NewSharded(4, flowcache.DefaultConfig(10), flowcache.ControllerConfig{})
	snap.Micro["flowcache_sharded4_batch256_64k"] = toMicro(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sh4b.RunParallelBatches(pkts, 256)
		}
	}))

	// Pool A/B: the same fan-out with goroutines/channels/buffers created
	// per call (the pre-pool implementation). The delta against
	// flowcache_sharded4_batch256_64k is the persistent worker pool's win.
	fmt.Fprintln(os.Stderr, "bench: sharded flowcache, shards=4 spawn-per-call fan-out (64k pkts/op) ...")
	sh4s := flowcache.NewSharded(4, flowcache.DefaultConfig(10), flowcache.ControllerConfig{})
	snap.Micro["flowcache_sharded4_spawn256_64k"] = toMicro(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sh4s.RunParallelBatchesSpawn(pkts, 256)
		}
	}))

	// End-to-end session ingest: one op pushes the whole 64k-packet slice
	// through a live session in 512-packet vectors (sharded platform,
	// batch=64). The session persists across ops, measuring the steady
	// state the -serve daemon runs in.
	multiCore := runtime.GOMAXPROCS(0) >= 2
	{
		fmt.Fprintln(os.Stderr, "bench: session ingest (64k pkts/op, batch=64) ...")
		spkts := append([]packet.Packet(nil), pkts...)
		pl := core.New(core.Config{IntervalNs: 100e6, Shards: 4, BatchSize: 64})
		ses := pl.NewSession()
		if err := ses.Start(); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		snap.Micro["session_ingest_64k"] = toMicro(testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				span := int64(len(spkts))
				for j := range spkts {
					spkts[j].Ts += span // keep virtual time monotonic across ops
				}
				for lo := 0; lo < len(spkts); lo += 512 {
					hi := min(lo+512, len(spkts))
					if err := ses.Ingest(spkts[lo:hi]); err != nil {
						b.Fatal(err)
					}
				}
			}
		}))
		if _, err := ses.Drain(); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		if err := ses.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}

	// Steering decision in isolation: canonical flow key + hash + top-bits
	// worker pick — the per-packet cost the shared tier adds before any
	// queueing. The sink defeats dead-code elimination.
	fmt.Fprintln(os.Stderr, "bench: cluster steer hash ...")
	var steerSink uint64
	snap.Micro["cluster_steer_hash"] = toMicro(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p := &pkts[i&(len(pkts)-1)]
			steerSink += p.Key().Hash() >> 62 // 4-worker shift
		}
	}))
	if steerSink == ^uint64(0) {
		fmt.Fprintln(os.Stderr, "bench: impossible steer sink")
	}

	// Cluster drive: one op pushes the 64k slice through a live cluster
	// runner in 512-packet vectors; the runner (feeders, rings, recycled
	// buffers) persists across ops, so the number is the steady-state
	// fan-out cost. w1 is the ring+feeder overhead over a plain session;
	// w2/w4 divide into the parallel speedup (skipped on a single-core box,
	// where no worker overlap is possible).
	for _, w := range []int{1, 2, 4} {
		name := fmt.Sprintf("cluster_drive_64k_w%d", w)
		if w > 1 && !multiCore {
			snap.Notes = append(snap.Notes, name+" skipped: GOMAXPROCS=1, no worker overlap possible")
			fmt.Fprintf(os.Stderr, "bench: %s skipped (GOMAXPROCS=1)\n", name)
			continue
		}
		fmt.Fprintf(os.Stderr, "bench: cluster drive, workers=%d (64k pkts/op, batch=64) ...\n", w)
		spkts := append([]packet.Packet(nil), pkts...)
		wc := core.Config{IntervalNs: 100e6, BatchSize: 64}
		wc.Cache = flowcache.DefaultConfig(12) // rows split W ways, total capacity constant
		cl := cluster.New(cluster.Config{Workers: w, Worker: wc})
		if err := cl.Start(); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		snap.Micro[name] = toMicro(testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				span := int64(len(spkts))
				for j := range spkts {
					spkts[j].Ts += span // keep virtual time monotonic across ops
				}
				for lo := 0; lo < len(spkts); lo += 512 {
					hi := min(lo+512, len(spkts))
					if err := cl.Ingest(spkts[lo:hi]); err != nil {
						b.Fatal(err)
					}
				}
			}
		}))
		if _, err := cl.Drain(); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		if err := cl.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}

	if !*skipMacro {
		reg := experiments.Registry()
		sweep := func(parallel int) float64 {
			start := time.Now()
			experiments.RunAll(reg, *scale, parallel, func(r experiments.Result) {
				if r.Table == nil {
					fmt.Fprintf(os.Stderr, "bench: %s returned nil table\n", r.ID)
					os.Exit(1)
				}
			})
			return time.Since(start).Seconds()
		}
		fmt.Fprintf(os.Stderr, "bench: experiments all, scale %g, sequential ...\n", *scale)
		seq := sweep(1)
		par := runtime.GOMAXPROCS(0)
		fmt.Fprintf(os.Stderr, "bench: experiments all, scale %g, -parallel=%d ...\n", *scale, par)
		parS := sweep(par)
		m := Macro{Scale: *scale, Experiments: len(reg), SequentialS: seq, ParallelS: parS, Parallel: par}
		if parS > 0 {
			m.Speedup = seq / parS
		}
		snap.Macro = &m
	}

	enc, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
	} else {
		if err := os.WriteFile(*out, enc, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "bench: wrote %s\n", *out)
	}

	if *comparePath != "" {
		worst, compared, err := compare(*comparePath, &snap)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		if compared == 0 {
			fmt.Fprintln(os.Stderr, "bench: no comparable micros between snapshots; nothing to gate on")
		}
		if compared > 0 && worst > *tolerance {
			fmt.Fprintf(os.Stderr, "bench: worst regression %+.1f%% exceeds tolerance %.1f%%\n",
				worst*100, *tolerance*100)
			if *cpuprofile != "" {
				pprof.StopCPUProfile() // os.Exit skips the deferred stop
			}
			os.Exit(2)
		}
	}
}
