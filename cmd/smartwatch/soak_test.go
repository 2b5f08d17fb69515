package main

import (
	"io"
	"runtime"
	"testing"
	"time"

	"smartwatch/internal/core"
	"smartwatch/internal/obs"
	"smartwatch/internal/trace"
)

// TestDaemonSoakFlatHeap is the ISSUE 7 soak gate: ≥10M generated packets
// through the -serve daemon path (source → pause gate → session → engine)
// with a flat heap and a clean source-exhaustion drain. The KV retention
// cap is what keeps the heap flat across the run's ~80 interval flushes;
// the test asserts both the cap and the ceiling.
//
// Heap flatness is measured as post-GC HeapAlloc at every ~2M ingested
// packets: after the first checkpoint (steady state: FlowCache resident,
// retention window full) no later checkpoint may exceed it by more than
// the slack. A per-packet leak as small as 8 bytes would blow the slack
// by an order of magnitude over the remaining 8M packets.
func TestDaemonSoakFlatHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test: ~10M packets through the daemon")
	}
	const soakPackets = 10_000_000
	const retention = 8

	src := trace.NewSource(trace.SourceConfig{
		Workload: trace.WorkloadConfig{
			Seed: 3, Flows: 4000, PacketRate: 5e6, Duration: 5e8,
		},
		Repeat:     -1, // until MaxPackets
		MaxPackets: soakPackets,
	})
	pl := core.New(core.Config{
		IntervalNs:    20e6,
		Shards:        4,
		BatchSize:     64,
		Metrics:       obs.NewRegistry(),
		MetricsWriter: io.Discard,
	})
	pl.KV().SetRetention(retention)
	d := newDaemon(pl.NewSession(), src, 512)

	type sample struct {
		ingested  uint64
		heapAlloc uint64
	}
	var samples []sample
	done := make(chan struct{})
	go func() {
		defer close(done)
		var next uint64 = 2_000_000
		for d.e.State() != core.SessionDone {
			if ing := d.e.Ingested(); ing >= next {
				runtime.GC()
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				samples = append(samples, sample{ing, ms.HeapAlloc})
				next += 2_000_000
			}
			time.Sleep(50 * time.Millisecond)
		}
	}()

	rep, err := d.run() // returns on source exhaustion → auto-drain
	if err != nil {
		t.Fatalf("daemon run: %v", err)
	}
	<-done

	if got := rep.Counts.Total; got != soakPackets {
		t.Fatalf("drained total = %d, want %d", got, soakPackets)
	}
	if rep.Counts.Total != rep.Counts.ToSNIC {
		t.Errorf("standalone platform must sNIC everything: %+v", rep.Counts)
	}
	if d.e.State() != core.SessionDone {
		t.Fatalf("session state after drain = %v", d.e.State())
	}
	if rep.Metrics == nil {
		t.Fatal("no final metrics snapshot after drain")
	}
	if got := len(pl.KV().Intervals()); got > retention {
		t.Errorf("KV holds %d intervals, retention %d", got, retention)
	}
	if pl.KV().DroppedIntervals() == 0 {
		t.Error("retention never evicted; soak did not exercise the cap")
	}

	if len(samples) < 3 {
		t.Fatalf("only %d heap checkpoints; soak too short to judge flatness", len(samples))
	}
	baseline := samples[0].heapAlloc
	const slackBytes = 64 << 20
	for _, s := range samples[1:] {
		if s.heapAlloc > baseline+slackBytes {
			t.Errorf("heap grew: %d MiB at %d pkts vs baseline %d MiB (+%d MiB slack)",
				s.heapAlloc>>20, s.ingested, baseline>>20, int64(slackBytes)>>20)
		}
	}
	t.Logf("soak: %d packets, %d intervals, heap %d→%d MiB over %d checkpoints, %d intervals evicted",
		rep.Counts.Total, rep.Counts.Intervals,
		baseline>>20, samples[len(samples)-1].heapAlloc>>20, len(samples),
		pl.KV().DroppedIntervals())
}
