package core

// Shard-safety tests: run under -race (`make race`, CI shards job) to
// validate that platform accounting and control-event publication survive
// parallel shard workers.

import (
	"sync"
	"testing"

	"smartwatch/internal/packet"
	"smartwatch/internal/stats"
	"smartwatch/internal/tier"
)

// TestAtomicCountsConcurrent: every Counts field is bumped from parallel
// workers without loss.
func TestAtomicCountsConcurrent(t *testing.T) {
	var c atomicCounts
	const workers, per = 8, 10_000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.total.Add(1)
				c.forwardedDirect.Add(1)
				c.droppedAtSwitch.Add(1)
				c.toSNIC.Add(1)
				c.toHost.Add(1)
				c.blocked.Add(1)
				c.intervals.Add(1)
			}
		}()
	}
	wg.Wait()
	s := c.snapshot()
	const want = workers * per
	if s.Total != want || s.ForwardedDirect != want || s.DroppedAtSwitch != want ||
		s.ToSNIC != want || s.ToHost != want || s.Blocked != want || s.Intervals != want {
		t.Errorf("lost updates: %+v, want all %d", s, want)
	}
}

// burstTrace yields a rate profile that crosses the per-shard switchover
// thresholds in both directions (cf. shardTrace in internal/flowcache).
func burstTrace(n int) []packet.Packet {
	rng := stats.NewRand(7)
	z := stats.NewZipf(rng, 4_000, 1.1)
	pkts := make([]packet.Packet, n)
	ts := int64(0)
	for i := range pkts {
		if i < n*2/3 {
			ts += 20
		} else {
			ts += 2_000
		}
		fl := z.Sample()
		pkts[i] = packet.Packet{
			Ts: ts,
			Tuple: packet.FiveTuple{
				SrcIP: packet.Addr(fl + 1), DstIP: packet.Addr(fl*7 + 13),
				SrcPort: uint16(fl), DstPort: 443, Proto: packet.ProtoTCP,
			},
			Size: 64,
		}
	}
	return pkts
}

// TestReleaseWorkersConcurrentClose: the -serve double-drain shape —
// several Session.Close calls (SIGTERM plus /control/drain plus a
// deferred cleanup) racing each other and a bare Platform.ReleaseWorkers.
// One Close drains under the session mutex and the rest see a done
// session; every path then funnels into ReleaseWorkers, whose releaseMu
// keeps the shard pool from being torn down twice. Run under -race.
func TestReleaseWorkersConcurrentClose(t *testing.T) {
	pl := New(Config{Shards: 2, IntervalNs: 50e6, BatchSize: 64})
	pkts := burstTrace(4_096)
	for iter := 0; iter < 50; iter++ {
		ses := pl.NewSession()
		if err := ses.Start(); err != nil {
			t.Fatal(err)
		}
		if err := ses.Ingest(pkts); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for c := 0; c < 4; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := ses.Close(); err != nil {
					t.Errorf("concurrent Close: %v", err)
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			pl.ReleaseWorkers()
		}()
		wg.Wait()
		if got := ses.State(); got != SessionDone {
			t.Fatalf("iter %d: state after concurrent Close = %v, want done", iter, got)
		}
	}
}

// TestPlatformShardWorkersPublishRace: parallel shard workers process
// packets while their controllers publish mode-switch events onto the
// platform bus — the cross-goroutine path the bus mutex exists for.
func TestPlatformShardWorkersPublishRace(t *testing.T) {
	pl := New(Config{Shards: 4, IntervalNs: 50e6})
	var mu sync.Mutex
	perShard := map[int]uint64{}
	pl.Bus().Subscribe(tier.KindModeSwitch, "test-observer", func(e tier.Event) {
		ev := e.(tier.ModeSwitchEvent)
		mu.Lock()
		perShard[ev.Shard]++
		mu.Unlock()
	})
	pkts := burstTrace(60_000)
	if n := pl.Cache().RunParallel(pkts, 0); n != uint64(len(pkts)) {
		t.Fatalf("processed %d, want %d", n, len(pkts))
	}
	var seen uint64
	for _, n := range perShard {
		seen += n
	}
	if want := pl.Cache().Switchovers(); seen != want {
		t.Errorf("mode-switch events = %d, controller flips = %d", seen, want)
	}
	if seen == 0 {
		t.Error("trace never flipped a shard; test is vacuous")
	}
	if got := pl.Bus().Stats().PublishedFor(tier.KindModeSwitch); got != seen {
		t.Errorf("bus published %d mode-switch events, observer saw %d", got, seen)
	}
}
