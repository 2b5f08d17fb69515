package core

// Run under -race (`make race`, CI shards job): platform accounting and
// the session teardown must survive callers on several goroutines.

import (
	"errors"
	"sync"
	"testing"

	"smartwatch/internal/packet"
	"smartwatch/internal/stats"
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

// TestSessionConcurrentClose: the -serve double-drain shape — several
// Session.Close calls (SIGTERM plus /control/drain plus a deferred
// cleanup) racing each other and the embedder's Platform.Close. One Close
// drains under the session mutex and the rest see a done session;
// Platform.Close either refuses (the drain is still running) or finds the
// platform idle. Run under -race.
func TestSessionConcurrentClose(t *testing.T) {
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
			if err := pl.Close(); err != nil && !errors.Is(err, ErrSessionActive) {
				t.Errorf("Platform.Close: %v", err)
			}
		}()
		wg.Wait()
		if got := ses.State(); got != SessionDone {
			t.Fatalf("iter %d: state after concurrent Close = %v, want done", iter, got)
		}
		if err := pl.Close(); err != nil {
			t.Fatalf("iter %d: Platform.Close after the drain: %v", iter, err)
		}
	}
}
