package flowcache

import (
	"testing"

	"smartwatch/internal/packet"
)

// driveOracle runs the per-packet Process reference over trace with the
// scripted mode switches and pin waves applied at fixed packet indices —
// the oracle every batch driver must reproduce byte for byte.
type batchScript struct {
	// modeAt flips the cache to the given mode just before that index.
	modeAt map[int]Mode
	// pinAt pins (true) or unpins (false) the packet's own flow just
	// before processing it.
	pinAt map[int]bool
}

// scriptedTrace is shardTrace plus a script that exercises Lite-mode
// cleanups (mode flips with dirty rows), pinned victims and host punts.
func scriptedTrace(n int) ([]packet.Packet, batchScript) {
	trace := shardTrace(n)
	s := batchScript{
		modeAt: map[int]Mode{
			n / 4:     Lite,    // mid-stream: lazy cleanups ride the batch
			n / 2:     General, // and back
			n * 3 / 4: Lite,
		},
		pinAt: map[int]bool{},
	}
	// Pin a wave of flows early (their rows accumulate pinned victims,
	// driving promote/insert down the pinned paths), release some later.
	for i := n / 8; i < n/8+200; i++ {
		s.pinAt[i] = true
	}
	for i := n * 5 / 8; i < n*5/8+100; i++ {
		s.pinAt[i] = false
	}
	return trace, s
}

func (s *batchScript) apply(c *Cache, i int, p *packet.Packet) {
	if m, ok := s.modeAt[i]; ok {
		c.SetMode(m)
	}
	if pin, ok := s.pinAt[i]; ok {
		c.setPinned(p.Key(), pin)
	}
}

// TestProcessHashedAccMatchesProcess: the accumulator path the platform's
// drive takes (ProcessHashedAcc with a caller-computed identity, one
// FlushAcc per vector) must leave the cache byte-identical to the
// per-packet Process loop — records, stats, mode, ring contents — for
// every vector size, including vectors that do not divide the trace, and
// with the script's mode flips and pin waves landing inside vectors.
func TestProcessHashedAccMatchesProcess(t *testing.T) {
	const n = 40_000
	trace, script := scriptedTrace(n)

	ref := New(smallConfig())
	for i := range trace {
		script.apply(ref, i, &trace[i])
		ref.Process(&trace[i])
	}
	want := dumpState(plainAdapter{ref})
	st := ref.Stats()
	if st.HostPunts == 0 || st.RowCleanups == 0 || st.EHits == 0 {
		t.Fatalf("oracle trace too tame (punts=%d cleanups=%d ehits=%d); identity test would be vacuous",
			st.HostPunts, st.RowCleanups, st.EHits)
	}

	for _, vec := range []int{1, 7, 64, 777, n} {
		got := New(smallConfig())
		var acc BatchAcc
		for i := range trace {
			script.apply(got, i, &trace[i])
			p := &trace[i]
			key := p.Key()
			rec, res := got.ProcessHashedAcc(p, key.Hash(), key, &acc)
			if res.Outcome == HostPunt && rec != nil {
				t.Fatalf("packet %d: HostPunt returned a record", i)
			}
			if (i+1)%vec == 0 {
				got.FlushAcc(&acc)
			}
		}
		got.FlushAcc(&acc)
		if gotDump := dumpState(plainAdapter{got}); gotDump != want {
			t.Errorf("vector=%d diverged from per-packet Process:\n%s", vec, firstDiff(want, gotDump))
		}
	}
}

// TestFlushAccEmptyIsNoop guards the zero-check fast path.
func TestFlushAccEmptyIsNoop(t *testing.T) {
	c := New(smallConfig())
	var acc BatchAcc
	c.FlushAcc(&acc)
	if st := c.Stats(); st != (Stats{}) {
		t.Errorf("empty flush changed stats: %+v", st)
	}
}

// driveVectors is the platform's batched drive in miniature: every packet
// through ObserveProcessHashed with a caller-computed identity, and one
// FlushAcc per vec packets (plus one for the tail).
func driveVectors(s *Sharded, pkts []packet.Packet, vec int) {
	var acc BatchAcc
	for i := range pkts {
		p := &pkts[i]
		key := p.Key()
		s.ObserveProcessHashed(p, key.Hash(), key, &acc)
		if (i+1)%vec == 0 {
			s.FlushAcc(&acc)
		}
	}
	s.FlushAcc(&acc)
}

// TestShardedBatchesMatchSequential: the batched drive (ObserveProcessHashed
// with one FlushAcc per vector, what the platform's datapath stage does)
// must land in the exact state of a sequential ObserveProcess loop for
// every shard count and vector size, including vectors that do not divide
// the stream.
func TestShardedBatchesMatchSequential(t *testing.T) {
	cfg := smallConfig()
	ctlCfg := ControllerConfig{Alpha: 0.75, WindowNs: 1e6, EtaHigh: 30e6, EtaLow: 25e6}
	trace := shardTrace(60_000)

	for _, shards := range []int{1, 4} {
		seq := NewSharded(shards, cfg, ctlCfg)
		for i := range trace {
			seq.ObserveProcess(&trace[i])
		}
		if seq.Switchovers() == 0 {
			t.Fatal("trace never crossed a switchover threshold; test is vacuous")
		}
		want := dumpState(seq)

		for _, batch := range []int{1, 7, 256, len(trace) + 1} {
			par := NewSharded(shards, cfg, ctlCfg)
			driveVectors(par, trace, batch)
			if got, wantSw := par.Switchovers(), seq.Switchovers(); got != wantSw {
				t.Errorf("shards=%d batch=%d: switchovers = %d, want %d", shards, batch, got, wantSw)
			}
			if got := dumpState(par); got != want {
				t.Errorf("shards=%d batch=%d diverged from sequential:\n%s",
					shards, batch, firstDiff(want, got))
			}
		}
	}
}

// TestObserveProcessHashedMatchesObserveProcess: the batched platform
// entry point must equal the per-packet one.
func TestObserveProcessHashedMatchesObserveProcess(t *testing.T) {
	cfg := smallConfig()
	ctlCfg := ControllerConfig{Alpha: 0.75, WindowNs: 1e6, EtaHigh: 30e6, EtaLow: 25e6}
	trace := shardTrace(60_000)

	a := NewSharded(4, cfg, ctlCfg)
	for i := range trace {
		a.ObserveProcess(&trace[i])
	}

	b := NewSharded(4, cfg, ctlCfg)
	driveVectors(b, trace, len(trace))

	wantDump, gotDump := dumpState(a), dumpState(b)
	if wantDump != gotDump {
		t.Errorf("ObserveProcessHashed diverged:\n%s", firstDiff(wantDump, gotDump))
	}
}

// BenchmarkProcessHashedAcc measures the drive's hot path on the paper's
// (4,8) layout: identity computed per packet, stat counters flushed once
// per 64-packet vector. One op is one packet, so it compares directly with
// BenchmarkProcessHit/Churn. Must be 0 allocs/op.
func BenchmarkProcessHashedAcc(b *testing.B) {
	c := New(DefaultConfig(10))
	pkts := shardTrace(1 << 16)
	var acc BatchAcc
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := &pkts[i&(len(pkts)-1)]
		var key packet.FlowKey
		c.ProcessHashedAcc(p, p.Tuple.Identity(&key), key, &acc)
		if i%64 == 63 {
			c.FlushAcc(&acc)
		}
	}
	c.FlushAcc(&acc)
}
