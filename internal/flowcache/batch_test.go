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

// TestProcessBatchMatchesProcess: feeding the same trace through
// ProcessBatch in vectors of every shape — including vectors that split
// mid-chunk and an odd tail — must leave the cache byte-identical to the
// per-packet Process loop: records, stats, mode, ring contents.
func TestProcessBatchMatchesProcess(t *testing.T) {
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

	for _, vec := range []int{1, 7, 64, 100, 256, n} {
		got := New(smallConfig())
		for lo := 0; lo < n; {
			hi := lo + vec
			if hi > n {
				hi = n
			}
			// Script events land between vectors here; a second pass below
			// covers events landing inside a vector.
			canBatch := true
			for i := lo; i < hi; i++ {
				if _, ok := script.modeAt[i]; ok {
					canBatch = i == lo
				}
				if _, ok := script.pinAt[i]; ok {
					canBatch = false
				}
			}
			if canBatch {
				script.apply(got, lo, &trace[lo])
				got.ProcessBatch(trace[lo:hi])
			} else {
				for i := lo; i < hi; i++ {
					script.apply(got, i, &trace[i])
					got.ProcessBatch(trace[i : i+1])
				}
			}
			lo = hi
		}
		if gotDump := dumpState(plainAdapter{got}); gotDump != want {
			t.Errorf("vector=%d diverged from per-packet Process:\n%s", vec, firstDiff(want, gotDump))
		}
	}
}

// TestProcessAccMatchesProcess: the accumulator path (ProcessAcc +
// FlushAcc) must produce identical state and stats to Process, with the
// flush allowed at any point.
func TestProcessAccMatchesProcess(t *testing.T) {
	const n = 40_000
	trace, script := scriptedTrace(n)

	ref := New(smallConfig())
	for i := range trace {
		script.apply(ref, i, &trace[i])
		ref.Process(&trace[i])
	}
	want := dumpState(plainAdapter{ref})

	got := New(smallConfig())
	var acc BatchAcc
	for i := range trace {
		script.apply(got, i, &trace[i])
		rec, res := got.ProcessAcc(&trace[i], &acc)
		if res.Outcome == HostPunt && rec != nil {
			t.Fatalf("packet %d: HostPunt returned a record", i)
		}
		if i%777 == 0 {
			got.FlushAcc(&acc) // flushes at odd points must not matter
		}
	}
	got.FlushAcc(&acc)
	if gotDump := dumpState(plainAdapter{got}); gotDump != want {
		t.Errorf("ProcessAcc diverged from Process:\n%s", firstDiff(want, gotDump))
	}
}

// TestProcessHashedAccRejectsNothing: ProcessHashedAcc with a
// caller-computed hash/key is the same call as ProcessAcc.
func TestProcessHashedAccMatchesProcessAcc(t *testing.T) {
	trace := shardTrace(20_000)

	a := New(smallConfig())
	var accA BatchAcc
	for i := range trace {
		a.ProcessAcc(&trace[i], &accA)
	}
	a.FlushAcc(&accA)

	b := New(smallConfig())
	var accB BatchAcc
	for i := range trace {
		p := &trace[i]
		key := p.Key()
		b.ProcessHashedAcc(p, key.Hash(), key, &accB)
	}
	b.FlushAcc(&accB)

	wantDump, gotDump := dumpState(plainAdapter{a}), dumpState(plainAdapter{b})
	if wantDump != gotDump {
		t.Errorf("hashed path diverged:\n%s", firstDiff(wantDump, gotDump))
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

// BenchmarkProcessBatch measures the vectored hot path on the paper's
// (4,8) layout: hashes pre-computed per 64-packet vector and stat
// counters flushed once per vector. One op is one packet, so it compares
// directly with BenchmarkProcessHit/Churn. Must be 0 allocs/op.
func BenchmarkProcessBatch(b *testing.B) {
	c := New(DefaultConfig(10))
	pkts := shardTrace(1 << 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; {
		off := i & (len(pkts) - 1)
		n := min(64, len(pkts)-off, b.N-i)
		c.ProcessBatch(pkts[off : off+n])
		i += n
	}
}
