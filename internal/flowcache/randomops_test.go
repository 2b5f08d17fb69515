package flowcache

import (
	"fmt"
	"testing"

	"smartwatch/internal/packet"
	"smartwatch/internal/stats"
)

// TestRandomOpsMatchOracle drives the cache and the pre-row-word reference
// (oracle_test.go) with one random sequence of every mutating operation —
// Process, Pin, Unpin, Evict, UpdateState, SetMode, CleanRowsBounded — on a
// 16-row table small enough that rows fill, pins saturate slices, records
// park and rings overflow. Every return value, every Result (outcome, the
// billed Reads / Writes, the pin), the ring contents at every drain, the
// final Snapshot order and the final Stats must be the reference's; after
// every operation every row's header — occupancy, pin and frequency lanes,
// parked count, dirty bit — and every live record's key hash are diffed
// against the fields the reference keeps beside each record (diffHeader);
// and every 1 000 operations CheckInvariants must hold, with the feedback
// counters on so the live-record and live-pin identities are checked too.
//
// The flow pool is skewed (a few hot flows, a long tail that is touched
// rarely or once), so tables hold idle-but-alive records beside busy ones,
// which is what the pin-age and starve-evict valves exist for.
//
// The moves that carry a record's header bits from bucket to bucket must
// each be reached at least 1 000 times under lru-lpc and under s3fifo,
// summed over a policy's four valves: the E-hit swap (s3fifo never swaps —
// its counterpart is the P-to-E demotion, which only a non-zero frequency
// earns), a cleanRow permutation that parks, a starvation eviction, an
// agePins sweep, and an insert into a bucket a pinned record last held.
func TestRandomOpsMatchOracle(t *testing.T) {
	const opsPerConfig = 36_000 // x 13 configs = 468 k operations
	for _, policy := range []string{PolicyNameLRULPC, PolicyNameLRU, PolicyNameS3FIFO} {
		var ev refEvents
		ran := 0 // a -run filter may select one valve: the sum needs all four
		for _, valve := range []struct {
			name   string
			starve bool
			ageNs  int64
		}{{"punt", false, 0}, {"starve", true, 0}, {"age", false, 4000}, {"starve+age", true, 4000}} {
			t.Run(policy+"/"+valve.name, func(t *testing.T) {
				cfg := DefaultConfig(4)
				cfg.Policy, cfg.PinStarveEvict, cfg.PinAgeNs = policy, valve.starve, valve.ageNs
				cfg.Rings, cfg.RingEntries = 2, 32
				ev.add(randomOps(t, cfg, 1, opsPerConfig, uint64(len(policy))*31+uint64(valve.ageNs)+uint64(len(valve.name))))
				ran++
			})
		}
		moves := ev.swaps
		if policy == PolicyNameS3FIFO {
			moves = ev.demotes
		}
		t.Logf("%s: %+v", policy, ev)
		if ran == 4 && min(moves, ev.parkCleans, ev.starves, ev.ageSweeps, ev.reusedPinned) < 1000 {
			t.Errorf("%s: thin coverage of the moves that carry header bits: %+v", policy, ev)
		}
	}
	// The widest row the mask can describe: its top bit sits against the
	// parked count.
	t.Run("48 buckets", func(t *testing.T) {
		cfg := DefaultConfig(1)
		cfg.Buckets, cfg.PrimaryBuckets, cfg.EvictionBuckets, cfg.LiteBuckets = MaxBuckets, 16, MaxBuckets-16, 2
		cfg.PinStarveEvict, cfg.Rings, cfg.RingEntries = true, 2, 32
		randomOps(t, cfg, 1, opsPerConfig, 48)
	})
}

// TestShardedRandomOpsMatchOracle is the same drive through Sharded's
// routing, one reference per island: every shard's table, header, rings and
// counters must be what a reference fed that island's operations holds.
func TestShardedRandomOpsMatchOracle(t *testing.T) {
	for _, shards := range []int{2, 4} {
		for _, policy := range []string{PolicyNameLRULPC, PolicyNameS3FIFO} {
			cfg := DefaultConfig(5)
			cfg.Policy, cfg.PinStarveEvict, cfg.PinAgeNs = policy, true, 4000
			cfg.Rings, cfg.RingEntries = 2, 32
			randomOps(t, cfg, shards, 36_000, uint64(shards)*7+uint64(len(policy)))
		}
	}
}

// opTarget is what randomOps drives: a Cache, or a Sharded in front of
// several.
type opTarget interface {
	Process(*packet.Packet) (*Record, Result)
	Pin(packet.FlowKey) bool
	Unpin(packet.FlowKey) bool
	Evict(packet.FlowKey) bool
	UpdateState(packet.FlowKey, func(*Record)) bool
	SetMode(Mode)
}

func randomOps(t *testing.T, cfg Config, shards, ops int, seed uint64) refEvents {
	t.Helper()
	var (
		front   opTarget
		gots    []*Cache
		wants   []*refCache
		shardOf = func(uint64) int { return 0 }
	)
	if shards == 1 {
		c := New(cfg)
		front, gots = c, []*Cache{c}
	} else {
		s := NewSharded(shards, cfg, ControllerConfig{})
		front, shardOf = s, s.ShardOf
		for i := 0; i < shards; i++ {
			gots = append(gots, s.Shard(i))
		}
	}
	for _, c := range gots {
		c.EnableFeedback()
		wants = append(wants, newRefCache(c.cfg))
	}
	wantOf := func(k packet.FlowKey) *refCache { return wants[shardOf(k.Hash())] }

	rng := stats.NewRand(seed)
	const pool = 700
	flow := func() int { return rng.IntN(rng.IntN(pool) + 1) }
	var ts int64
	var ringGot, ringWant []Record
	var seen [HostPunt + 1]int
	var cleaned, parkedHits int

	for op := 0; op < ops; op++ {
		ts += int64(rng.IntN(40))
		switch r := rng.IntN(1000); {
		case r < 732:
			p := pkt(flow(), ts)
			if rng.IntN(2) == 0 {
				p.Tuple = p.Tuple.Reverse()
			}
			recG, resG := front.Process(&p)
			recW, resW := wantOf(p.Key()).Process(&p)
			if resG != resW {
				t.Fatalf("op %d: Process %v = %+v, reference %+v", op, p.Key(), resG, resW)
			}
			if (recG == nil) != (recW == nil) || (recG != nil && *recG != *recW) {
				t.Fatalf("op %d: Process %v returned %+v, reference %+v", op, p.Key(), recG, recW)
			}
			seen[resG.Outcome]++
			if resG.RowCleaned {
				cleaned++
			}
			got := gots[shardOf(p.Hash())]
			if lo, hi := got.liteSlice(p.Hash()); got.Mode() == Lite && resG.Outcome == PHit && resG.Reads > hi-lo {
				parkedHits++
			}
			// A detector's pin-at-SYN: the flow just seen, pinned at once.
			if k := p.Key(); rng.IntN(8) == 0 && front.Pin(k) != wantOf(k).setPinned(k, true) {
				t.Fatalf("op %d: Pin %v after Process differs from the reference", op, k)
			}
		case r < 822:
			k := pkt(flow(), 0).Tuple.Canonical()
			if g, w := front.Pin(k), wantOf(k).setPinned(k, true); g != w {
				t.Fatalf("op %d: Pin %v = %v, reference %v", op, k, g, w)
			}
		case r < 872:
			k := pkt(flow(), 0).Tuple.Canonical()
			if g, w := front.Unpin(k), wantOf(k).setPinned(k, false); g != w {
				t.Fatalf("op %d: Unpin %v = %v, reference %v", op, k, g, w)
			}
		case r < 902:
			k := pkt(flow(), 0).Tuple.Canonical()
			if g, w := front.Evict(k), wantOf(k).Evict(k); g != w {
				t.Fatalf("op %d: Evict %v = %v, reference %v", op, k, g, w)
			}
		case r < 952:
			k := pkt(flow(), 0).Tuple.Canonical()
			state := rng.Uint64()
			fn := func(rec *Record) { rec.State, rec.StateTs = state, ts }
			if g, w := front.UpdateState(k, fn), wantOf(k).UpdateState(k, fn); g != w {
				t.Fatalf("op %d: UpdateState %v = %v, reference %v", op, k, g, w)
			}
		case r < 967:
			m := Mode(rng.IntN(2))
			front.SetMode(m)
			for _, w := range wants {
				w.SetMode(m)
			}
		case r < 992:
			n := rng.IntN(6)
			for i, got := range gots {
				if g, w := got.CleanRowsBounded(n), wants[i].CleanRowsBounded(n); g != w {
					t.Fatalf("op %d: shard %d CleanRowsBounded(%d) = %d, reference %d", op, i, n, g, w)
				}
			}
		default:
			// The host's drain: what reached the rings, and what a full
			// ring refused, must match record for record.
			ringGot, ringWant = ringGot[:0], ringWant[:0]
			for s, got := range gots {
				for i := range got.rings {
					ringGot = got.rings[i].Drain(ringGot, 0)
					ringWant = wants[s].rings[i].Drain(ringWant, 0)
				}
			}
			if len(ringGot) != len(ringWant) {
				t.Fatalf("op %d: rings held %d records, reference %d", op, len(ringGot), len(ringWant))
			}
			for i := range ringGot {
				if ringGot[i] != ringWant[i] {
					t.Fatalf("op %d: ring record %d = %+v, reference %+v", op, i, ringGot[i], ringWant[i])
				}
			}
		}
		for s, got := range gots {
			if err := diffHeader(got, wants[s]); err != "" {
				t.Fatalf("op %d: shard %d: %s", op, s, err)
			}
			if op%1000 == 999 {
				if err := got.CheckInvariants(); err != nil {
					t.Fatalf("op %d: shard %d: %v", op, s, err)
				}
			}
		}
	}

	var st Stats
	var ev refEvents
	for s, got := range gots {
		want := wants[s]
		var snapGot, snapWant []Record
		got.Snapshot(func(r Record) bool { snapGot = append(snapGot, r); return true })
		want.Snapshot(func(r Record) bool { snapWant = append(snapWant, r); return true })
		if len(snapGot) != len(snapWant) || got.Occupancy() != len(snapWant) {
			t.Fatalf("shard %d: snapshot holds %d records (Occupancy %d), reference %d", s, len(snapGot), got.Occupancy(), len(snapWant))
		}
		for i := range snapGot {
			if snapGot[i] != snapWant[i] {
				t.Fatalf("shard %d: snapshot record %d = %+v, reference %+v", s, i, snapGot[i], snapWant[i])
			}
		}
		if got.Stats() != want.stats {
			t.Errorf("shard %d: stats %+v, reference %+v", s, got.Stats(), want.stats)
		}
		if occ, pinned := got.OccupancyStats(); occ != len(snapWant) || int64(pinned) != got.LivePinned() {
			t.Errorf("shard %d: OccupancyStats %d / %d, table holds %d records and %d pins", s, occ, pinned, len(snapWant), got.LivePinned())
		}
		st = st.Add(got.Stats())
		ev.add(want.ev)
	}

	// The sequence must have reached what it is there to reach.
	if seen[PHit] == 0 || seen[Miss] == 0 || st.Evictions == 0 || st.RingDrops == 0 || cleaned == 0 || st.CleanupEvictions == 0 || parkedHits == 0 {
		t.Errorf("thin coverage: outcomes %v, %d cleanups, %d parked-record hits, stats %+v", seen, cleaned, parkedHits, st)
	}
	if cfg.EvictionBuckets > 0 && seen[EHit] == 0 {
		t.Errorf("no E hit in %d operations", ops)
	}
	switch {
	case cfg.PinStarveEvict && st.StarveEvictions == 0:
		t.Errorf("starve-evict valve never opened: %+v", st)
	case cfg.PinAgeNs > 0 && st.PinAgeExpired == 0:
		t.Errorf("pin-age valve never opened: %+v", st)
	case !cfg.PinStarveEvict && cfg.PinAgeNs == 0 && seen[HostPunt] == 0:
		t.Errorf("no host punt without a valve: %+v", st)
	}
	return ev
}

// diffHeader compares every row of got — header and live records — with
// what the reference keeps in and beside each of its records, and returns
// the first difference ("" when there is none).
func diffHeader(got *Cache, want *refCache) string {
	for ri := range want.rows {
		rw, wr := got.view(uint64(ri)), &want.rows[ri]
		if rw.parked() != wr.parked || (rw.word&dirtyBit != 0) != wr.dirty {
			return fmt.Sprintf("row %d: parked %d dirty %v, reference %d / %v", ri, rw.parked(), rw.word&dirtyBit != 0, wr.parked, wr.dirty)
		}
		for i := range wr.buckets {
			w := &wr.buckets[i]
			if !w.occupied {
				if rw.holds(i) || rw.pinned(i) || rw.freq(i) != 0 {
					return fmt.Sprintf("row %d bucket %d is free in the reference: live %v pinned %v freq %d", ri, i, rw.holds(i), rw.pinned(i), rw.freq(i))
				}
				continue
			}
			if !rw.holds(i) || rw.buckets[i] != w.Record || rw.buckets[i].Key.Hash() != w.Hash || rw.pinned(i) != w.Pinned || rw.freq(i) != w.freq {
				return fmt.Sprintf("row %d bucket %d: live %v %+v pinned %v freq %d, reference %+v pinned %v freq %d",
					ri, i, rw.holds(i), rw.buckets[i], rw.pinned(i), rw.freq(i), w.Record, w.Pinned, w.freq)
			}
		}
	}
	return ""
}
