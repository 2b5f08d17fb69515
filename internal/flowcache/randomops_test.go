package flowcache

import (
	"fmt"
	"testing"

	"smartwatch/internal/packet"
	"smartwatch/internal/stats"
)

// TestRandomOpsMatchOracle drives the cache and the pre-row-word reference
// (oracle_test.go) with one random sequence of every mutating operation —
// Process, Pin, Unpin, Evict, UpdateState, SetMode — on a
// 16-row table small enough that rows fill, pins saturate slices, records
// park and rings overflow. Every return value, every Result (outcome, the
// billed Reads / Writes, the pin), the ring contents at every drain, the
// final Snapshot order and the final Stats must be the reference's; after
// every operation every row's header — occupancy and pin lanes, parked
// count, dirty bit — and every live record's key hash are diffed
// against the fields the reference keeps beside each record (diffHeader);
// and every 1 000 operations CheckInvariants must hold.
//
// The flow pool is skewed (a few hot flows, a long tail that is touched
// rarely or once), so tables hold idle-but-alive records beside busy ones,
// which is what the starve-evict valve exists for.
//
// Each of Fig. 5's four layouts runs under both valves. The moves that
// carry a record's header bits from bucket to bucket must each be reached
// at least 1 000 times per layout, summed over its two valves: a cleanRow
// permutation that parks, a starvation eviction, an insert into a bucket a
// pinned record last held and, where the row has an Eviction buffer, the
// E-hit swap and the P-to-E demotion.
func TestRandomOpsMatchOracle(t *testing.T) {
	const opsPerConfig = 58_000 // x 11 configs = 638 k operations
	for i, l := range fig5Layouts {
		var ev refEvents
		ran := 0 // a -run filter may select one valve: the sum needs both
		for _, valve := range []struct {
			name   string
			starve bool
		}{{"punt", false}, {"starve", true}} {
			t.Run(l.name+"/"+valve.name, func(t *testing.T) {
				cfg := l.apply(DefaultConfig(4))
				cfg.PinStarveEvict = valve.starve
				cfg.Rings, cfg.RingEntries = 2, 32
				ev.add(randomOps(t, cfg, 1, opsPerConfig, uint64(i)*31+uint64(len(valve.name))))
				ran++
			})
		}
		moves := min(ev.parkCleans, ev.starves, ev.reusedPinned)
		if l.eviction > 0 {
			moves = min(moves, ev.swaps, ev.demotes)
		}
		t.Logf("%s: %+v", l.name, ev)
		if ran == 2 && moves < 1000 {
			t.Errorf("%s: thin coverage of the moves that carry header bits: %+v", l.name, ev)
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
	// Geometries the table's layout — every row's Primary run, then every
	// row's Eviction run — must not show through: Lite slices that
	// straddle the two runs, and no Eviction buffer at all (an empty
	// Eviction run, whose populate at the first Lite switch is a no-op).
	for _, g := range []struct {
		name                   string
		buckets, primary, lite int
	}{{"straddling slices", 12, 3, 2}, {"no eviction buffer", 12, 12, 2}} {
		t.Run(g.name, func(t *testing.T) {
			cfg := DefaultConfig(4)
			cfg.Buckets, cfg.PrimaryBuckets, cfg.EvictionBuckets, cfg.LiteBuckets = g.buckets, g.primary, g.buckets-g.primary, g.lite
			cfg.PinStarveEvict, cfg.Rings, cfg.RingEntries = true, 2, 32
			randomOps(t, cfg, 1, opsPerConfig, uint64(g.primary))
		})
	}
}

// TestShardedRandomOpsMatchOracle is the same drive through Sharded's
// routing, one reference per island: every shard's table, header, rings and
// counters must be what a reference fed that island's operations holds.
func TestShardedRandomOpsMatchOracle(t *testing.T) {
	for _, shards := range []int{2, 4} {
		for i, l := range fig5Layouts[2:] { // the two split layouts
			cfg := l.apply(DefaultConfig(5))
			cfg.PinStarveEvict = true
			cfg.Rings, cfg.RingEntries = 2, 32
			randomOps(t, cfg, shards, 36_000, uint64(shards)*7+uint64(i))
		}
	}
}

// opTarget is what randomOps drives: a Cache, or a Sharded in front of
// several (shardedOps).
type opTarget interface {
	Process(*packet.Packet) (*Record, Result)
	Pin(packet.FlowKey) bool
	Unpin(packet.FlowKey) bool
	Evict(packet.FlowKey) bool
	UpdateState(packet.FlowKey, func(*Record)) bool
	SetMode(Mode)
}

// shardedOps drives a Sharded: Pin, Unpin and SetMode through its own
// routing, and the operations it has no method for through its shard
// selection to the owning shard's Cache.
type shardedOps struct{ *Sharded }

func (s shardedOps) owner(k packet.FlowKey) *Cache { return s.shards[s.shardOf(k.Hash())] }

func (s shardedOps) Process(p *packet.Packet) (*Record, Result) { return s.owner(p.Key()).Process(p) }
func (s shardedOps) Evict(k packet.FlowKey) bool                { return s.owner(k).Evict(k) }
func (s shardedOps) UpdateState(k packet.FlowKey, fn func(*Record)) bool {
	return s.owner(k).UpdateState(k, fn)
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
		front, shardOf = shardedOps{s}, s.shardOf
		for i := 0; i < shards; i++ {
			gots = append(gots, s.Shard(i))
		}
	}
	for _, c := range gots {
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
		case r < 761:
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
			got := gots[shardOf(p.Key().Hash())]
			if lo, hi := got.liteSlice(p.Key().Hash()); got.Mode() == Lite && resG.Outcome == PHit && resG.Reads > hi-lo {
				parkedHits++
			}
			// A detector's pin-at-SYN: the flow just seen, pinned at once.
			if k := p.Key(); rng.IntN(8) == 0 && front.Pin(k) != wantOf(k).setPinned(k, true) {
				t.Fatalf("op %d: Pin %v after Process differs from the reference", op, k)
			}
		case r < 851:
			k := pkt(flow(), 0).Tuple.Canonical()
			if g, w := front.Pin(k), wantOf(k).setPinned(k, true); g != w {
				t.Fatalf("op %d: Pin %v = %v, reference %v", op, k, g, w)
			}
		case r < 901:
			k := pkt(flow(), 0).Tuple.Canonical()
			if g, w := front.Unpin(k), wantOf(k).setPinned(k, false); g != w {
				t.Fatalf("op %d: Unpin %v = %v, reference %v", op, k, g, w)
			}
		case r < 931:
			k := pkt(flow(), 0).Tuple.Canonical()
			if g, w := front.Evict(k), wantOf(k).Evict(k); g != w {
				t.Fatalf("op %d: Evict %v = %v, reference %v", op, k, g, w)
			}
		case r < 981:
			k := pkt(flow(), 0).Tuple.Canonical()
			state := rng.Uint64()
			fn := func(rec *Record) { rec.State, rec.StateTs = state, ts }
			if g, w := front.UpdateState(k, fn), wantOf(k).UpdateState(k, fn); g != w {
				t.Fatalf("op %d: UpdateState %v = %v, reference %v", op, k, g, w)
			}
		case r < 996:
			m := Mode(rng.IntN(2))
			front.SetMode(m)
			for _, w := range wants {
				w.SetMode(m)
			}
		default:
			// The host's drain: what reached the rings, and what a full
			// ring refused, must match record for record. Rare (4 in 1 000
			// operations), so the rings overflow between drains.
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
		if occ, pinned := got.OccupancyStats(); occ != len(snapWant) || pinned != want.pins() {
			t.Errorf("shard %d: OccupancyStats %d / %d, reference holds %d records and %d pins", s, occ, pinned, len(snapWant), want.pins())
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
	case !cfg.PinStarveEvict && seen[HostPunt] == 0:
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
				if rw.holds(i) || rw.pinned(i) {
					return fmt.Sprintf("row %d bucket %d is free in the reference: live %v pinned %v", ri, i, rw.holds(i), rw.pinned(i))
				}
				continue
			}
			if rec := *rw.at(i); !rw.holds(i) || rec != w.Record || rec.Key.Hash() != w.Hash || rw.pinned(i) != w.Pinned {
				return fmt.Sprintf("row %d bucket %d: live %v %+v pinned %v, reference %+v pinned %v",
					ri, i, rw.holds(i), rec, rw.pinned(i), w.Record, w.Pinned)
			}
		}
	}
	return ""
}
