package flowcache

import (
	"testing"

	"smartwatch/internal/stats"
)

// TestRandomOpsMatchOracle drives the cache and the pre-row-word reference
// (oracle_test.go) with one random sequence of every mutating operation —
// Process, Pin, Unpin, Evict, UpdateState, SetMode, CleanRowsBounded — on a
// 16-row table small enough that rows fill, pins saturate slices, records
// park and rings overflow. Every return value, every Result (outcome and
// the billed Reads / Writes), the ring contents at every drain, the final
// Snapshot order and the final Stats must be the reference's; and every
// 1 000 operations CheckInvariants must hold, with the feedback counters
// on so the live-record and live-pin identities are checked too.
//
// The flow pool is skewed (a few hot flows, a long tail that is touched
// rarely or once), so tables hold idle-but-alive records beside busy ones,
// which is what the pin-age and starve-evict valves exist for.
func TestRandomOpsMatchOracle(t *testing.T) {
	const opsPerConfig = 36_000 // x 12 configs = 432 k operations
	for _, policy := range []string{PolicyNameLRULPC, PolicyNameLRU, PolicyNameS3FIFO} {
		for _, valve := range []struct {
			name   string
			starve bool
			ageNs  int64
		}{{"punt", false, 0}, {"starve", true, 0}, {"age", false, 4000}, {"starve+age", true, 4000}} {
			t.Run(policy+"/"+valve.name, func(t *testing.T) {
				cfg := DefaultConfig(4)
				cfg.Policy, cfg.PinStarveEvict, cfg.PinAgeNs = policy, valve.starve, valve.ageNs
				cfg.Rings, cfg.RingEntries = 2, 32
				randomOps(t, cfg, opsPerConfig, uint64(len(policy))*31+uint64(valve.ageNs)+uint64(len(valve.name)))
			})
		}
	}
	// The widest row the mask can describe: its top bit sits against the
	// parked count.
	t.Run("48 buckets", func(t *testing.T) {
		cfg := DefaultConfig(1)
		cfg.Buckets, cfg.PrimaryBuckets, cfg.EvictionBuckets, cfg.LiteBuckets = MaxBuckets, 16, MaxBuckets-16, 2
		cfg.PinStarveEvict, cfg.Rings, cfg.RingEntries = true, 2, 32
		randomOps(t, cfg, opsPerConfig, 48)
	})
}

func randomOps(t *testing.T, cfg Config, ops int, seed uint64) {
	got, want := New(cfg), newRefCache(cfg)
	got.EnableFeedback()
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
			recG, resG := got.Process(&p)
			recW, resW := want.Process(&p)
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
			if lo, hi := got.liteSlice(p.Hash()); got.Mode() == Lite && resG.Outcome == PHit && resG.Reads > hi-lo {
				parkedHits++
			}
		case r < 822:
			k := pkt(flow(), 0).Tuple.Canonical()
			if g, w := got.Pin(k), want.setPinned(k, true); g != w {
				t.Fatalf("op %d: Pin %v = %v, reference %v", op, k, g, w)
			}
		case r < 872:
			k := pkt(flow(), 0).Tuple.Canonical()
			if g, w := got.Unpin(k), want.setPinned(k, false); g != w {
				t.Fatalf("op %d: Unpin %v = %v, reference %v", op, k, g, w)
			}
		case r < 902:
			k := pkt(flow(), 0).Tuple.Canonical()
			if g, w := got.Evict(k), want.Evict(k); g != w {
				t.Fatalf("op %d: Evict %v = %v, reference %v", op, k, g, w)
			}
		case r < 952:
			k := pkt(flow(), 0).Tuple.Canonical()
			state, flip := rng.Uint64(), rng.IntN(4) == 0
			fn := func(rec *Record) {
				rec.State, rec.StateTs = state, ts
				if flip {
					rec.Pinned = !rec.Pinned
				}
			}
			if g, w := got.UpdateState(k, fn), want.UpdateState(k, fn); g != w {
				t.Fatalf("op %d: UpdateState %v = %v, reference %v", op, k, g, w)
			}
		case r < 967:
			m := Mode(rng.IntN(2))
			got.SetMode(m)
			want.SetMode(m)
		case r < 992:
			n := rng.IntN(6)
			if g, w := got.CleanRowsBounded(n), want.CleanRowsBounded(n); g != w {
				t.Fatalf("op %d: CleanRowsBounded(%d) = %d, reference %d", op, n, g, w)
			}
		default:
			// The host's drain: what reached the rings, and what a full
			// ring refused, must match record for record.
			ringGot, ringWant = ringGot[:0], ringWant[:0]
			for i := range got.rings {
				ringGot = got.rings[i].Drain(ringGot, 0)
				ringWant = want.rings[i].Drain(ringWant, 0)
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
		if op%1000 == 999 {
			if err := got.CheckInvariants(); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
		}
	}

	var snapGot, snapWant []Record
	got.Snapshot(func(r Record) bool { snapGot = append(snapGot, r); return true })
	want.Snapshot(func(r Record) bool { snapWant = append(snapWant, r); return true })
	if len(snapGot) != len(snapWant) || got.Occupancy() != len(snapWant) {
		t.Fatalf("snapshot holds %d records (Occupancy %d), reference %d", len(snapGot), got.Occupancy(), len(snapWant))
	}
	for i := range snapGot {
		if snapGot[i] != snapWant[i] {
			t.Fatalf("snapshot record %d = %+v, reference %+v", i, snapGot[i], snapWant[i])
		}
	}
	if got.Stats() != want.stats {
		t.Errorf("stats %+v, reference %+v", got.Stats(), want.stats)
	}

	// The sequence must have reached what it is there to reach.
	st := got.Stats()
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
}
