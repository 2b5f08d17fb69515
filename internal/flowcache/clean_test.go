package flowcache

import (
	"testing"

	"smartwatch/internal/packet"
	"smartwatch/internal/stats"
)

// populate fills a cache with n random flows.
func populate(c *Cache, n int, seed uint64) []packet.Packet {
	rng := stats.NewRand(seed)
	pkts := make([]packet.Packet, n)
	for i := range pkts {
		pkts[i] = pkt(rng.IntN(n*2), int64(i))
		c.Process(&pkts[i])
	}
	return pkts
}

func TestCleanAllRowsEager(t *testing.T) {
	c := New(smallConfig())
	populate(c, 2000, 1)
	before := c.Occupancy()
	c.SetMode(Lite)
	cleaned := c.CleanAllRows()
	if cleaned == 0 {
		t.Fatal("no rows cleaned after General->Lite")
	}
	// All rows clean: subsequent packets must not trigger lazy cleanups.
	base := c.Stats().RowCleanups
	p := pkt(1, 99999)
	_, res := c.Process(&p)
	if res.RowCleaned || c.Stats().RowCleanups != base {
		t.Error("lazy cleanup fired after eager sweep")
	}
	// Conservation: survivors + cleanup evictions cover the original set.
	if int(c.Stats().CleanupEvictions)+c.Occupancy() < before {
		t.Errorf("records lost: evicted=%d resident=%d before=%d",
			c.Stats().CleanupEvictions, c.Occupancy(), before)
	}
	// Idempotent and a no-op outside Lite mode.
	if c.CleanAllRows() != 0 {
		t.Error("second sweep should clean nothing")
	}
	c.SetMode(General)
	if c.CleanAllRows() != 0 {
		t.Error("sweep in General mode should be a no-op")
	}
}

func TestEagerAndLazyCleanupAgree(t *testing.T) {
	mk := func() *Cache {
		c := New(smallConfig())
		populate(c, 3000, 7)
		c.SetMode(Lite)
		return c
	}
	// Lazy: touch everything via packets. Eager: one sweep.
	lazy := mk()
	for i := 0; i < 5000; i++ {
		p := pkt(i%6000, int64(100000+i))
		lazy.Process(&p)
	}
	eager := mk()
	eager.CleanAllRows()
	// Both must leave every record inside its Lite slice.
	check := func(c *Cache, name string) {
		c.Snapshot(func(r Record) bool {
			lo, hi := c.liteSlice(r.Key.Hash())
			rw := c.view(c.rowIndex(r.Key.Hash()))
			found := false
			for i := lo; i < hi; i++ {
				if rw.holds(i) && rw.buckets[i].Key == r.Key {
					found = true
				}
			}
			if !found {
				t.Errorf("%s: record %v outside its lite slice", name, r.Key)
			}
			return true
		})
	}
	check(lazy, "lazy")
	check(eager, "eager")
}

// TestCleanRowsBoundedMatchesEager: the bounded sweep is CleanAllRows
// paid in maxRows-sized instalments — same rows, same Alg.-3 reorder,
// same eviction order, proven by comparing end-state signatures and the
// full drained eviction sequences record by record.
func TestCleanRowsBoundedMatchesEager(t *testing.T) {
	mk := func() *Cache {
		c := New(smallConfig())
		populate(c, 3000, 7)
		c.SetMode(Lite)
		return c
	}
	eager := mk()
	cleanedEager := eager.CleanAllRows()

	bounded := mk()
	cleanedBounded, calls := 0, 0
	for scanned := 0; scanned < bounded.cfg.Rows(); scanned += 17 {
		n := bounded.CleanRowsBounded(17)
		if n > 17 {
			t.Fatalf("CleanRowsBounded(17) cleaned %d rows", n)
		}
		cleanedBounded += n
		calls++
	}
	if calls < 2 {
		t.Fatal("sweep finished in one call; cap not exercised")
	}
	if cleanedBounded != cleanedEager {
		t.Errorf("bounded sweep cleaned %d rows, eager %d", cleanedBounded, cleanedEager)
	}
	if se, sb := stateSig(eager), stateSig(bounded); se != sb {
		t.Errorf("end states differ: eager %#x, bounded %#x", se, sb)
	}
	// Eviction ORDER must match, ring by ring.
	er, br := eager.Rings(), bounded.Rings()
	for i := range er {
		e := er[i].Drain(nil, er[i].Len())
		b := br[i].Drain(nil, br[i].Len())
		if len(e) != len(b) {
			t.Fatalf("ring %d: %d vs %d evictions", i, len(e), len(b))
		}
		for j := range e {
			if e[j].Key != b[j].Key {
				t.Fatalf("ring %d entry %d: eviction order diverged (%v vs %v)", i, j, e[j].Key, b[j].Key)
			}
		}
	}
	// After full coverage the table is clean: another pass is a no-op,
	// and the cursor keeps wrapping harmlessly.
	if bounded.CleanRowsBounded(1<<20) != 0 {
		t.Error("rows left dirty after full bounded coverage")
	}
	if bounded.CleanRowsBounded(0) != 0 {
		t.Error("maxRows<=0 must clean nothing")
	}
}

// TestCleanRowsBoundedCursorPersists: consecutive small calls make
// progress instead of rescanning the same prefix.
func TestCleanRowsBoundedCursorPersists(t *testing.T) {
	c := New(smallConfig())
	populate(c, 3000, 11)
	c.SetMode(Lite)
	dirtyRows := 0
	for i := range c.rows {
		if c.rows[i].word.Load()&dirtyBit != 0 {
			dirtyRows++
		}
	}
	total := 0
	for i := 0; i < c.cfg.Rows(); i++ {
		total += c.CleanRowsBounded(1)
	}
	if total != dirtyRows {
		t.Errorf("one-row calls cleaned %d of %d dirty rows; cursor not persisting", total, dirtyRows)
	}
}

// The lazy-vs-eager switchover ablation (DESIGN.md §5): eager sweeping
// pays the whole reordering bill at once; lazy amortizes it over the
// packets that would touch those rows anyway.
func BenchmarkSwitchoverEager(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := New(DefaultConfig(10))
		populate(c, 10000, uint64(i+1))
		b.StartTimer()
		c.SetMode(Lite)
		c.CleanAllRows()
	}
}

func BenchmarkSwitchoverLazy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := New(DefaultConfig(10))
		pkts := populate(c, 10000, uint64(i+1))
		b.StartTimer()
		c.SetMode(Lite)
		// Replay the same packets: cleanup cost rides the packet path.
		for j := range pkts {
			c.Process(&pkts[j])
		}
	}
}
