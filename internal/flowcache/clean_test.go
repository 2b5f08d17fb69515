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
