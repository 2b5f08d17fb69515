package flowcache

import (
	"testing"

	"smartwatch/internal/packet"
)

// TestFeedbackOccupancyExact: the live occupancy counter must agree with
// a full table walk at any quiesce point, across inserts, evictions,
// ring drops and mode switches.
func TestFeedbackOccupancyExact(t *testing.T) {
	cfg := smallConfig()
	cfg.Rings, cfg.RingEntries = 2, 64 // force ring drops too
	c := New(cfg)
	c.enableFeedback()
	pkts := policyStream(30_000)
	for i := range pkts {
		q := pkts[i]
		c.Process(&q)
		if i == 10_000 {
			c.SetMode(Lite)
		}
		if i == 20_000 {
			c.SetMode(General)
		}
	}
	if live, walk := c.LiveRecords(), int64(c.Occupancy()); live != walk {
		t.Errorf("LiveRecords = %d, table walk = %d", live, walk)
	}
}

// TestFeedbackPinnedTracking: every pin transition — Pin, Unpin,
// UpdateState flips, eviction of a pinned record via Lite cleanup — must
// keep the live pinned counter consistent with a walk.
func TestFeedbackPinnedTracking(t *testing.T) {
	c := New(smallConfig())
	c.enableFeedback()
	var keys []packet.FlowKey
	for i := 0; i < 200; i++ {
		p := pkt(i, int64(i+1))
		c.Process(&p)
		keys = append(keys, p.Key())
	}
	for _, k := range keys[:50] {
		c.Pin(k)
	}
	if c.LivePinned() != 50 {
		t.Fatalf("LivePinned = %d, want 50", c.LivePinned())
	}
	for _, k := range keys[:10] {
		c.Unpin(k)
	}
	// One more transition each way, then a walk of the table.
	c.Pin(keys[60])
	c.Unpin(keys[10])
	walk := int64(0)
	c.walk(func(_ Record, pinned bool, _ uint8) {
		if pinned {
			walk++
		}
	})
	if c.LivePinned() != walk || walk != 40 {
		t.Errorf("LivePinned = %d, walk = %d, want 40", c.LivePinned(), walk)
	}
	// Force-evict a pinned record: counter must drop with it.
	if !c.Pin(keys[61]) {
		t.Fatal("pin failed")
	}
	before := c.LivePinned()
	if !c.Evict(keys[61]) {
		t.Fatal("evict failed")
	}
	if c.LivePinned() != before-1 {
		t.Errorf("LivePinned = %d after evicting pinned record, want %d", c.LivePinned(), before-1)
	}
}

// TestFeedbackBatchInvariant: the live counters are maintained on the
// direct path, so the batched drive (deferred stat folds) must leave
// them identical to the per-packet drive.
func TestFeedbackBatchInvariant(t *testing.T) {
	run := func(batched bool) (int64, int64, uint64) {
		cfg := smallConfig()
		cfg.Rings, cfg.RingEntries = 2, 64
		c := New(cfg)
		c.enableFeedback()
		pkts := policyStream(20_000)
		if batched {
			var acc BatchAcc
			for i := range pkts {
				q := pkts[i]
				key := q.Key()
				c.ProcessHashedAcc(&q, key.Hash(), key, &acc)
			}
			c.FlushAcc(&acc)
		} else {
			for i := range pkts {
				q := pkts[i]
				c.Process(&q)
			}
		}
		return c.LiveRecords(), c.LivePinned(), c.Punts() + c.directRingDrops()
	}
	o1, p1, x1 := run(false)
	o2, p2, x2 := run(true)
	if o1 != o2 || p1 != p2 || x1 != x2 {
		t.Errorf("feedback counters diverge across drives: (%d,%d,%d) vs (%d,%d,%d)", o1, p1, x1, o2, p2, x2)
	}
}
