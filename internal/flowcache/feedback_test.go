package flowcache

import (
	"testing"

	"smartwatch/internal/packet"
)

// TestFeedbackPinnedTracking: every pin transition — Pin, Unpin,
// UpdateState flips, eviction of a pinned record via Lite cleanup — must
// keep the live pinned counter consistent with a walk.
func TestFeedbackPinnedTracking(t *testing.T) {
	c := New(smallConfig())
	c.EnableFeedback()
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

// TestFeedbackBatchInvariant: the live pinned counter is maintained on the
// direct path, so the batched drive (deferred stat folds) must leave it
// identical to the per-packet drive — with pinned records being evicted
// and refused along the way — and equal to the table's pin masks.
func TestFeedbackBatchInvariant(t *testing.T) {
	run := func(batched bool) int64 {
		cfg := smallConfig()
		cfg.Rings, cfg.RingEntries = 2, 64
		c := New(cfg)
		c.EnableFeedback()
		var acc BatchAcc
		pkts := policyStream(20_000)
		for i := range pkts {
			q := pkts[i]
			key := q.Key()
			if batched {
				c.ProcessHashedAcc(&q, key.Hash(), key, &acc)
			} else {
				c.Process(&q)
			}
			if i%7 == 0 {
				c.Pin(key)
			}
		}
		c.FlushAcc(&acc)
		if err := c.CheckInvariants(); err != nil {
			t.Errorf("batched=%v: %v", batched, err)
		}
		return c.LivePinned()
	}
	if p1, p2 := run(false), run(true); p1 != p2 || p1 == 0 {
		t.Errorf("LivePinned diverges across drives: %d vs %d (want equal, > 0)", p1, p2)
	}
}
