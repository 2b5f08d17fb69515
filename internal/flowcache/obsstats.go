package flowcache

import "math/bits"

// RingStat is one eviction ring's observable state: current depth and
// cumulative overflow drops. The drops here are the per-ring breakdown of
// Stats().RingDrops (the aggregate stays authoritative — both count every
// refused Push).
type RingStat struct {
	Len   int
	Drops uint64
}

// RingStats reports each eviction ring's depth and drop count, in ring
// order.
func (c *Cache) RingStats() []RingStat {
	out := make([]RingStat, len(c.rings))
	for i, r := range c.rings {
		out[i] = RingStat{Len: r.Len(), Drops: r.Drops()}
	}
	return out
}

// RingStats reports every shard's rings, shard-major — same order as
// Rings().
func (s *Sharded) RingStats() []RingStat {
	if len(s.shards) == 1 {
		return s.shards[0].RingStats()
	}
	var out []RingStat
	for _, c := range s.shards {
		out = append(out, c.RingStats()...)
	}
	return out
}

// RingDropTotal sums overflow drops across all rings.
func (s *Sharded) RingDropTotal() uint64 {
	var n uint64
	for _, st := range s.RingStats() {
		n += st.Drops
	}
	return n
}

// OccupancyStats counts live and pinned records: the population of each
// row's occupancy and pin masks, with no latch taken and no bucket touched
// (the metrics collector samples them every interval).
func (c *Cache) OccupancyStats() (occupied, pinned int) {
	for ri := range c.rows {
		occupied += bits.OnesCount64(c.rows[ri].word.Load() & occMask)
		pinned += bits.OnesCount64(c.rows[ri].pins.Load())
	}
	return occupied, pinned
}

// OccupancyStats sums live and pinned records across shards.
func (s *Sharded) OccupancyStats() (occupied, pinned int) {
	for _, c := range s.shards {
		o, p := c.OccupancyStats()
		occupied += o
		pinned += p
	}
	return occupied, pinned
}

// ModeResidency sums the virtual time every shard spent in each mode (see
// Controller.ModeResidency); with n shards the totals add up to n× the
// observed span.
func (s *Sharded) ModeResidency() (generalNs, liteNs int64) {
	for _, ctl := range s.ctls {
		g, l := ctl.ModeResidency()
		generalNs += g
		liteNs += l
	}
	return generalNs, liteNs
}
