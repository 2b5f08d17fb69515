package flowcache

import "testing"

// overflowConfig shrinks the rings so a handful of evictions from one row
// overflows them.
func overflowConfig() Config {
	cfg := smallConfig()
	cfg.Rings = 1
	cfg.RingEntries = 2
	return cfg
}

func TestRingStatsSurfaceOverflowDrops(t *testing.T) {
	c := New(overflowConfig()) // 12 buckets/row, one 2-entry ring
	pkts := fillRow(t, c, 18)  // 18 flows into 12 buckets → 6 evictions
	for i := range pkts {
		c.Process(&pkts[i])
	}
	st := c.Stats()
	if st.Evictions != 6 {
		t.Fatalf("evictions = %d, want 6", st.Evictions)
	}
	if st.RingDrops != 4 {
		t.Fatalf("RingDrops = %d, want 4 (6 evictions, ring holds 2)", st.RingDrops)
	}
	rs := c.RingStats()
	if len(rs) != 1 {
		t.Fatalf("RingStats len = %d, want 1", len(rs))
	}
	if rs[0].Len != 2 || rs[0].Drops != 4 {
		t.Fatalf("RingStats[0] = %+v, want {Len:2 Drops:4}", rs[0])
	}
	// The per-ring breakdown must sum to the aggregate counter.
	var sum uint64
	for _, r := range rs {
		sum += r.Drops
	}
	if sum != st.RingDrops {
		t.Fatalf("per-ring drops %d != aggregate %d", sum, st.RingDrops)
	}
}

// A ring's storage starts empty and doubles to its capacity as it fills.
// Against a FIFO model: order survives every growth, including one with
// the head wrapped; a push drops exactly when the capacity is held; Len,
// Drops and RingStats read what they read with the whole capacity
// allocated up front.
func TestRingGrowsToCapacity(t *testing.T) {
	const capacity = 4*ringMinLen + 37 // the last growth stops short of a doubling
	cfg := smallConfig()
	cfg.Rings, cfg.RingEntries = 1, capacity
	c := New(cfg)
	r := c.rings[0]
	if r.buf != nil {
		t.Fatalf("New allocated %d records of ring storage", len(r.buf))
	}
	var (
		model      []uint64 // Pkts of the buffered records, pop order
		drops      uint64
		next       uint64
		grownTo    = map[int]bool{}
		wrapGrowth bool
	)
	push := func(n int) {
		for range n {
			wrapped, full := r.head != 0, r.size == len(r.buf)
			ok := r.Push(Record{Pkts: next})
			if want := len(model) < capacity; ok != want {
				t.Fatalf("push %d with %d buffered: ok=%v, want %v", next, len(model), ok, want)
			}
			if ok {
				model = append(model, next)
				wrapGrowth = wrapGrowth || (wrapped && full)
			} else {
				drops++
			}
			next++
			grownTo[len(r.buf)] = true
		}
	}
	drain := func(n int) {
		got := r.Drain(nil, n)
		k := min(n, len(model))
		if n <= 0 {
			k = len(model)
		}
		if len(got) != k {
			t.Fatalf("drain %d: got %d records, want %d", n, len(got), k)
		}
		for i, rec := range got {
			if rec.Pkts != model[i] {
				t.Fatalf("drain %d: record %d is %d, want %d", n, i, rec.Pkts, model[i])
			}
		}
		model = model[k:]
	}
	check := func(when string) {
		if r.Len() != len(model) || r.Drops() != drops {
			t.Fatalf("%s: Len %d Drops %d, want %d and %d", when, r.Len(), r.Drops(), len(model), drops)
		}
		if rs := c.RingStats(); rs[0] != (RingStat{Len: len(model), Drops: drops}) {
			t.Fatalf("%s: RingStats %+v, want {Len:%d Drops:%d}", when, rs[0], len(model), drops)
		}
		if len(r.buf) > capacity {
			t.Fatalf("%s: storage %d records, capacity %d", when, len(r.buf), capacity)
		}
	}

	// Fill the first allocation, pop part of it and refill, so the ring is
	// full with its head wrapped when the next push grows it.
	push(ringMinLen)
	drain(100)
	push(100)
	check("full at the first allocation, head wrapped")
	push(1)
	if !wrapGrowth || len(r.buf) != 2*ringMinLen {
		t.Fatalf("growth with a wrapped head not exercised: storage %d", len(r.buf))
	}
	// To the capacity and past it: every push beyond it is a drop.
	push(capacity + 50)
	check("past capacity")
	// ringMinLen+1 were buffered before the capacity+50 pushes.
	if len(r.buf) != capacity || drops != ringMinLen+1+50 {
		t.Fatalf("storage %d, drops %d; want %d and %d", len(r.buf), drops, capacity, ringMinLen+1+50)
	}
	// Churn at capacity: wrapped pops and pushes, then empty it.
	for i := range 40 {
		drain(97 + i)
		push(113)
		check("churn at capacity")
	}
	drain(0)
	check("drained")
	for _, n := range []int{ringMinLen, 2 * ringMinLen, 4 * ringMinLen, capacity} {
		if !grownTo[n] {
			t.Errorf("storage never held %d records: growth is not a doubling to the capacity (saw %v)", n, grownTo)
		}
	}
}

func TestShardedRingStatsAggregate(t *testing.T) {
	cfg := overflowConfig()
	s := NewSharded(2, cfg, ControllerConfig{})
	// Push every shard's rows past capacity via per-shard forced evictions.
	for si := 0; si < s.NumShards(); si++ {
		c := s.Shard(si)
		pkts := fillRow(t, c, 18)
		for i := range pkts {
			c.Process(&pkts[i])
		}
	}
	rs := s.RingStats()
	if len(rs) != 2*cfg.Rings {
		t.Fatalf("RingStats len = %d, want %d", len(rs), 2*cfg.Rings)
	}
	var sum uint64
	for _, r := range rs {
		sum += r.Drops
	}
	if sum == 0 {
		t.Fatal("expected overflow drops across shards")
	}
	if got := s.RingDropTotal(); got != sum {
		t.Fatalf("RingDropTotal = %d, want %d", got, sum)
	}
	if agg := s.Stats().RingDrops; agg != sum {
		t.Fatalf("Stats().RingDrops = %d, want %d", agg, sum)
	}
}

func TestOccupancyStats(t *testing.T) {
	c := New(smallConfig())
	for i := 0; i < 10; i++ {
		p := pkt(i, int64(i+1))
		c.Process(&p)
	}
	pinMe := pkt(3, 99)
	if !c.Pin(pinMe.Key()) {
		t.Fatal("pin failed")
	}
	occ, pinned := c.OccupancyStats()
	if occ != 10 || pinned != 1 {
		t.Fatalf("OccupancyStats = (%d,%d), want (10,1)", occ, pinned)
	}
	if occ != c.Occupancy() {
		t.Fatalf("OccupancyStats occupied %d != Occupancy %d", occ, c.Occupancy())
	}
}

func TestControllerModeResidency(t *testing.T) {
	c := New(smallConfig())
	// Alpha 1 ⇒ the EWMA is the last window's raw rate; 1 ms windows.
	ctl := NewController(c, ControllerConfig{Alpha: 1, WindowNs: 1e6, EtaHigh: 1000, EtaLow: 500})

	// Window 1 [0,1ms): 10 events ⇒ 10k pps > EtaHigh when it closes.
	for i := int64(0); i < 10; i++ {
		ctl.Observe(i*1000, 1)
	}
	// First observation of window 2 closes window 1 → flips to Lite at 1ms.
	if m := ctl.Observe(1_000_000, 0); m != Lite {
		t.Fatalf("mode after busy window = %v, want Lite", m)
	}
	// Idle until 3ms: windows close at 0 pps < EtaLow → back to General.
	if m := ctl.Observe(3_000_000, 0); m != General {
		t.Fatalf("mode after idle gap = %v, want General", m)
	}
	// Open General segment through 5ms.
	ctl.Observe(5_000_000, 0)

	g, l := ctl.ModeResidency()
	if g != 3_000_000 || l != 2_000_000 {
		t.Fatalf("residency = (general %d, lite %d), want (3e6, 2e6)", g, l)
	}
	if ctl.Switchovers() != 2 {
		t.Fatalf("switchovers = %d, want 2", ctl.Switchovers())
	}
}

func TestShardedModeResidencySums(t *testing.T) {
	s := NewSharded(2, smallConfig(), ControllerConfig{Alpha: 1, WindowNs: 1e6, EtaHigh: 1e12, EtaLow: 1})
	for si := 0; si < 2; si++ {
		ctl := s.ShardController(si)
		ctl.Observe(0, 1)
		ctl.Observe(4_000_000, 1)
	}
	g, l := s.ModeResidency()
	if g != 8_000_000 || l != 0 {
		t.Fatalf("sharded residency = (%d,%d), want (8e6,0)", g, l)
	}
}
