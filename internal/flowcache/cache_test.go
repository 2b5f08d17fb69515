package flowcache

import (
	"sync"
	"testing"
	"testing/quick"
	"unsafe"

	"smartwatch/internal/packet"
	"smartwatch/internal/stats"
)

// smallConfig is a paper-shaped layout scaled to test size.
func smallConfig() Config {
	cfg := DefaultConfig(8) // 256 rows x 12 buckets = 3072 entries
	cfg.RingEntries = 4096
	return cfg
}

func pkt(i int, ts int64) packet.Packet {
	return packet.Packet{
		Ts: ts,
		Tuple: packet.FiveTuple{
			SrcIP: packet.Addr(i)*2654435761 + 1, DstIP: packet.Addr(i + 7),
			SrcPort: uint16(i), DstPort: 443, Proto: packet.ProtoTCP,
		},
		Size: 100,
	}
}

func TestConfigValidate(t *testing.T) {
	good := smallConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{},
		{RowBits: 8, Buckets: 12, PrimaryBuckets: 4, EvictionBuckets: 4, LiteBuckets: 2, Rings: 1, RingEntries: 1},                    // split mismatch
		{RowBits: 8, Buckets: 12, PrimaryBuckets: 4, EvictionBuckets: 8, LiteBuckets: 5, Rings: 1, RingEntries: 1},                    // not divisible
		{RowBits: 8, Buckets: 12, PrimaryBuckets: 4, EvictionBuckets: 8, LiteBuckets: 2, Rings: 0, RingEntries: 1},                    // no rings
		{RowBits: 99, Buckets: 12, PrimaryBuckets: 4, EvictionBuckets: 8, LiteBuckets: 2, Rings: 1, RingEntries: 1},                   // rows
		{RowBits: 8, Buckets: 49, PrimaryBuckets: 4, EvictionBuckets: 45, LiteBuckets: 7, Rings: 1, RingEntries: 1},                   // row wider than the occupancy mask
		{RowBits: 2, Buckets: 12, PrimaryBuckets: 14, EvictionBuckets: -2, LiteBuckets: 2, Rings: 1, RingEntries: 1},                  // negative Eviction buffer
		{RowBits: 8, Buckets: 12, PrimaryBuckets: 4, EvictionBuckets: 8, LiteBuckets: 2, Rings: 1, RingEntries: 1, PolicyP: FIFO + 1}, // no such policy in P
		{RowBits: 8, Buckets: 12, PrimaryBuckets: 4, EvictionBuckets: 8, LiteBuckets: 2, Rings: 1, RingEntries: 1, PolicyE: FIFO + 1}, // no such policy in E
	}
	widest := Config{RowBits: 2, Buckets: MaxBuckets, PrimaryBuckets: 4, EvictionBuckets: MaxBuckets - 4, LiteBuckets: 6, Rings: 1, RingEntries: 8}
	if err := widest.Validate(); err != nil {
		t.Errorf("%d-bucket row rejected: %v", MaxBuckets, err)
	}
	if sz := unsafe.Sizeof(New(widest).rows[0]); sz != 16 {
		t.Errorf("per-row metadata is %d bytes, want 16", sz)
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if got := DefaultConfig(21).Entries(); got != 12<<21 {
		t.Errorf("paper-scale entries = %d, want %d (~25M)", got, 12<<21)
	}
}

func TestBasicHitMiss(t *testing.T) {
	c := New(smallConfig())
	p := pkt(1, 100)
	rec, res := c.Process(&p)
	if res.Outcome != Miss || rec == nil {
		t.Fatalf("first packet: %v", res.Outcome)
	}
	if rec.Pkts != 1 || rec.Bytes != 100 || rec.FirstTs != 100 {
		t.Errorf("record = %+v", rec)
	}
	p2 := pkt(1, 200)
	rec2, res2 := c.Process(&p2)
	if res2.Outcome != PHit {
		t.Fatalf("second packet: %v", res2.Outcome)
	}
	if rec2.Pkts != 2 || rec2.LastTs != 200 {
		t.Errorf("record after hit = %+v", rec2)
	}
	s := c.Stats()
	if s.PHits != 1 || s.Misses != 1 || s.Processed() != 2 {
		t.Errorf("stats = %+v", s)
	}
}

func TestSymmetricDirectionsShareRecord(t *testing.T) {
	c := New(smallConfig())
	p := pkt(5, 10)
	c.Process(&p)
	r := p.Reverse()
	r.Ts = 20
	rec, res := c.Process(&r)
	if res.Outcome != PHit {
		t.Fatalf("reverse direction: %v", res.Outcome)
	}
	if rec.Pkts != 2 {
		t.Errorf("Pkts = %d, want 2 (both directions)", rec.Pkts)
	}
}

// fillRow crafts packets that all land in one specific row (by searching
// tuple space) and returns them.
func fillRow(t *testing.T, c *Cache, n int) []packet.Packet {
	t.Helper()
	anchor := pkt(0, 0)
	targetRow := c.rowIndex(anchor.Key().Hash())
	var out []packet.Packet
	for i := 1; len(out) < n && i < 2_000_000; i++ {
		p := pkt(i, int64(len(out)+1))
		if c.rowIndex(p.Key().Hash()) == targetRow {
			out = append(out, p)
		}
	}
	if len(out) < n {
		t.Fatalf("could not find %d colliding tuples", n)
	}
	return out
}

func TestRowOverflowEvictsToRing(t *testing.T) {
	c := New(smallConfig()) // 12 buckets per row
	pkts := fillRow(t, c, 15)
	for i := range pkts {
		c.Process(&pkts[i])
	}
	s := c.Stats()
	if s.Evictions != 3 {
		t.Errorf("evictions = %d, want 3 (15 flows into 12 buckets)", s.Evictions)
	}
	total := 0
	for _, r := range c.Rings() {
		total += r.Len()
	}
	if total != 3 {
		t.Errorf("ring occupancy = %d, want 3", total)
	}
}

func TestEHitPromotion(t *testing.T) {
	c := New(smallConfig()) // P=4, E=8
	pkts := fillRow(t, c, 12)
	// Fill the whole row: first 4 land in P, next 8 cascade.
	for i := range pkts {
		c.Process(&pkts[i])
	}
	// The first-inserted flow has by now been demoted to E (LRU), so
	// touching it again must be an E hit.
	old := pkts[0]
	old.Ts = 1000
	_, res := c.Process(&old)
	if res.Outcome != EHit {
		t.Fatalf("outcome = %v, want e-hit", res.Outcome)
	}
	if c.Stats().EHits != 1 {
		t.Errorf("EHits = %d", c.Stats().EHits)
	}
}

func TestLRUPolicyKeepsHotFlows(t *testing.T) {
	cfg := smallConfig()
	cfg.PrimaryBuckets, cfg.EvictionBuckets = 12, 0
	cfg.PolicyP = LRU
	c := New(cfg)
	pkts := fillRow(t, c, 13)
	// Insert 12 flows; keep flow 0 hot.
	for i := 0; i < 12; i++ {
		c.Process(&pkts[i])
	}
	hot := pkts[0]
	hot.Ts = 500
	c.Process(&hot)
	// Flow 12 inserts: LRU victim must be flow 1 (oldest LastTs), not 0.
	ins := pkts[12]
	ins.Ts = 600
	c.Process(&ins)
	if _, _, ok := c.Lookup(pkts[0].Key()); !ok {
		t.Error("hot flow evicted under LRU")
	}
	if _, _, ok := c.Lookup(pkts[1].Key()); ok {
		t.Error("cold flow survived under LRU")
	}
}

func TestLPCPolicyKeepsBigFlows(t *testing.T) {
	cfg := smallConfig()
	cfg.PrimaryBuckets, cfg.EvictionBuckets = 12, 0
	cfg.PolicyP = LPC
	c := New(cfg)
	pkts := fillRow(t, c, 13)
	for i := 0; i < 12; i++ {
		c.Process(&pkts[i])
	}
	// Give flow 3 many packets; flow 0 stays at one packet but recent.
	for j := 0; j < 10; j++ {
		p := pkts[3]
		p.Ts = int64(100 + j)
		c.Process(&p)
	}
	last := pkts[0]
	last.Ts = 999
	c.Process(&last) // flow 0 now has 2 pkts, most others 1
	ins := pkts[12]
	ins.Ts = 1000
	c.Process(&ins)
	if _, _, ok := c.Lookup(pkts[3].Key()); !ok {
		t.Error("big flow evicted under LPC")
	}
}

func TestFIFOPolicy(t *testing.T) {
	cfg := smallConfig()
	cfg.PrimaryBuckets, cfg.EvictionBuckets = 12, 0
	cfg.PolicyP = FIFO
	c := New(cfg)
	pkts := fillRow(t, c, 13)
	for i := 0; i < 12; i++ {
		c.Process(&pkts[i])
	}
	// Touch flow 0 to make it recent — FIFO must still evict it (earliest
	// FirstTs).
	hot := pkts[0]
	hot.Ts = 900
	c.Process(&hot)
	ins := pkts[12]
	ins.Ts = 1000
	c.Process(&ins)
	if _, _, ok := c.Lookup(pkts[0].Key()); ok {
		t.Error("FIFO must evict earliest-inserted regardless of recency")
	}
}

func TestPinPreventsEviction(t *testing.T) {
	c := New(smallConfig())
	pkts := fillRow(t, c, 20)
	// Insert 12 and pin them all.
	for i := 0; i < 12; i++ {
		c.Process(&pkts[i])
		if !c.Pin(pkts[i].Key()) {
			t.Fatalf("pin %d failed", i)
		}
	}
	// New flows cannot find a victim: host punt, no record.
	rec, res := c.Process(&pkts[12])
	if res.Outcome != HostPunt || rec != nil {
		t.Fatalf("outcome = %v, want host-punt", res.Outcome)
	}
	if c.Stats().HostPunts != 1 || c.Stats().PinDenied == 0 {
		t.Errorf("stats = %+v", c.Stats())
	}
	// Unpin one: insertion works again.
	c.Unpin(pkts[0].Key())
	_, res = c.Process(&pkts[13])
	if res.Outcome != Miss {
		t.Fatalf("after unpin: %v", res.Outcome)
	}
	if _, _, ok := c.Lookup(pkts[0].Key()); ok {
		t.Error("unpinned flow should have been the victim")
	}
}

func TestPinMissingFlow(t *testing.T) {
	c := New(smallConfig())
	missing := pkt(1, 0)
	if c.Pin(missing.Key()) {
		t.Error("pinning a missing flow must fail")
	}
}

func TestUpdateStateAndLookup(t *testing.T) {
	c := New(smallConfig())
	p := pkt(2, 1)
	c.Process(&p)
	ok := c.UpdateState(p.Key(), func(r *Record) {
		r.State = 0xbeef
		r.StateTs = 42
	})
	if !ok {
		t.Fatal("UpdateState missed")
	}
	rec, _, ok := c.Lookup(p.Key())
	if !ok || rec.State != 0xbeef || rec.StateTs != 42 {
		t.Errorf("state = %+v", rec)
	}
	missing := pkt(99, 0)
	if c.UpdateState(missing.Key(), func(*Record) {}) {
		t.Error("UpdateState on missing flow must report false")
	}
}

func TestEvict(t *testing.T) {
	c := New(smallConfig())
	p := pkt(3, 1)
	c.Process(&p)
	if !c.Evict(p.Key()) {
		t.Fatal("evict failed")
	}
	if _, _, ok := c.Lookup(p.Key()); ok {
		t.Error("record still present after Evict")
	}
	if c.Evict(p.Key()) {
		t.Error("double evict must fail")
	}
	if c.Stats().Evictions != 1 {
		t.Errorf("evictions = %d", c.Stats().Evictions)
	}
}

func TestSnapshotSeesAllRecords(t *testing.T) {
	c := New(smallConfig())
	for i := 0; i < 100; i++ {
		p := pkt(i, int64(i))
		c.Process(&p)
	}
	if got := c.Occupancy(); got != 100 {
		t.Errorf("occupancy = %d, want 100", got)
	}
	// Early stop.
	n := 0
	c.Snapshot(func(Record) bool { n++; return n < 10 })
	if n != 10 {
		t.Errorf("early stop saw %d", n)
	}
}

func TestLiteModeCandidateSubset(t *testing.T) {
	// Alg. 1: Lite candidates must always be a subset of General's row.
	c := New(smallConfig())
	for i := 0; i < 1000; i++ {
		h := packet.Hash64(uint64(i))
		lo, hi := c.liteSlice(h)
		if lo < 0 || hi > c.cfg.Buckets || hi-lo != c.cfg.LiteBuckets {
			t.Fatalf("lite slice [%d,%d) out of bounds", lo, hi)
		}
		if lo%c.cfg.LiteBuckets != 0 {
			t.Fatalf("lite slice misaligned: %d", lo)
		}
	}
}

func TestGeneralToLiteCleanupPreservesRecency(t *testing.T) {
	c := New(smallConfig())
	pkts := fillRow(t, c, 12)
	for i := range pkts {
		c.Process(&pkts[i])
	}
	before := c.Occupancy()
	if before != 12 {
		t.Fatalf("row not full: %d", before)
	}
	c.SetMode(Lite)
	// Touch the row: triggers lazy cleanup.
	p := pkts[0]
	p.Ts = 10_000
	_, res := c.Process(&p)
	if !res.RowCleaned {
		t.Fatal("dirty row was not cleaned on first touch")
	}
	s := c.Stats()
	if s.RowCleanups != 1 {
		t.Errorf("RowCleanups = %d", s.RowCleanups)
	}
	// Every surviving record must live inside its lite slice.
	c.Snapshot(func(r Record) bool {
		lo, hi := c.liteSlice(r.Key.Hash())
		rw := c.view(c.rowIndex(r.Key.Hash()))
		found := false
		for i := lo; i < hi; i++ {
			if rw.holds(i) && rw.at(i).Key == r.Key {
				found = true
			}
		}
		if !found {
			t.Errorf("record %v outside its lite slice", r.Key)
		}
		return true
	})
	// Cleanup evictions + survivors must equal the original count (+1 for
	// the insert that may have followed the touch).
	if int(s.CleanupEvictions)+c.Occupancy() < before {
		t.Errorf("records lost in cleanup: evicted=%d left=%d", s.CleanupEvictions, c.Occupancy())
	}
}

func TestLiteToGeneralNoCleanup(t *testing.T) {
	c := New(smallConfig())
	c.SetMode(Lite)
	p := pkt(1, 1)
	c.Process(&p) // cleans (empty) row
	base := c.Stats().RowCleanups
	c.SetMode(General)
	c.SetMode(General) // idempotent
	p2 := pkt(1, 2)
	_, res := c.Process(&p2)
	if res.RowCleaned || c.Stats().RowCleanups != base {
		t.Error("Lite->General must not trigger cleanup")
	}
	// The record may sit in what General mode considers the E buffer (an
	// E hit that gets promoted); what matters is that it is found.
	if res.Outcome == Miss || res.Outcome == HostPunt {
		t.Errorf("record lost across mode switch: %v", res.Outcome)
	}
}

func TestModeSwitchCorrectness(t *testing.T) {
	// Records inserted in Lite mode must still be findable after switching
	// to General (candidate superset property).
	c := New(smallConfig())
	c.SetMode(Lite)
	var pkts []packet.Packet
	for i := 0; i < 200; i++ {
		p := pkt(i, int64(i))
		pkts = append(pkts, p)
		c.Process(&p)
	}
	c.SetMode(General)
	misses := 0
	for i := range pkts {
		p := pkts[i]
		p.Ts += 1_000_000
		_, res := c.Process(&p)
		if res.Outcome == Miss {
			misses++
		}
	}
	// Some flows may have been evicted in Lite mode (narrow slices), but
	// any record still resident must be found — i.e. misses must equal
	// Lite-mode evictions, not exceed them.
	if misses > int(c.Stats().Evictions) {
		t.Errorf("%d misses exceed %d evictions: duplicate/lost records", misses, c.Stats().Evictions)
	}
}

func TestNoDuplicateRecordsAcrossModeSwitches(t *testing.T) {
	c := New(smallConfig())
	rng := stats.NewRand(1)
	var ts int64
	for round := 0; round < 6; round++ {
		if round%2 == 1 {
			c.SetMode(Lite)
		} else {
			c.SetMode(General)
		}
		for i := 0; i < 300; i++ {
			ts++
			p := pkt(rng.IntN(150), ts)
			c.Process(&p)
		}
	}
	seen := map[packet.FlowKey]int{}
	c.Snapshot(func(r Record) bool {
		seen[r.Key]++
		return true
	})
	for k, n := range seen {
		if n > 1 {
			t.Errorf("duplicate record for %v: %d copies", k, n)
		}
	}
}

func TestRingDropsWhenFull(t *testing.T) {
	cfg := smallConfig()
	cfg.Rings, cfg.RingEntries = 1, 2
	c := New(cfg)
	pkts := fillRow(t, c, 20)
	for i := range pkts {
		c.Process(&pkts[i])
	}
	s := c.Stats()
	if s.Evictions != 8 {
		t.Errorf("evictions = %d, want 8", s.Evictions)
	}
	if s.RingDrops != 6 {
		t.Errorf("ring drops = %d, want 6 (capacity 2)", s.RingDrops)
	}
}

func TestRingDrain(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 4; i++ {
		if !r.Push(Record{Pkts: uint64(i)}) {
			t.Fatalf("push %d failed", i)
		}
	}
	if r.Push(Record{}) {
		t.Error("push into full ring succeeded")
	}
	out := r.Drain(nil, 2)
	if len(out) != 2 || out[0].Pkts != 0 || out[1].Pkts != 1 {
		t.Errorf("drain = %+v", out)
	}
	out = r.Drain(out[:0], 0)
	if len(out) != 2 || out[0].Pkts != 2 {
		t.Errorf("drain rest = %+v", out)
	}
	if r.Len() != 0 || r.Drops() != 1 {
		t.Errorf("len=%d drops=%d", r.Len(), r.Drops())
	}
}

func TestControllerSwitchover(t *testing.T) {
	c := New(smallConfig())
	ctl := NewController(c, ControllerConfig{Alpha: 1, WindowNs: 1e6, EtaHigh: 1000, EtaLow: 500})
	// Feed a high rate: 10 events per window => 10e6/s... compute: window
	// 1e6 ns, 10 events => 1e7 events/s, way over etaHigh.
	ts := int64(0)
	for i := 0; i < 50; i++ {
		ts += 100_000
		ctl.Observe(ts, 10)
	}
	if c.Mode() != Lite {
		t.Fatalf("mode = %v after high rate, want lite", c.Mode())
	}
	// Now go quiet: rate decays below etaLow.
	for i := 0; i < 50; i++ {
		ts += 10e6
		ctl.Observe(ts, 0)
	}
	if c.Mode() != General {
		t.Fatalf("mode = %v after low rate, want general", c.Mode())
	}
	if ctl.Switchovers() < 2 {
		t.Errorf("switchovers = %d", ctl.Switchovers())
	}
}

// Property: packet count conservation. Every processed packet is accounted
// for exactly once in resident records + ring records + host punts.
func TestPacketConservationProperty(t *testing.T) {
	f := func(seed uint64) bool {
		cfg := smallConfig()
		cfg.RowBits = 4 // force heavy collisions
		cfg.RingEntries = 1 << 16
		c := New(cfg)
		rng := stats.NewRand(seed)
		n := 2000
		punts := uint64(0)
		for i := 0; i < n; i++ {
			p := pkt(rng.IntN(400), int64(i))
			_, res := c.Process(&p)
			if res.Outcome == HostPunt {
				punts++
			}
		}
		var resident, ringed uint64
		c.Snapshot(func(r Record) bool { resident += r.Pkts; return true })
		for _, ring := range c.Rings() {
			for _, r := range ring.Drain(nil, 0) {
				ringed += r.Pkts
			}
		}
		return resident+ringed+punts == uint64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: mode switches never corrupt accounting either.
func TestPacketConservationAcrossModesProperty(t *testing.T) {
	f := func(seed uint64) bool {
		cfg := smallConfig()
		cfg.RowBits = 4
		cfg.RingEntries = 1 << 16
		c := New(cfg)
		rng := stats.NewRand(seed ^ 0xabc)
		n := 3000
		punts := uint64(0)
		for i := 0; i < n; i++ {
			if i%500 == 250 {
				c.SetMode(Lite)
			}
			if i%500 == 0 {
				c.SetMode(General)
			}
			p := pkt(rng.IntN(300), int64(i))
			_, res := c.Process(&p)
			if res.Outcome == HostPunt {
				punts++
			}
		}
		var resident, ringed uint64
		c.Snapshot(func(r Record) bool { resident += r.Pkts; return true })
		for _, ring := range c.Rings() {
			for _, r := range ring.Drain(nil, 0) {
				ringed += r.Pkts
			}
		}
		return resident+ringed+punts == uint64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Concurrency: hammer the cache from multiple goroutines with overlapping
// flows and mode switches; run under -race. Invariants: no lost packets
// (conservation) and no duplicate records.
func TestConcurrentProcess(t *testing.T) {
	cfg := smallConfig()
	cfg.RowBits = 6
	cfg.RingEntries = 1 << 18
	c := New(cfg)
	const goroutines = 8
	const perG = 5000
	var wg sync.WaitGroup
	var punts [goroutines]uint64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := stats.NewRand(uint64(g + 1))
			for i := 0; i < perG; i++ {
				p := pkt(rng.IntN(1000), int64(g*perG+i))
				_, res := c.Process(&p)
				if res.Outcome == HostPunt {
					punts[g]++
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 40; i++ {
			c.SetMode(Lite)
			c.SetMode(General)
		}
	}()
	wg.Wait()
	<-done

	var resident, ringed, totalPunts uint64
	seen := map[packet.FlowKey]bool{}
	c.Snapshot(func(r Record) bool {
		if seen[r.Key] {
			t.Errorf("duplicate record %v", r.Key)
		}
		seen[r.Key] = true
		resident += r.Pkts
		return true
	})
	for _, ring := range c.Rings() {
		for _, r := range ring.Drain(nil, 0) {
			ringed += r.Pkts
		}
	}
	for _, p := range punts {
		totalPunts += p
	}
	if got := resident + ringed + totalPunts; got != goroutines*perG {
		t.Errorf("conservation violated: %d accounted, want %d", got, goroutines*perG)
	}
}

func BenchmarkProcessHit(b *testing.B) {
	c := New(DefaultConfig(16))
	p := pkt(1, 0)
	c.Process(&p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Ts = int64(i)
		c.Process(&p)
	}
}

func BenchmarkProcessChurn(b *testing.B) {
	c := New(DefaultConfig(12))
	rng := stats.NewRand(7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pkt(rng.IntN(1_000_000), int64(i))
		c.Process(&p)
	}
}

// TestOneFlowOneCacheLine: a record is exactly one cache line and lies on
// one, and a row header is a quarter of a line and never straddles two —
// so the two addresses Prefetch names, the header of the row the hash
// selects and the first bucket Process will probe, are two lines and all
// of both, in General mode and in Lite (DESIGN.md §9.1).
func TestOneFlowOneCacheLine(t *testing.T) {
	if sz := unsafe.Sizeof(Record{}); sz != 64 {
		t.Fatalf("Record is %d bytes, want 64", sz)
	}
	for _, rowBits := range []int{1, 4, 9, 14} {
		c := New(DefaultConfig(rowBits))
		if a := uintptr(unsafe.Pointer(&c.store[0])); a%64 != 0 {
			t.Errorf("RowBits %d: table base %#x is not 64-byte aligned", rowBits, a)
		}
		if a := uintptr(unsafe.Pointer(&c.rows[0])); a%16 != 0 || unsafe.Sizeof(c.rows[0]) != 16 {
			t.Errorf("RowBits %d: header base %#x, size %d: want 16-byte aligned quarters of a line", rowBits, a, unsafe.Sizeof(c.rows[0]))
		}
		for _, mode := range []Mode{General, Lite} {
			c.SetMode(mode)
			for i := 0; i < 200; i++ {
				p := pkt(i, 1)
				hash := p.Key().Hash()
				c.Prefetch(hash)
				lo := 0
				if mode == Lite {
					lo, _ = c.liteSlice(hash)
				}
				rw := c.view(c.rowIndex(hash))
				if a, h := uintptr(unsafe.Pointer(rw.at(lo))), uintptr(unsafe.Pointer(rw.hdr)); a%64 != 0 || h%64 > 48 {
					t.Fatalf("RowBits %d %v: first bucket %#x or header %#x spans two lines", rowBits, mode, a, h)
				}
			}
		}
	}
}

// pinKey builds a distinct flow and inserts it, returning the key.
func pinKey(c *Cache, i int, ts int64) packet.FlowKey {
	p := packet.Packet{
		Ts: ts,
		Tuple: packet.FiveTuple{
			SrcIP: packet.Addr(i + 1), DstIP: packet.Addr(i*13 + 7),
			SrcPort: uint16(i), DstPort: 443, Proto: packet.ProtoTCP,
		},
		Size: 64,
	}
	c.Process(&p)
	return p.Key()
}

// The pin is in the row header, not the record, so a detector's
// UpdateState fn cannot flip it: whatever fn writes, the pin stays where
// Pin / Unpin left it.
func TestUpdateStatePinUntouched(t *testing.T) {
	c := New(contendedConfig())
	k := pinKey(c, 1, 1)
	for _, want := range []bool{false, true, false} {
		if want {
			c.Pin(k)
		} else {
			c.Unpin(k)
		}
		if !c.UpdateState(k, func(r *Record) { *r = Record{Key: r.Key, State: ^uint64(0), StateTs: -1} }) {
			t.Fatal("UpdateState missed")
		}
		rec, pinned, ok := c.Lookup(k)
		if !ok || pinned != want || rec.State != ^uint64(0) {
			t.Fatalf("after UpdateState: pinned %v (want %v), record %+v", pinned, want, rec)
		}
		if _, got := c.OccupancyStats(); got != map[bool]int{true: 1}[want] {
			t.Fatalf("OccupancyStats counts %d pins, want pinned %v", got, want)
		}
	}
}
