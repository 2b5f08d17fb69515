package flowcache

import (
	"slices"
	"testing"

	"smartwatch/internal/packet"
)

// keysInRowSlice generates n distinct flows whose hash lands in the given
// row AND the given Lite slice of that row — the collision pattern that
// overflows a slice during General->Lite cleanup.
func keysInRowSlice(c *Cache, rowIdx, slice, n int) []packet.Packet {
	var out []packet.Packet
	for i := 1; len(out) < n; i++ {
		p := packet.Packet{
			Ts: int64(len(out) + 1),
			Tuple: packet.FiveTuple{
				SrcIP: packet.Addr(i), DstIP: packet.Addr(i*7 + 3),
				SrcPort: uint16(i), DstPort: 80, Proto: packet.ProtoTCP,
			},
			Size: 64,
		}
		h := p.Key().Hash()
		lo, _ := c.liteSlice(h)
		if int(c.rowIndex(h)) == rowIdx && lo == slice*c.cfg.LiteBuckets {
			out = append(out, p)
		}
	}
	return out
}

// drainAllRings empties every ring into one slice.
func drainAllRings(c *Cache) []Record {
	var out []Record
	for _, r := range c.Rings() {
		out = r.Drain(out, 1<<20)
	}
	return out
}

// Pinned records must survive the General->Lite row reorder even when a
// slice overflows with pins (the Lite-mode state-loss bug): the overflow
// parks elsewhere in the row and stays reachable through the probe path.
func TestCleanRowParksPinnedOverflow(t *testing.T) {
	c := New(DefaultConfig(4)) // B=12, b=2: a slice keeps 2 records
	pkts := keysInRowSlice(c, 3, 0, 4)
	for i := range pkts {
		c.Process(&pkts[i])
		if !c.Pin(pkts[i].Key()) {
			t.Fatalf("pin %d failed", i)
		}
	}
	c.SetMode(Lite)
	if n := c.CleanAllRows(); n == 0 {
		t.Fatal("no rows cleaned")
	}
	if ev := c.Stats().CleanupEvictions; ev != 0 {
		t.Fatalf("cleanup evicted %d pinned records", ev)
	}
	if rw := c.view(3); rw.parked() != 2 {
		t.Fatalf("parked = %d, want 2 (4 pins into a 2-wide slice)", rw.parked())
	}
	// Every pinned flow is still reachable — by Lookup and, critically, by
	// the Lite-mode datapath (a PHit, not a duplicate-creating Miss).
	for i := range pkts {
		if _, _, ok := c.Lookup(pkts[i].Key()); !ok {
			t.Fatalf("pinned flow %d lost by cleanRow", i)
		}
		p := pkts[i]
		p.Ts += 1000
		_, res := c.Process(&p)
		if res.Outcome != PHit {
			t.Fatalf("flow %d: outcome %v, want p-hit", i, res.Outcome)
		}
	}
	if len(drainAllRings(c)) != 0 {
		t.Fatal("pinned records leaked to the rings during cleanup")
	}
}

// Unpinning a parked record in Lite mode hands it to the host through the
// rings — it must never linger dark (unreachable but occupied).
func TestUnpinParkedRecordReachesHost(t *testing.T) {
	c := New(DefaultConfig(4))
	pkts := keysInRowSlice(c, 3, 0, 4)
	for i := range pkts {
		c.Process(&pkts[i])
		c.Pin(pkts[i].Key())
	}
	c.SetMode(Lite)
	c.CleanAllRows()

	inTable := 0
	for i := range pkts {
		c.Unpin(pkts[i].Key())
		if _, _, ok := c.Lookup(pkts[i].Key()); ok {
			inTable++
		}
	}
	// The two in-slice records stay; the two parked ones were evicted to
	// the rings on unpin.
	if inTable != 2 {
		t.Fatalf("%d records in table after unpinning, want 2", inTable)
	}
	ringed := drainAllRings(c)
	if len(ringed) != 2 {
		t.Fatalf("%d records in rings, want 2", len(ringed))
	}
	if rw := c.view(3); rw.parked() != 0 {
		t.Fatalf("parked = %d after draining, want 0", rw.parked())
	}
}

// General->Lite->General churn with pinned rows: across repeated mode
// flips and ongoing traffic, no pinned record may be lost or unreachable
// (the liteSlice subset invariant says Lite->General needs no reorder, so
// the dangerous direction is General->Lite, repeatedly).
func TestModeChurnPinnedNeverLost(t *testing.T) {
	c := New(DefaultConfig(4))
	pkts := keysInRowSlice(c, 5, 2, 5)
	var pinned []packet.FlowKey
	for i := range pkts {
		c.Process(&pkts[i])
		if !c.Pin(pkts[i].Key()) {
			t.Fatalf("pin %d failed", i)
		}
		pinned = append(pinned, pkts[i].Key())
	}
	// Background traffic that hashes anywhere, driving inserts/evictions.
	bg := func(i int) packet.Packet {
		return packet.Packet{
			Ts: int64(10_000 + i),
			Tuple: packet.FiveTuple{
				SrcIP: packet.Addr(50_000 + i), DstIP: packet.Addr(i*3 + 1),
				SrcPort: uint16(i), DstPort: 443, Proto: packet.ProtoTCP,
			},
			Size: 128,
		}
	}
	n := 0
	for churn := 0; churn < 6; churn++ {
		if churn%2 == 0 {
			c.SetMode(Lite)
		} else {
			c.SetMode(General)
		}
		for i := 0; i < 300; i++ {
			p := bg(n)
			n++
			c.Process(&p)
		}
		for i, k := range pinned {
			if _, _, ok := c.Lookup(k); !ok {
				t.Fatalf("churn %d: pinned flow %d lost", churn, i)
			}
		}
		// Pinned flows must also hit through the datapath in both modes.
		for i := range pkts {
			p := pkts[i]
			p.Ts = int64(20_000 + n)
			_, res := c.Process(&p)
			if res.Outcome != PHit && res.Outcome != EHit {
				t.Fatalf("churn %d: pinned flow %d outcome %v", churn, i, res.Outcome)
			}
		}
	}
	if got := c.Stats().CleanupEvictions; got != 0 {
		// Background flows may legitimately be cleanup-evicted; pinned ones
		// never. Verify by looking for the pinned flows in the rings.
		for _, r := range drainAllRings(c) {
			if slices.Contains(pinned, r.Key) {
				t.Fatalf("pinned record evicted during churn (cleanup evictions %d)", got)
			}
		}
	}
}

// The pin-starvation escape valve: with every candidate pinned, the seed
// punts; with PinStarveEvict the stalest pin is evicted to the rings and
// the insert succeeds.
func TestPinStarveEvict(t *testing.T) {
	run := func(starve bool) (Stats, bool) {
		cfg := DefaultConfig(4)
		cfg.PinStarveEvict = starve
		c := New(cfg)
		// Fill one row completely with pinned records.
		pkts := keysInRow(c, 7, cfg.Buckets)
		for i := range pkts {
			c.Process(&pkts[i])
			if !c.Pin(pkts[i].Key()) {
				t.Fatalf("pin %d failed", i)
			}
		}
		// A new flow for the same row must now insert or punt.
		extra := keysInRow(c, 7, cfg.Buckets+1)[cfg.Buckets]
		extra.Ts = 99_999
		rec, _ := c.Process(&extra)
		return c.Stats(), rec != nil
	}

	st, inserted := run(false)
	if inserted || st.HostPunts != 1 || st.StarveEvictions != 0 {
		t.Fatalf("seed path: inserted=%v punts=%d starve=%d", inserted, st.HostPunts, st.StarveEvictions)
	}
	st, inserted = run(true)
	if !inserted || st.HostPunts != 0 || st.StarveEvictions != 1 {
		t.Fatalf("starve-evict path: inserted=%v punts=%d starve=%d", inserted, st.HostPunts, st.StarveEvictions)
	}
}

// keysInRow generates n distinct flows hashing to the given row (any
// slice).
func keysInRow(c *Cache, rowIdx, n int) []packet.Packet {
	var out []packet.Packet
	for i := 1; len(out) < n; i++ {
		p := packet.Packet{
			Ts: int64(len(out) + 1),
			Tuple: packet.FiveTuple{
				SrcIP: packet.Addr(i + 7), DstIP: packet.Addr(i*11 + 5),
				SrcPort: uint16(i), DstPort: 22, Proto: packet.ProtoTCP,
			},
			Size: 64,
		}
		if int(c.rowIndex(p.Key().Hash())) == rowIdx {
			out = append(out, p)
		}
	}
	return out
}

// The aging path: pins whose records idled past PinAgeNs are reclaimed
// when an insert starves, so ConnExhaust-style flows cannot hold pins
// forever.
func TestPinAgeReclaimsStalePins(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.PinAgeNs = 1_000_000
	c := New(cfg)
	c.EnableFeedback()
	pkts := keysInRow(c, 2, cfg.Buckets)
	for i := range pkts {
		c.Process(&pkts[i]) // all LastTs <= Buckets
		if !c.Pin(pkts[i].Key()) {
			t.Fatalf("pin %d failed", i)
		}
	}
	before := c.LivePinned()
	extra := keysInRow(c, 2, cfg.Buckets+1)[cfg.Buckets]
	extra.Ts = 5_000_000 // far past every record's LastTs + PinAgeNs
	rec, res := c.Process(&extra)
	if rec == nil || res.Outcome != Miss {
		t.Fatalf("aged insert failed: outcome %v", res.Outcome)
	}
	st := c.Stats()
	if st.PinAgeExpired == 0 {
		t.Fatal("no pins aged out")
	}
	if st.HostPunts != 0 {
		t.Fatalf("punted despite aging: %d", st.HostPunts)
	}
	if c.LivePinned() >= before {
		t.Fatalf("LivePinned %d did not drop from %d", c.LivePinned(), before)
	}
}
