package flowcache

import (
	"fmt"
	"strings"
	"testing"

	"smartwatch/internal/packet"
	"smartwatch/internal/stats"
)

// shardTrace builds a deterministic Zipf workload whose arrival rate
// crosses the switchover thresholds in both directions: a fast burst
// (50 Mpps) to force General→Lite, then a slow tail to force the return.
func shardTrace(n int) []packet.Packet {
	rng := stats.NewRand(42)
	z := stats.NewZipf(rng, 4_000, 1.1)
	pkts := make([]packet.Packet, n)
	ts := int64(0)
	for i := range pkts {
		if i < n*2/3 {
			ts += 20 // 50 Mpps burst
		} else {
			ts += 2_000 // 0.5 Mpps tail
		}
		fl := z.Sample()
		pkts[i] = packet.Packet{
			Ts: ts,
			Tuple: packet.FiveTuple{
				SrcIP: packet.Addr(fl + 1), DstIP: packet.Addr(fl*7 + 13),
				SrcPort: uint16(fl), DstPort: 443, Proto: packet.ProtoTCP,
			},
			Size: 64,
		}
	}
	return pkts
}

// dumpState canonicalises everything observable about a cache-like into
// one string: snapshot records in walk order, summed stats, every shard's
// mode and drained ring contents. Byte-equal dumps mean byte-equal
// behaviour.
type cacheLike interface {
	Snapshot(func(Record) bool)
	Lookup(packet.FlowKey) (Record, bool, bool)
	Stats() Stats
	Occupancy() int
	Rings() []*Ring
}

// modes lists a cache-like's per-shard modes; a bare Cache has one.
func modes(c cacheLike) []Mode {
	if s, ok := c.(*Sharded); ok {
		var ms []Mode
		for _, sh := range s.shards {
			ms = append(ms, sh.Mode())
		}
		return ms
	}
	return []Mode{c.(plainAdapter).Mode()}
}

func dumpState(c cacheLike) string {
	var b strings.Builder
	var recs []Record // Lookup latches the row Snapshot is holding
	c.Snapshot(func(r Record) bool { recs = append(recs, r); return true })
	for _, r := range recs {
		_, pinned, _ := c.Lookup(r.Key)
		fmt.Fprintf(&b, "rec %s pkts=%d bytes=%d first=%d last=%d state=%d pinned=%v\n",
			r.Key.String(), r.Pkts, r.Bytes, r.FirstTs, r.LastTs, r.State, pinned)
	}
	fmt.Fprintf(&b, "stats %+v\n", c.Stats())
	fmt.Fprintf(&b, "mode=%v occ=%d\n", modes(c), c.Occupancy())
	for i, ring := range c.Rings() {
		for _, r := range ring.Drain(nil, 1<<20) {
			fmt.Fprintf(&b, "ring[%d] %s pkts=%d\n", i, r.Key.String(), r.Pkts)
		}
	}
	return b.String()
}

// TestShardedOneEqualsPlain: at shards=1 the Sharded wrapper must be
// byte-identical to a plain Cache + Controller driven the legacy way.
func TestShardedOneEqualsPlain(t *testing.T) {
	cfg := smallConfig()
	ctlCfg := ControllerConfig{Alpha: 0.75, WindowNs: 1e6, EtaHigh: 30e6, EtaLow: 25e6}
	trace := shardTrace(60_000)

	plain := New(cfg)
	ctl := NewController(plain, ctlCfg)
	for i := range trace {
		p := &trace[i]
		ctl.Observe(p.Ts, 1)
		plain.Process(p)
	}

	sh := NewSharded(1, cfg, ctlCfg)
	for i := range trace {
		sh.ObserveProcess(&trace[i])
	}

	if ctl.Switchovers() == 0 {
		t.Fatal("trace never crossed a switchover threshold; test is vacuous")
	}
	if got, want := sh.Switchovers(), ctl.Switchovers(); got != want {
		t.Errorf("switchovers = %d, want %d", got, want)
	}
	wantDump := dumpState(plainAdapter{plain})
	gotDump := dumpState(sh)
	if gotDump != wantDump {
		t.Errorf("shards=1 state diverged from plain cache:\n%s", firstDiff(wantDump, gotDump))
	}
}

// plainAdapter lets a bare *Cache satisfy cacheLike.
type plainAdapter struct{ *Cache }

func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			return fmt.Sprintf("line %d:\n  want %q\n  got  %q", i, w[i], g[i])
		}
	}
	return fmt.Sprintf("lengths differ: want %d lines, got %d", len(w), len(g))
}

// TestShardedCapacityInvariant: sharding re-slices the table, it must not
// grow or shrink it.
func TestShardedCapacityInvariant(t *testing.T) {
	cfg := smallConfig()
	base := cfg.Entries()
	for _, n := range []int{1, 2, 4, 8} {
		s := NewSharded(n, cfg, ControllerConfig{})
		total := 0
		for _, sh := range s.shards {
			total += sh.Config().Entries()
		}
		if total != base {
			t.Errorf("%d shards hold %d entries, want %d", n, total, base)
		}
	}
}

// TestShardedRouting: key-addressed operations must land on the shard
// that processed the flow.
func TestShardedRouting(t *testing.T) {
	s := NewSharded(4, smallConfig(), ControllerConfig{})
	for i := 0; i < 512; i++ {
		p := pkt(i, int64(i+1))
		s.ObserveProcess(&p)
		k := p.Key()
		rec, _, ok := s.Lookup(k)
		if !ok || rec.Pkts != 1 {
			t.Fatalf("flow %d not found after Process (ok=%v rec=%+v)", i, ok, rec)
		}
		if !s.Pin(k) || !s.Unpin(k) {
			t.Fatalf("flow %d: pin/unpin failed", i)
		}
	}
	if occ := s.Occupancy(); occ != 512 {
		t.Errorf("occupancy = %d, want 512", occ)
	}
}

// TestShardedModeSwitchCallback: every flip surfaces through OnModeSwitch
// with its shard index, matching the controllers' own counts.
func TestShardedModeSwitchCallback(t *testing.T) {
	s := NewSharded(2, smallConfig(), ControllerConfig{EtaHigh: 30e6, EtaLow: 25e6})
	flips := map[int]uint64{}
	s.OnModeSwitch = func(shard int, m Mode, rate float64, ts int64) { flips[shard]++ }
	trace := shardTrace(60_000)
	for i := range trace {
		s.ObserveProcess(&trace[i])
	}
	var total uint64
	for i, ctl := range s.ctls {
		if flips[i] != ctl.Switchovers() {
			t.Errorf("shard %d: callback saw %d flips, controller counted %d",
				i, flips[i], ctl.Switchovers())
		}
		total += flips[i]
	}
	if total == 0 {
		t.Error("no mode switches observed; trace should cross thresholds")
	}
}

// TestShardedValidation: invalid shard geometries must fail loudly.
func TestShardedValidation(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	cfg := smallConfig() // RowBits=8
	mustPanic("zero shards", func() { NewSharded(0, cfg, ControllerConfig{}) })
	mustPanic("non power of two", func() { NewSharded(3, cfg, ControllerConfig{}) })
	mustPanic("too many shards", func() { NewSharded(256, cfg, ControllerConfig{}) })
}
