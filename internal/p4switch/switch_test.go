package p4switch

import (
	"fmt"
	"reflect"
	"testing"

	"smartwatch/internal/packet"
	"smartwatch/internal/tier"
)

func synPkt(src, dst string, dport uint16) packet.Packet {
	return packet.Packet{
		Tuple: packet.FiveTuple{
			SrcIP: packet.MustParseAddr(src), DstIP: packet.MustParseAddr(dst),
			SrcPort: 40000, DstPort: dport, Proto: packet.ProtoTCP,
		},
		Size: 64, Flags: packet.FlagSYN,
	}
}

func sshQuery() Query {
	return Query{
		Name:   "ssh-conns",
		Filter: Predicate{Proto: packet.ProtoTCP, DstPort: 22},
		Key:    KeyDstIP, PrefixBits: 16,
		Reduce: CountSYN, Threshold: 5, Slots: 1 << 12,
	}
}

func TestPredicate(t *testing.T) {
	p := synPkt("1.2.3.4", "10.0.0.1", 22)
	cases := []struct {
		pr   Predicate
		want bool
	}{
		{Predicate{}, true},
		{Predicate{Proto: packet.ProtoTCP}, true},
		{Predicate{Proto: packet.ProtoUDP}, false},
		{Predicate{DstPort: 22}, true},
		{Predicate{DstPort: 80}, false},
		{Predicate{FlagsSet: packet.FlagSYN}, true},
		{Predicate{FlagsSet: packet.FlagACK}, false},
		{Predicate{FlagsClear: packet.FlagSYN}, false},
		{Predicate{MinSize: 65}, false},
		{Predicate{MinSize: 64}, true},
	}
	for i, c := range cases {
		if got := c.pr.Match(&p); got != c.want {
			t.Errorf("case %d: match = %v, want %v", i, got, c.want)
		}
	}
}

func TestQueryFiresAboveThreshold(t *testing.T) {
	sw := New(DefaultConfig())
	q := sshQuery()
	if err := sw.InstallQueries([]Query{q}); err != nil {
		t.Fatal(err)
	}
	tr := NewTracker(sw.Queries(), 0)
	// 6 SSH SYNs to one /16, 2 to another.
	for i := 0; i < 6; i++ {
		p := synPkt("1.2.3.4", "10.1.0.9", 22)
		p.Tuple.SrcPort = uint16(1000 + i)
		sw.Process(&p)
		tr.Observe(&p)
	}
	for i := 0; i < 2; i++ {
		p := synPkt("1.2.3.4", "10.99.0.9", 22)
		sw.Process(&p)
		tr.Observe(&p)
	}
	fired := sw.EndInterval(tr.Candidates())
	if len(fired) != 1 {
		t.Fatalf("fired = %+v, want exactly the 10.1/16 subset", fired)
	}
	if fired[0].Key != packet.MustParseAddr("10.1.0.0") || fired[0].Value != 6 {
		t.Errorf("fired = %+v", fired[0])
	}
	// Registers reset across intervals.
	if again := sw.EndInterval(map[string][]packet.Addr{"ssh-conns": {packet.MustParseAddr("10.1.0.0")}}); len(again) != 0 {
		t.Errorf("registers not cleared: %+v", again)
	}
}

func TestSteeringDirectsSubsetToSNIC(t *testing.T) {
	sw := New(DefaultConfig())
	if err := sw.InstallQueries([]Query{sshQuery()}); err != nil {
		t.Fatal(err)
	}
	fk := FiredKey{Query: "ssh-conns", Key: packet.MustParseAddr("10.1.0.0"), PrefixBits: 16}
	if err := sw.Steer(fk); err != nil {
		t.Fatal(err)
	}
	in := synPkt("9.9.9.9", "10.1.44.3", 22)
	if got := sw.Process(&in); got != ToSNIC {
		t.Errorf("in-subset SSH packet: %v, want to-snic", got)
	}
	other := synPkt("9.9.9.9", "10.2.44.3", 22)
	if got := sw.Process(&other); got != Forward {
		t.Errorf("out-of-subset packet: %v, want forward", got)
	}
	web := synPkt("9.9.9.9", "10.1.44.3", 80)
	if got := sw.Process(&web); got != Forward {
		t.Errorf("non-matching filter: %v, want forward", got)
	}
	sw.Unsteer("ssh-conns", fk.Key)
	if got := sw.Process(&in); got != Forward {
		t.Errorf("after unsteer: %v", got)
	}
}

// TestSteerEntriesFollowQueryNames: steer entries are keyed by query name,
// not by position — one installed before its query exists, or while the
// query sits at another index, still applies after the set is re-programmed.
func TestSteerEntriesFollowQueryNames(t *testing.T) {
	sw := New(DefaultConfig())
	fk := FiredKey{Query: "ssh-conns", Key: packet.MustParseAddr("10.1.0.0"), PrefixBits: 16}
	if err := sw.Steer(fk); err != nil { // no query of that name yet
		t.Fatal(err)
	}
	in := synPkt("9.9.9.9", "10.1.44.3", 22)
	if got := sw.Process(&in); got != Forward {
		t.Errorf("entry without a query: %v, want forward", got)
	}
	other := sshQuery()
	other.Name, other.Filter.DstPort = "telnet-conns", 23
	for _, qs := range [][]Query{{sshQuery()}, {other, sshQuery()}, {sshQuery(), other}} {
		if err := sw.InstallQueries(qs); err != nil {
			t.Fatal(err)
		}
		if got := sw.Process(&in); got != ToSNIC {
			t.Errorf("%d queries installed: %v, want to-snic", len(qs), got)
		}
	}
	tel := synPkt("9.9.9.9", "10.1.44.3", 23)
	if got := sw.Process(&tel); got != Forward {
		t.Errorf("other query has no entries: %v, want forward", got)
	}
	if err := sw.Steer(FiredKey{Query: "telnet-conns", Key: fk.Key, PrefixBits: 16}); err != nil {
		t.Fatal(err)
	}
	if got := sw.Process(&tel); got != ToSNIC {
		t.Errorf("first entry of an installed query: %v, want to-snic", got)
	}
	if err := sw.InstallQueries([]Query{other}); err != nil {
		t.Fatal(err)
	}
	if got := sw.Process(&in); got != Forward {
		t.Errorf("query uninstalled: %v, want forward", got)
	}
	if sw.SteerCount() != 2 {
		t.Errorf("steer entries = %d, want 2 (they outlive their query)", sw.SteerCount())
	}
}

func TestWhitelistBypassesSteering(t *testing.T) {
	sw := New(DefaultConfig())
	if err := sw.InstallQueries([]Query{sshQuery()}); err != nil {
		t.Fatal(err)
	}
	_ = sw.Steer(FiredKey{Query: "ssh-conns", Key: packet.MustParseAddr("10.1.0.0"), PrefixBits: 16})
	p := synPkt("8.8.8.8", "10.1.0.1", 22)
	if sw.Process(&p) != ToSNIC {
		t.Fatal("precondition: packet should steer")
	}
	if err := sw.Whitelist(p.Key()); err != nil {
		t.Fatal(err)
	}
	if got := sw.Process(&p); got != Forward {
		t.Errorf("whitelisted flow: %v, want forward", got)
	}
	if sw.Stats().WhitelistHits != 1 {
		t.Errorf("whitelist hits = %d", sw.Stats().WhitelistHits)
	}
}

func TestBlacklistDrops(t *testing.T) {
	sw := New(DefaultConfig())
	attacker := packet.MustParseAddr("6.6.6.6")
	sw.Blacklist(attacker)
	p := synPkt("6.6.6.6", "10.0.0.1", 22)
	if got := sw.Process(&p); got != Drop {
		t.Errorf("blacklisted source: %v, want drop", got)
	}
	if !sw.Blacklisted(attacker) {
		t.Error("Blacklisted() false")
	}
}

func TestSRAMAccounting(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SRAMBytes = 64 << 10
	sw := New(cfg)
	q := sshQuery()
	q.Slots = 1 << 10 // 8 KB
	if err := sw.InstallQueries([]Query{q}); err != nil {
		t.Fatal(err)
	}
	used := sw.SRAMBytesUsed()
	if used != 1<<13 {
		t.Errorf("SRAM used = %d, want 8192", used)
	}
	if occ := sw.Occupancy(); occ < 0.12 || occ > 0.13 {
		t.Errorf("occupancy = %f", occ)
	}
	// A query set that exceeds SRAM must be rejected.
	big := q
	big.Slots = 1 << 14 // 128 KB > 64 KB
	if err := sw.InstallQueries([]Query{big}); err == nil {
		t.Error("oversized query accepted")
	}
}

func TestStageBudget(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Stages = 8 // fixed 4 + 2 per query => at most 2 queries
	sw := New(cfg)
	mk := func(name string) Query {
		q := sshQuery()
		q.Name = name
		return q
	}
	if err := sw.InstallQueries([]Query{mk("a"), mk("b")}); err != nil {
		t.Fatalf("2 queries should fit: %v", err)
	}
	if err := sw.InstallQueries([]Query{mk("a"), mk("b"), mk("c")}); err == nil {
		t.Error("3 queries must exceed 8 stages")
	}
}

// TestQueryCountBound: Process keeps one match bit per query, so the set
// is bounded at 64 however deep the pipeline is configured — and the last
// admissible query (bit 63) still steers.
func TestQueryCountBound(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Stages = 1000
	sw := New(cfg)
	qs := make([]Query, maxQueries+1)
	for i := range qs {
		qs[i] = sshQuery()
		qs[i].Name = fmt.Sprintf("q%02d", i)
		qs[i].Filter.DstPort = uint16(1000 + i)
		qs[i].Slots = 16
	}
	if err := sw.InstallQueries(qs); err == nil {
		t.Fatalf("%d queries installed, want an error past %d", len(qs), maxQueries)
	}
	if err := sw.InstallQueries(qs[:maxQueries]); err != nil {
		t.Fatal(err)
	}
	last := qs[maxQueries-1]
	if err := sw.Steer(FiredKey{Query: last.Name, Key: packet.MustParseAddr("10.1.0.0"), PrefixBits: 16}); err != nil {
		t.Fatal(err)
	}
	in := synPkt("9.9.9.9", "10.1.44.3", last.Filter.DstPort)
	if got := sw.Process(&in); got != ToSNIC {
		t.Errorf("packet of query %d's fired subset: %v, want to-snic", maxQueries-1, got)
	}
	miss := synPkt("9.9.9.9", "10.1.44.3", 22)
	if got := sw.Process(&miss); got != Forward {
		t.Errorf("packet matching no filter: %v, want forward", got)
	}
}

func TestQueryValidation(t *testing.T) {
	sw := New(DefaultConfig())
	bad := []Query{
		{},
		{Name: "x", PrefixBits: 0, Slots: 1, Threshold: 1},
		{Name: "x", PrefixBits: 16, Slots: 0, Threshold: 1},
		{Name: "x", PrefixBits: 16, Slots: 1, Threshold: 0},
	}
	for i, q := range bad {
		if err := sw.InstallQueries([]Query{q}); err == nil {
			t.Errorf("bad query %d accepted", i)
		}
	}
}

func TestWhitelistCapacity(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxWhitelist = 2
	sw := New(cfg)
	for i := 0; i < 2; i++ {
		k := packet.FiveTuple{SrcIP: packet.Addr(i + 1), DstIP: 9, SrcPort: 1, DstPort: 2, Proto: packet.ProtoTCP}.Canonical()
		if err := sw.Whitelist(k); err != nil {
			t.Fatal(err)
		}
	}
	k := packet.FiveTuple{SrcIP: 77, DstIP: 9, SrcPort: 1, DstPort: 2, Proto: packet.ProtoTCP}.Canonical()
	if err := sw.Whitelist(k); err == nil {
		t.Error("whitelist overflow accepted")
	}
}

func TestReduceKinds(t *testing.T) {
	p := synPkt("1.1.1.1", "2.2.2.2", 22)
	rst := p
	rst.Flags = packet.FlagRST
	data := p
	data.Flags = packet.FlagACK
	cases := []struct {
		r    Reduce
		pkt  *packet.Packet
		want uint64
	}{
		{CountPackets, &p, 1},
		{CountSYN, &p, 1},
		{CountSYN, &data, 0},
		{CountRST, &rst, 1},
		{CountRST, &p, 0},
		{SumBytes, &p, 64},
	}
	for i, c := range cases {
		q := Query{Reduce: c.r}
		if got := q.amount(c.pkt); got != c.want {
			t.Errorf("case %d (%v): amount = %d, want %d", i, c.r, got, c.want)
		}
	}
}

func TestRefinerZoomsAndDetects(t *testing.T) {
	base := sshQuery()
	r := NewRefiner(base, []int{8, 16, 32})
	if r.Level() != 8 {
		t.Fatalf("start level = %d", r.Level())
	}
	// Interval 1: /8 fires for 10.0.0.0.
	out := r.Advance([]FiredKey{{Query: base.Name, Key: packet.MustParseAddr("10.0.0.0"), PrefixBits: 8, Value: 100}})
	if out != nil || r.Level() != 16 {
		t.Fatalf("after level 8: out=%v level=%d", out, r.Level())
	}
	// Interval 2: /16 fires inside and outside the zoomed window.
	out = r.Advance([]FiredKey{
		{Query: base.Name, Key: packet.MustParseAddr("10.1.0.0"), PrefixBits: 16, Value: 80},
		{Query: base.Name, Key: packet.MustParseAddr("11.1.0.0"), PrefixBits: 16, Value: 90}, // outside
	})
	if out != nil || r.Level() != 32 {
		t.Fatalf("after level 16: out=%v level=%d", out, r.Level())
	}
	// Interval 3: /32 detection inside the window.
	out = r.Advance([]FiredKey{
		{Query: base.Name, Key: packet.MustParseAddr("10.1.2.3"), PrefixBits: 32, Value: 60},
		{Query: base.Name, Key: packet.MustParseAddr("10.9.2.3"), PrefixBits: 32, Value: 70}, // parent not fired
	})
	if len(out) != 1 || out[0].Key != packet.MustParseAddr("10.1.2.3") {
		t.Fatalf("detections = %+v", out)
	}
	if r.Level() != 8 {
		t.Errorf("refiner must restart, level = %d", r.Level())
	}
}

func TestRefinerRestartsWhenNothingFires(t *testing.T) {
	r := NewRefiner(sshQuery(), []int{8, 16})
	r.Advance([]FiredKey{{Query: "ssh-conns", Key: 0, PrefixBits: 8, Value: 10}})
	if out := r.Advance(nil); out != nil || r.Level() != 8 {
		t.Errorf("empty interval must restart: level=%d", r.Level())
	}
}

func TestTrackerBounded(t *testing.T) {
	q := sshQuery()
	tr := NewTracker([]Query{q}, 3)
	for i := 0; i < 10; i++ {
		p := synPkt("1.1.1.1", "10.0.0.1", 22)
		p.Tuple.DstIP = packet.Addr(uint32(i) << 16) // distinct /16s
		tr.Observe(&p)
	}
	c := tr.Candidates()
	if len(c[q.Name]) != 3 {
		t.Errorf("tracker kept %d keys, want 3 (bounded)", len(c[q.Name]))
	}
	// Reset after Candidates.
	if len(tr.Candidates()[q.Name]) != 0 {
		t.Error("tracker not reset")
	}
}

// TestInstallQueriesRejectsDuplicateNames: registers are kept per
// position but steer entries and tracker candidates per name, so two
// queries of one name would each close their interval on the other's
// candidates too — a SYN to 10.1.0.1 and a RST from 20.2.0.1 fired both
// prefixes under both queries. The set is refused; renamed apart, each
// query fires its own key once.
func TestInstallQueriesRejectsDuplicateNames(t *testing.T) {
	syn := Query{Name: "x", Filter: Predicate{Proto: packet.ProtoTCP}, Key: KeyDstIP, PrefixBits: 16, Reduce: CountSYN, Threshold: 1, Slots: 1}
	rst := Query{Name: "x", Filter: Predicate{Proto: packet.ProtoTCP}, Key: KeySrcIP, PrefixBits: 16, Reduce: CountRST, Threshold: 1, Slots: 1}
	sw := New(DefaultConfig())
	if err := sw.InstallQueries([]Query{syn, rst}); err == nil {
		t.Fatal("two queries named x installed")
	}
	if len(sw.Queries()) != 0 {
		t.Fatalf("a refused set left %d queries installed", len(sw.Queries()))
	}
	rst.Name = "y"
	if err := sw.InstallQueries([]Query{syn, rst}); err != nil {
		t.Fatal(err)
	}
	stage := &SteerStage{SW: sw, Tracker: NewTracker(sw.Queries(), 0)}
	s, r := synPkt("30.3.0.1", "10.1.0.1", 22), synPkt("20.2.0.1", "40.4.0.1", 22)
	r.Flags = packet.FlagRST
	var ctx tier.Context
	for _, p := range []*packet.Packet{&s, &r} {
		ctx.Reset(p)
		stage.Handle(&ctx)
	}
	want := []FiredKey{
		{Query: "x", Key: packet.MustParseAddr("10.1.0.0"), PrefixBits: 16, Value: 1},
		{Query: "y", Key: packet.MustParseAddr("20.2.0.0"), PrefixBits: 16, Value: 1},
	}
	if got := sw.EndInterval(stage.Tracker.Candidates()); !reflect.DeepEqual(got, want) {
		t.Errorf("fired %+v, want %+v", got, want)
	}
}

// TestResteerAtFullSRAM: steering a key that is already installed adds
// nothing, so it succeeds even when SRAM has no room for a new entry —
// and an interval close that re-fires it does not stop there.
func TestResteerAtFullSRAM(t *testing.T) {
	q := sshQuery()
	q.Slots = 16
	cfg := DefaultConfig()
	cfg.SRAMBytes = q.Slots*bytesPerSlot + steerEntryBytes
	sw := New(cfg)
	if err := sw.InstallQueries([]Query{q}); err != nil {
		t.Fatal(err)
	}
	fk := FiredKey{Query: q.Name, Key: packet.MustParseAddr("10.1.0.0"), PrefixBits: 16}
	if err := sw.Steer(fk); err != nil {
		t.Fatal(err)
	}
	if err := sw.Steer(fk); err != nil {
		t.Errorf("re-steering an installed key at full SRAM: %v", err)
	}
	if err := sw.Steer(FiredKey{Query: q.Name, Key: packet.MustParseAddr("10.2.0.0"), PrefixBits: 16}); err == nil {
		t.Error("a new entry past the SRAM budget was accepted")
	}
	tr := NewTracker(sw.Queries(), 0)
	for i := range 5 {
		p := synPkt("9.9.9.9", "10.1.0.7", 22)
		p.Tuple.SrcPort += uint16(i)
		tr.Observe(&p)
		sw.Process(&p)
	}
	if n := sw.CloseInterval(tr); n != 1 || sw.SteerCount() != 1 {
		t.Errorf("close re-firing the installed key steered %d subsets, %d entries; want 1, 1", n, sw.SteerCount())
	}
}
