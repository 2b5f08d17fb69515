package p4switch

import (
	"testing"

	"smartwatch/internal/packet"
	"smartwatch/internal/stats"
	"smartwatch/internal/tier"
)

// defaultQueries is cmd/smartwatch's standing query set, the one the
// backbone benchmark workload installs.
func defaultQueries() []Query {
	tcp := Predicate{Proto: packet.ProtoTCP}
	return []Query{
		{Name: "ssh-conns", Filter: Predicate{Proto: packet.ProtoTCP, ServicePort: 22}, Key: KeyDstIP, PrefixBits: 16,
			Reduce: CountSYN, Threshold: 5, Slots: 1 << 12},
		{Name: "syn-fanout", Filter: tcp, Key: KeyDstIP, PrefixBits: 16, Reduce: CountSYN, Threshold: 50, Slots: 1 << 12},
		{Name: "rst-burst", Filter: tcp, Key: KeyDstIP, PrefixBits: 16, Reduce: CountRST, Threshold: 10, Slots: 1 << 12},
	}
}

// steerFixture is the steer stage as a backbone run drives it: the default
// queries with steer entries for four of the sixteen /16s the traffic
// uses, a whitelist and a blacklist that are not empty, a tracker over the
// installed set, and 4096 contexts with their identity filled in — a
// TCP/UDP mix in which about 2 % of packets are SYNs and 1 % RSTs.
func steerFixture(tb testing.TB) (*SteerStage, []tier.Context) {
	sw := New(DefaultConfig())
	if err := sw.InstallQueries(defaultQueries()); err != nil {
		tb.Fatal(err)
	}
	for i, q := range defaultQueries() {
		for _, net := range []uint32{1, 2 + uint32(i), 7, 11} {
			if err := sw.Steer(FiredKey{Query: q.Name, Key: packet.Addr(0x0a000000 | net<<16), PrefixBits: 16}); err != nil {
				tb.Fatal(err)
			}
		}
	}
	for i := range 8 {
		sw.Blacklist(0xc0000200 + packet.Addr(i))
	}
	rng := stats.NewRand(1)
	addr := func() packet.Addr { return packet.Addr(0x0a000000 | rng.IntN(16)<<16 | rng.IntN(1<<16)) }
	pkts := make([]packet.Packet, 4096)
	ctxs := make([]tier.Context, len(pkts))
	for i := range pkts {
		p := &pkts[i]
		p.Tuple = packet.FiveTuple{SrcIP: addr(), DstIP: addr(), SrcPort: uint16(1024 + rng.IntN(60000)),
			DstPort: []uint16{22, 53, 80, 443}[rng.IntN(4)], Proto: packet.ProtoTCP}
		p.Size, p.Flags = uint16(64+rng.IntN(1437)), packet.FlagACK
		switch r := rng.IntN(100); {
		case r < 15:
			p.Tuple.Proto, p.Flags = packet.ProtoUDP, 0
		case r < 17:
			p.Flags = packet.FlagSYN
		case r < 18:
			p.Flags = packet.FlagRST
		}
		ctxs[i].Reset(p)
		ctxs[i].Hash = p.Tuple.Identity(&ctxs[i].Key)
		if i%64 == 0 {
			if err := sw.Whitelist(ctxs[i].Key); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return &SteerStage{SW: sw, Tracker: NewTracker(sw.Queries(), 0)}, ctxs
}

// BenchmarkSwitchProcess: one op is one packet through Classify then
// Apply, the calls the platform's drive and the cluster router make.
func BenchmarkSwitchProcess(b *testing.B) {
	stage, ctxs := steerFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := &ctxs[i&(len(ctxs)-1)]
		c.Verdict = tier.Continue
		stage.Apply(c, stage.Classify(c.Pkt))
	}
}

// TestSwitchProcessDoesNotAllocate: once the tracker has seen the
// fixture's keys, neither the keyed nor the keyless path allocates.
func TestSwitchProcessDoesNotAllocate(t *testing.T) {
	stage, ctxs := steerFixture(t)
	pass := func() {
		for i := range ctxs {
			ctxs[i].Verdict = tier.Continue
			stage.Apply(&ctxs[i], stage.Classify(ctxs[i].Pkt))
			stage.Handle(&ctxs[i])
		}
	}
	pass()
	if n := testing.AllocsPerRun(10, pass); n != 0 {
		t.Errorf("%v allocations per pass of %d packets", n, len(ctxs))
	}
	if st := stage.SW.Stats(); st.Steered == 0 || st.WhitelistHits == 0 || st.Forwarded <= st.WhitelistHits {
		t.Errorf("fixture must steer, forward and hit the whitelist: %+v", st)
	}
}

// TestEndIntervalDoesNotAllocate: at steady state an interval close —
// the default queries, the same candidates (each listed twice, so the
// duplicate filter drops half) and half of their /16s over the ssh-conns
// threshold — allocates nothing: the duplicate filter and the fired list
// are the switch's, reset and reused every interval.
func TestEndIntervalDoesNotAllocate(t *testing.T) {
	sw := New(DefaultConfig())
	if err := sw.InstallQueries(defaultQueries()); err != nil {
		t.Fatal(err)
	}
	var pkts []packet.Packet
	var cands []packet.Addr
	for i := 0; i < 64; i++ {
		dst := packet.Addr(10<<24 | uint32(i)<<16 | 1)
		cands = append(cands, dst, dst)
		for j := 0; j < 1+7*(i%2); j++ {
			pkts = append(pkts, packet.Packet{Size: 64, Flags: packet.FlagSYN, Tuple: packet.FiveTuple{
				SrcIP: packet.Addr(j + 1), DstIP: dst, SrcPort: 40000, DstPort: 22, Proto: packet.ProtoTCP}})
		}
	}
	candidates := map[string][]packet.Addr{}
	for _, q := range defaultQueries() {
		candidates[q.Name] = cands
	}
	var fired []FiredKey
	interval := func() {
		for i := range pkts {
			sw.Process(&pkts[i])
		}
		fired = sw.EndInterval(candidates)
	}
	interval()
	if n := testing.AllocsPerRun(10, interval); n != 0 {
		t.Errorf("%v allocations per interval close", n)
	}
	if len(fired) != 32 {
		t.Fatalf("%d keys fired, want the 32 /16s over the ssh-conns threshold", len(fired))
	}
	for i, fk := range fired {
		if want := packet.Addr(10<<24 | uint32(2*i+1)<<16); fk.Query != "ssh-conns" || fk.Key != want || fk.Value != 8 {
			t.Fatalf("fired[%d] = %+v, want ssh-conns %v with 8", i, fk, want)
		}
	}
}

func BenchmarkEndInterval(b *testing.B) {
	sw := New(DefaultConfig())
	q := sshQuery()
	q.Slots = 1 << 14
	if err := sw.InstallQueries([]Query{q}); err != nil {
		b.Fatal(err)
	}
	candidates := map[string][]packet.Addr{}
	for i := 0; i < 4096; i++ {
		candidates[q.Name] = append(candidates[q.Name], packet.Addr(uint32(i)<<16))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw.EndInterval(candidates)
	}
}
