package p4switch

import (
	"reflect"
	"slices"
	"testing"

	"smartwatch/internal/packet"
	"smartwatch/internal/stats"
	"smartwatch/internal/tier"
)

// twoPass is the steer stage as it was before the tracker rode the
// switch's query loop: observe, then process.
func twoPass(sw *Switch, tr *Tracker, p *packet.Packet) Action {
	tr.Observe(p)
	return sw.Process(p)
}

func sortedCandidates(tr *Tracker) map[string][]packet.Addr {
	out := tr.Candidates()
	for _, keys := range out {
		slices.Sort(keys)
	}
	return out
}

// TestSteerStageMatchesTwoPass: on a random stream with blacklisted
// sources, whitelisted flows, fired subsets and interval closes, Handle and
// Classify-then-Apply give every packet the verdict the observe-then-process pair
// gives it and leave the same switch counters and tracker candidates —
// with a tracker built over the installed set (fed from the query loop),
// with one built over another set (its own pass), and across a re-install,
// an Unsteer between two closes and a whitelist that outgrows its table
// twice.
func TestSteerStageMatchesTwoPass(t *testing.T) {
	installed := []Query{
		sshQuery(),
		{Name: "syn-fanout", Filter: Predicate{Proto: packet.ProtoTCP}, Key: KeySrcIP, PrefixBits: 24, Reduce: CountSYN, Threshold: 8, Slots: 1 << 10},
		{Name: "bytes", Filter: Predicate{MinSize: 100}, Key: KeyDstIP, PrefixBits: 16, Reduce: SumBytes, Threshold: 4000, Slots: 1 << 10},
	}
	other := []Query{installed[2], installed[0]}
	for _, tc := range []struct {
		name    string
		tracked []Query
		keyed   bool
	}{
		{"aligned", installed, false},
		{"aligned keyed", installed, true},
		{"other set", other, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, want := New(DefaultConfig()), New(DefaultConfig())
			for _, sw := range []*Switch{got, want} {
				if err := sw.InstallQueries(installed); err != nil {
					t.Fatal(err)
				}
				sw.Blacklist(packet.Addr(0x0a000003))
			}
			trGot, trWant := NewTracker(tc.tracked, 4), NewTracker(tc.tracked, 4)
			stage := &SteerStage{SW: got, Tracker: trGot}
			rng := stats.NewRand(7)
			var ctx tier.Context
			for i := 0; i < 20000; i++ {
				p := packet.Packet{
					Tuple: packet.FiveTuple{
						SrcIP: packet.Addr(0x0a000000 + rng.IntN(8)), DstIP: 0xc0a80000 + packet.Addr(rng.IntN(4)<<16+rng.IntN(3)),
						SrcPort: uint16(40000 + rng.IntN(4)), DstPort: []uint16{22, 80}[rng.IntN(2)], Proto: packet.ProtoTCP,
					},
					Size:  uint16(64 + rng.IntN(2)*400),
					Flags: []packet.TCPFlags{packet.FlagSYN, packet.FlagACK, packet.FlagSYN | packet.FlagACK}[rng.IntN(3)],
				}
				ctx.Reset(&p)
				if tc.keyed {
					ctx.Hash = p.Tuple.Identity(&ctx.Key)
					stage.Apply(&ctx, stage.Classify(&p))
				} else {
					stage.Handle(&ctx)
				}
				a := twoPass(want, trWant, &p)
				if wantV := map[Action]tier.Verdict{Forward: tier.ForwardDirect, ToSNIC: tier.Continue, Drop: tier.DropAtSwitch}[a]; ctx.Verdict != wantV {
					t.Fatalf("packet %d: verdict %v, two-pass %v", i, ctx.Verdict, wantV)
				}
				switch {
				case i%4000 == 3999:
					if i == 11999 {
						// Re-programmed mid-run: the tracker's alignment is
						// decided again for the new installed slice.
						for _, sw := range []*Switch{got, want} {
							if err := sw.InstallQueries(installed[:2]); err != nil {
								t.Fatal(err)
							}
						}
					}
					cg, cw := sortedCandidates(trGot), sortedCandidates(trWant)
					if !reflect.DeepEqual(cg, cw) {
						t.Fatalf("interval at %d: candidates %v, two-pass %v", i, cg, cw)
					}
					trGot.seenFrom(cg)
					trWant.seenFrom(cw)
					if g, w := got.CloseInterval(trGot), want.CloseInterval(trWant); g != w {
						t.Fatalf("interval at %d: steered %d subsets, two-pass %d", i, g, w)
					}
				case i == 5000:
					// Between two closes: a fired subset is reclassified.
					n := got.SteerCount()
					got.Unsteer("ssh-conns", packet.Addr(0xc0a90000))
					want.Unsteer("ssh-conns", packet.Addr(0xc0a90000))
					if got.SteerCount() != n-1 || want.SteerCount() != n-1 {
						t.Fatalf("Unsteer left %d / %d entries of %d", got.SteerCount(), want.SteerCount(), n)
					}
				case i%97 == 0:
					_ = got.Whitelist(p.Key())
					_ = want.Whitelist(p.Key())
					// Whitelisting a present key again changes nothing.
					n := got.WhitelistCount()
					_ = got.Whitelist(p.Key())
					if got.WhitelistCount() != n || want.WhitelistCount() != n {
						t.Fatalf("whitelist holds %d / %d flows, want %d", got.WhitelistCount(), want.WhitelistCount(), n)
					}
				}
			}
			// Past 8 entries a half-full table has grown 8 → 16 → 32 slots.
			if n := got.WhitelistCount(); n <= 8 {
				t.Errorf("whitelist holds %d flows: the stream must take it across two resizes", n)
			}
			if g, w := got.ControlPlaneEntries(), want.ControlPlaneEntries(); !slices.Equal(g, w) {
				t.Errorf("tables differ:\n%v\ntwo-pass:\n%v", g, w)
			}
			if got.Stats() != want.Stats() {
				t.Errorf("stats %+v, two-pass %+v", got.Stats(), want.Stats())
			}
			st := got.Stats()
			if st.Dropped == 0 || st.WhitelistHits == 0 || st.Steered == 0 || st.Forwarded == 0 {
				t.Errorf("stream must exercise every decision: %+v", st)
			}
		})
	}
}

// seenFrom puts a Candidates result back, so the test can compare the
// sets and still close the interval on them.
func (t *Tracker) seenFrom(c map[string][]packet.Addr) {
	for i, q := range t.queries {
		for _, k := range c[q.Name] {
			t.seen[i].Put(addrHash(k), k)
		}
	}
}
