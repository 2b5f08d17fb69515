package p4switch

import (
	"reflect"
	"slices"
	"testing"

	"smartwatch/internal/packet"
	"smartwatch/internal/stats"
)

// refProcess is the per-query pipeline the compiled stages replaced,
// statement for statement — each query's filter evaluated in turn, then a
// second pass probing each matched query's steer set — reading the steer
// set by name where it read a per-position copy. It is the reference
// classify and apply are held to.
func (s *Switch) refProcess(p *packet.Packet, key *packet.FlowKey, hash uint64, tr *Tracker) Action {
	fused := tr != nil && tr.alignedWith(s.queries)
	blocked := s.blacklist.has(&p.Tuple.SrcIP, addrHash(p.Tuple.SrcIP))
	if tr != nil && (blocked || !fused) {
		tr.Observe(p)
	}
	// Blacklist: confirmed attackers are dropped at line rate.
	if blocked {
		s.stats.Dropped++
		s.stats.BlacklistHits++
		return Drop
	}

	// Query register updates (constant work per query). Each filter is
	// evaluated once per packet: matched bit i carries query i's outcome
	// to the steering tables below.
	var matched uint64
	for i := range s.queries {
		q := &s.queries[i]
		if !q.Filter.Match(p) {
			continue
		}
		matched |= 1 << uint(i)
		amt := q.amount(p)
		if amt == 0 {
			continue
		}
		k := q.key(p)
		if fused {
			tr.note(i, k)
		}
		slot := packet.HashAddr(k, uint64(i)+0x9e37) % uint64(len(s.regs[i]))
		s.regs[i][slot] += amt
		s.stats.RegisterOps++
	}

	// Whitelisted flows bypass steering (the hoverboard shortcut). A
	// caller that brought no identity has it derived here, so skip that
	// while the table is empty.
	if s.whitelist.n != 0 {
		if key == nil {
			var k packet.FlowKey
			key, hash = &k, p.Tuple.Identity(&k)
		}
		if s.whitelist.has(key, hash) {
			s.stats.Forwarded++
			s.stats.WhitelistHits++
			return Forward
		}
	}

	// Steering: packets of fired subsets go to the sNIC. The rule matches
	// both directions of the subset (mirror rules are installed for the
	// key field and its reverse) so responses transit the sNIC too.
	for i := range s.queries {
		q := &s.queries[i]
		keys := s.steer[q.Name]
		if keys.len() == 0 || matched&(1<<uint(i)) == 0 {
			continue
		}
		var fwd, rev packet.Addr
		if q.Key == KeySrcIP {
			fwd, rev = p.Tuple.SrcIP.Prefix(q.PrefixBits), p.Tuple.DstIP.Prefix(q.PrefixBits)
		} else {
			fwd, rev = p.Tuple.DstIP.Prefix(q.PrefixBits), p.Tuple.SrcIP.Prefix(q.PrefixBits)
		}
		if keys.has(&fwd, addrHash(fwd)) || keys.has(&rev, addrHash(rev)) {
			s.stats.Steered++
			return ToSNIC
		}
	}

	s.stats.Forwarded++
	return Forward
}

// script reads a byte string as choices; past its end every choice is 0.
type script struct{ b []byte }

func (r *script) intn(n int) int {
	if len(r.b) == 0 {
		return 0
	}
	v := int(r.b[0]) % n
	r.b = r.b[1:]
	return v
}

func pick[T any](r *script, xs ...T) T { return xs[r.intn(len(xs))] }

var refNames = []string{"a", "b", "c", "d", "e", "f", "g", "h"}

// addr draws from 10.0-3.0-3.0-3: every prefix length from /8 to /32
// both hits and misses among such a few addresses.
func (r *script) addr() packet.Addr {
	return packet.Addr(0x0a000000 | r.intn(4)<<16 | r.intn(4)<<8 | r.intn(4))
}

// querySet draws 1–8 queries under distinct names, each keeping a name of
// prev with even odds, over every Reduce, KeyField and filter field, with
// registers small enough to alias.
func (r *script) querySet(prev []Query) []Query {
	names := slices.Clone(refNames)
	for i, q := range prev {
		if j := slices.Index(names, q.Name); j >= 0 && r.intn(2) == 0 {
			names[i], names[j] = names[j], names[i]
		}
	}
	qs := make([]Query, 1+r.intn(8))
	for i := range qs {
		flags := []packet.TCPFlags{0, 0, packet.FlagSYN, packet.FlagACK, packet.FlagRST, packet.FlagSYN | packet.FlagACK}
		qs[i] = Query{
			Name: names[i],
			Filter: Predicate{
				Proto:       pick(r, 0, packet.ProtoTCP, packet.ProtoUDP),
				DstPort:     pick[uint16](r, 0, 0, 22, 80),
				ServicePort: pick[uint16](r, 0, 0, 0, 22, 40000),
				FlagsSet:    pick(r, flags...),
				FlagsClear:  pick(r, flags...),
				MinSize:     pick[uint16](r, 0, 0, 64, 100),
			},
			Key:        KeyField(r.intn(2)),
			PrefixBits: 8 + r.intn(25),
			Reduce:     Reduce(r.intn(4)),
			Threshold:  1 + uint64(r.intn(4)),
			Slots:      1 + r.intn(4),
		}
	}
	return qs
}

func (r *script) packet() packet.Packet {
	return packet.Packet{
		Tuple: packet.FiveTuple{
			SrcIP: r.addr(), DstIP: r.addr(),
			SrcPort: pick[uint16](r, 22, 80, 40000), DstPort: pick[uint16](r, 22, 80, 40000),
			Proto: pick(r, packet.ProtoTCP, packet.ProtoTCP, packet.ProtoUDP, packet.ProtoICMP),
		},
		Size: pick[uint16](r, 0, 64, 100, 1500),
		Flags: pick(r, 0, packet.FlagSYN, packet.FlagSYN|packet.FlagACK, packet.FlagACK,
			packet.FlagRST, packet.FlagRST|packet.FlagACK, packet.FlagFIN|packet.FlagACK),
	}
}

// checkAgainstReference runs the script's query set and operations on two
// switches, one through classify / apply and one through refProcess, and
// fails at the first difference in an action, the stats, the fired keys,
// a tracker's candidates, a control-plane error or the table dump.
// Packets are classified when they arrive but applied only at the next
// Steer, Unsteer, interval close or re-install — the batched drive's
// contract — so whitelist and blacklist changes land between a packet's
// classification and its application. It returns the switch's stats and
// how many keys fired and how many Steer calls failed.
func checkAgainstReference(t *testing.T, data []byte) (st SwitchStats, fired, steerErrs int) {
	r := &script{b: data}
	cfg := DefaultConfig()
	cfg.Stages = fixedStages + stagesPerQuery*8
	cfg.SRAMBytes = 8*4*bytesPerSlot + 16*r.intn(64)
	cfg.MaxWhitelist = 1 + r.intn(16)
	got, want := New(cfg), New(cfg)
	qs := r.querySet(nil)
	maxKeys := 1 + r.intn(8)
	trGot, trWant := NewTracker(qs, maxKeys), NewTracker(qs, maxKeys)
	same := func(what string, g, w any) {
		t.Helper()
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: compiled %v, reference %v", what, g, w)
		}
	}
	install := func(qs []Query) {
		same("InstallQueries error", got.InstallQueries(qs), want.InstallQueries(qs))
	}
	install(qs)
	steer := func(fk FiredKey) error {
		t.Helper()
		eg, ew := got.Steer(fk), want.Steer(fk)
		same("Steer error", eg, ew)
		if eg != nil {
			steerErrs++
		}
		return eg
	}

	type classified struct {
		p     packet.Packet
		c     Class
		keyed bool
	}
	var pending []classified
	var last packet.Packet // whitelist and blacklist draw on it half the time
	drain := func() {
		t.Helper()
		for _, pc := range pending {
			var key packet.FlowKey
			hash := pc.p.Tuple.Identity(&key)
			var g, w Action
			if pc.keyed {
				g, w = got.apply(&pc.p, &key, hash, trGot, pc.c), want.refProcess(&pc.p, &key, hash, trWant)
			} else {
				g, w = got.apply(&pc.p, nil, 0, trGot, pc.c), want.refProcess(&pc.p, nil, 0, trWant)
			}
			same("action of "+pc.p.Tuple.String(), g, w)
		}
		pending = pending[:0]
		same("stats", got.Stats(), want.Stats())
	}

	for op := 0; len(r.b) > 0 && op < 4096; op++ {
		switch r.intn(16) {
		default:
			p := r.packet()
			pending, last = append(pending, classified{p, got.classify(&p), r.intn(2) == 0}), p
		case 10:
			drain()
			fk := FiredKey{Query: pick(r, refNames...), Key: r.addr().Prefix(8 * (1 + r.intn(4)))}
			steer(fk)
		case 11:
			drain()
			name, key := pick(r, refNames...), r.addr().Prefix(8*(1+r.intn(4)))
			got.Unsteer(name, key)
			want.Unsteer(name, key)
		case 12:
			p := pick(r, last, r.packet())
			same("Whitelist error", got.Whitelist(p.Key()), want.Whitelist(p.Key()))
		case 13:
			a := pick(r, last.Tuple.SrcIP, r.addr())
			got.Blacklist(a)
			want.Blacklist(a)
		case 14:
			drain()
			cg, cw := trGot.Candidates(), trWant.Candidates()
			same("candidates", cg, cw)
			fg, fw := got.EndInterval(cg), want.EndInterval(cw)
			same("fired keys", fg, fw)
			fired += len(fg)
			for _, fk := range fg {
				if steer(fk) != nil {
					break
				}
			}
		case 15:
			drain()
			qs = r.querySet(got.Queries())
			install(qs)
			if r.intn(2) == 0 { // else the trackers keep their old set
				trGot, trWant = NewTracker(got.Queries(), maxKeys), NewTracker(want.Queries(), maxKeys)
			}
		}
	}
	drain()
	same("candidates", trGot.Candidates(), trWant.Candidates())
	same("table dump", got.ControlPlaneEntries(), want.ControlPlaneEntries())
	return got.Stats(), fired, steerErrs
}

// TestSwitchMatchesReference: random scripts, long enough to cross
// re-installs, interval closes and SRAM exhaustion, give the compiled
// switch and the per-query reference the same actions and state — and
// between them take every decision and hit the SRAM budget.
func TestSwitchMatchesReference(t *testing.T) {
	var sum SwitchStats
	var fired, steerErrs int
	for seed := range 300 {
		rng := stats.NewRand(uint64(seed))
		data := make([]byte, 1+rng.IntN(3000))
		for i := range data {
			data[i] = byte(rng.Uint64())
		}
		st, f, e := checkAgainstReference(t, data)
		sum.Steered += st.Steered
		sum.Dropped += st.Dropped
		sum.WhitelistHits += st.WhitelistHits
		sum.Forwarded += st.Forwarded
		sum.RegisterOps += st.RegisterOps
		fired, steerErrs = fired+f, steerErrs+e
	}
	if sum.Steered == 0 || sum.Dropped == 0 || sum.WhitelistHits == 0 || sum.Forwarded == 0 || sum.RegisterOps == 0 || fired == 0 || steerErrs == 0 {
		t.Errorf("scripts must exercise every decision: %+v, %d fired, %d Steer errors", sum, fired, steerErrs)
	}
}

func FuzzSwitchMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x07\x03\x02\x00\x01\x01\x00\x00\x00\x00\x02\x00\x03\x01\x00\x01\x02\x03\x04\x05\x0a\x0e\x0e\x0f"))
	f.Fuzz(func(t *testing.T, data []byte) { checkAgainstReference(t, data) })
}
