package packet

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestProtoString(t *testing.T) {
	cases := []struct {
		p    Proto
		want string
	}{
		{ProtoTCP, "tcp"},
		{ProtoUDP, "udp"},
		{ProtoICMP, "icmp"},
		{Proto(99), "proto(99)"},
	}
	for _, c := range cases {
		if got := c.p.String(); got != c.want {
			t.Errorf("Proto(%d).String() = %q, want %q", c.p, got, c.want)
		}
	}
}

func TestTCPFlags(t *testing.T) {
	f := FlagSYN | FlagACK
	if !f.Has(FlagSYN) || !f.Has(FlagACK) || !f.Has(FlagSYN|FlagACK) {
		t.Errorf("Has failed for %v", f)
	}
	if f.Has(FlagRST) {
		t.Errorf("Has(RST) true for %v", f)
	}
	if got := f.String(); got != "SYN|ACK" {
		t.Errorf("String() = %q, want SYN|ACK", got)
	}
	if got := TCPFlags(0).String(); got != "none" {
		t.Errorf("zero flags String() = %q", got)
	}
}

func TestAddrRoundTrip(t *testing.T) {
	cases := []string{"0.0.0.0", "10.1.2.3", "192.168.255.1", "255.255.255.255"}
	for _, s := range cases {
		a, err := ParseAddr(s)
		if err != nil {
			t.Fatalf("ParseAddr(%q): %v", s, err)
		}
		if got := a.String(); got != s {
			t.Errorf("round trip %q -> %q", s, got)
		}
	}
	for _, bad := range []string{"", "1.2.3", "1.2.3.4.5", "256.1.1.1", "a.b.c.d"} {
		if _, err := ParseAddr(bad); err == nil {
			t.Errorf("ParseAddr(%q) succeeded, want error", bad)
		}
	}
}

func TestAddrPrefix(t *testing.T) {
	a := MustParseAddr("10.20.30.40")
	cases := []struct {
		bits int
		want string
	}{
		{32, "10.20.30.40"},
		{24, "10.20.30.0"},
		{16, "10.20.0.0"},
		{8, "10.0.0.0"},
		{0, "0.0.0.0"},
	}
	for _, c := range cases {
		if got := a.Prefix(c.bits).String(); got != c.want {
			t.Errorf("Prefix(%d) = %s, want %s", c.bits, got, c.want)
		}
	}
	if a.Prefix(40) != a {
		t.Errorf("Prefix(>32) should be identity")
	}
	if a.Prefix(-1) != 0 {
		t.Errorf("Prefix(<0) should be zero")
	}
}

func TestCanonicalSymmetry(t *testing.T) {
	fwd := FiveTuple{
		SrcIP: MustParseAddr("10.0.0.1"), DstIP: MustParseAddr("10.0.0.2"),
		SrcPort: 1234, DstPort: 22, Proto: ProtoTCP,
	}
	rev := fwd.Reverse()
	if fwd.Canonical() != rev.Canonical() {
		t.Errorf("canonical keys differ: %v vs %v", fwd.Canonical(), rev.Canonical())
	}
	if fwd.SymmetricHash() != rev.SymmetricHash() {
		t.Errorf("symmetric hashes differ")
	}
	if fwd.Forward() == rev.Forward() {
		t.Errorf("exactly one direction must be Forward")
	}
}

// Property: hashing the canonical tuple is direction independent for all
// tuples, and the canonical key round-trips through Tuple().Canonical().
func TestCanonicalProperties(t *testing.T) {
	f := func(sip, dip uint32, sp, dp uint16, proto uint8) bool {
		tu := FiveTuple{SrcIP: Addr(sip), DstIP: Addr(dip), SrcPort: sp, DstPort: dp, Proto: Proto(proto)}
		k := tu.Canonical()
		if tu.Reverse().Canonical() != k {
			return false
		}
		if tu.SymmetricHash() != tu.Reverse().SymmetricHash() {
			return false
		}
		// Canonical ordering invariant.
		a := uint64(k.LoIP)<<16 | uint64(k.LoPort)
		b := uint64(k.HiIP)<<16 | uint64(k.HiPort)
		if a > b {
			return false
		}
		return k.Tuple().Canonical() == k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestIdentity: Identity's key is the smaller-endpoint-first key written
// out with a branch (how Canonical read before it went through Identity),
// its return value is that key's Hash, and the reversed tuple gives both
// again — over random tuples of every protocol, equal endpoints, and equal
// addresses that differ in port only. Canonical, Key and SymmetricHash
// are the same values.
func TestIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 250000; i++ {
		tu := FiveTuple{
			SrcIP: Addr(rng.Uint32()), DstIP: Addr(rng.Uint32()),
			SrcPort: uint16(rng.Uint32()), DstPort: uint16(rng.Uint32()), Proto: Proto(i),
		}
		switch i % 5 {
		case 1:
			tu.DstIP = tu.SrcIP
		case 2:
			tu.DstIP, tu.DstPort = tu.SrcIP, tu.SrcPort
		case 3:
			tu.DstIP, tu.DstPort = tu.SrcIP, tu.SrcPort+1
		}
		want := FlowKey{LoIP: tu.DstIP, HiIP: tu.SrcIP, LoPort: tu.DstPort, HiPort: tu.SrcPort, Proto: tu.Proto}
		if uint64(tu.SrcIP)<<16|uint64(tu.SrcPort) <= uint64(tu.DstIP)<<16|uint64(tu.DstPort) {
			want = FlowKey{LoIP: tu.SrcIP, HiIP: tu.DstIP, LoPort: tu.SrcPort, HiPort: tu.DstPort, Proto: tu.Proto}
		}
		rev := tu.Reverse()
		got, gotRev := FlowKey{LoIP: 1, HiIP: 2, LoPort: 3, HiPort: 4, Proto: 5}, FlowKey{}
		h, hRev := tu.Identity(&got), rev.Identity(&gotRev)
		if got != want || gotRev != want || h != want.Hash() || hRev != h {
			t.Fatalf("%v: Identity = %v / %#x, reversed %v / %#x, want %v / %#x", tu, got, h, gotRev, hRev, want, want.Hash())
		}
		p := Packet{Tuple: tu}
		if tu.Canonical() != want || p.Key() != want || tu.SymmetricHash() != h || p.Hash() != h {
			t.Fatalf("%v: Canonical / Key / SymmetricHash / Hash disagree with Identity", tu)
		}
	}
}

// Property: distinct flow keys rarely collide under the 64-bit hash, and the
// hash has decent avalanche (flipping one port bit changes ~half the output
// bits on average).
func TestHashQuality(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	seen := make(map[uint64]FlowKey)
	for i := 0; i < 200000; i++ {
		tu := FiveTuple{
			SrcIP: Addr(rng.Uint32()), DstIP: Addr(rng.Uint32()),
			SrcPort: uint16(rng.Uint32()), DstPort: uint16(rng.Uint32()),
			Proto: ProtoTCP,
		}
		k := tu.Canonical()
		h := k.Hash()
		if prev, ok := seen[h]; ok && prev != k {
			t.Fatalf("collision after %d keys: %v vs %v", i, prev, k)
		}
		seen[h] = k
	}

	var totalFlips, trials int
	for i := 0; i < 2000; i++ {
		k := FlowKey{LoIP: Addr(rng.Uint32()), HiIP: Addr(rng.Uint32()), LoPort: uint16(rng.Uint32()), HiPort: uint16(rng.Uint32()), Proto: ProtoTCP}
		h1 := k.Hash()
		k2 := k
		k2.LoPort ^= 1 << (uint(i) % 16)
		h2 := k2.Hash()
		totalFlips += popcount64(h1 ^ h2)
		trials++
	}
	avg := float64(totalFlips) / float64(trials)
	if avg < 24 || avg > 40 {
		t.Errorf("poor avalanche: avg %0.1f of 64 bits flipped, want ~32", avg)
	}
}

func popcount64(x uint64) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

func TestHashSeedIndependence(t *testing.T) {
	k := FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: ProtoTCP}.Canonical()
	if k.HashSeed(1) == k.HashSeed(2) {
		t.Errorf("different seeds must give different hashes")
	}
	if k.HashSeed(7) != k.HashSeed(7) {
		t.Errorf("hash must be deterministic")
	}
}

func TestPacketHelpers(t *testing.T) {
	p := Packet{Tuple: FiveTuple{SrcIP: 9, DstIP: 1, SrcPort: 50000, DstPort: 22, Proto: ProtoTCP}}
	if !p.IsTCP() || p.IsUDP() {
		t.Errorf("IsTCP/IsUDP wrong")
	}
	r := p.Reverse()
	if r.Tuple.SrcIP != 1 || r.Tuple.DstPort != 50000 {
		t.Errorf("Reverse wrong: %v", r.Tuple)
	}
	if p.Key() != r.Key() || p.Hash() != r.Hash() {
		t.Errorf("Key/Hash must be symmetric")
	}
}
