package packet

import (
	"fmt"
	"strconv"
	"strings"
)

// Addr is an IPv4 address in host byte order. The SmartWatch evaluation
// (CAIDA, Wisconsin DC, Zeek traces) is IPv4-only, and a 32-bit value keeps
// the flow key flat and hashable without allocation.
type Addr uint32

// AddrFrom4 builds an Addr from four octets in network order (a.b.c.d).
func AddrFrom4(a, b, c, d byte) Addr {
	return Addr(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// Octets returns the four dotted-quad octets of the address.
func (a Addr) Octets() (byte, byte, byte, byte) {
	return byte(a >> 24), byte(a >> 16), byte(a >> 8), byte(a)
}

// String renders the address in dotted-quad form.
func (a Addr) String() string {
	b1, b2, b3, b4 := a.Octets()
	return fmt.Sprintf("%d.%d.%d.%d", b1, b2, b3, b4)
}

// ParseAddr parses a dotted-quad IPv4 address.
func ParseAddr(s string) (Addr, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, fmt.Errorf("packet: invalid IPv4 address %q", s)
	}
	var a Addr
	for _, p := range parts {
		v, err := strconv.ParseUint(p, 10, 8)
		if err != nil {
			return 0, fmt.Errorf("packet: invalid IPv4 address %q: %v", s, err)
		}
		a = a<<8 | Addr(v)
	}
	return a, nil
}

// MustParseAddr is ParseAddr that panics on error; for tests and tables.
func MustParseAddr(s string) Addr {
	a, err := ParseAddr(s)
	if err != nil {
		panic(err)
	}
	return a
}

// Prefix masks the address to its leading bits, e.g. a.Prefix(16) keeps the
// /16 network. bits must be in [0,32]. This is the primitive behind the
// P4 switch's iterative query refinement (dIP/8 -> /16 -> /32).
func (a Addr) Prefix(bits int) Addr {
	if bits <= 0 {
		return 0
	}
	if bits >= 32 {
		return a
	}
	return a &^ (1<<(32-uint(bits)) - 1)
}

// FiveTuple is the directional flow key: the Src fields identify the sender
// of the packet carrying it.
type FiveTuple struct {
	SrcIP   Addr
	DstIP   Addr
	SrcPort uint16
	DstPort uint16
	Proto   Proto
}

// Reverse swaps source and destination.
func (t FiveTuple) Reverse() FiveTuple {
	t.SrcIP, t.DstIP = t.DstIP, t.SrcIP
	t.SrcPort, t.DstPort = t.DstPort, t.SrcPort
	return t
}

// String renders "src:port > dst:port proto".
func (t FiveTuple) String() string {
	return fmt.Sprintf("%s:%d > %s:%d %s", t.SrcIP, t.SrcPort, t.DstIP, t.DstPort, t.Proto)
}

// FlowKey is the canonical, direction-independent session key: the
// numerically smaller (ip,port) endpoint is always stored first. Both
// directions of a connection produce the same FlowKey, matching the paper's
// requirement (§4, "Symmetric Hash Function") that reverse-direction packets
// land in the same FlowCache bucket.
type FlowKey struct {
	LoIP   Addr
	HiIP   Addr
	LoPort uint16
	HiPort uint16
	Proto  Proto
}

// Identity writes the tuple's direction-independent FlowKey to *k and
// returns that key's Hash, both from the same two registers: the endpoints
// packed as ip<<16|port are ordered with min/max (conditional moves — the
// direction of a packet is a coin flip no branch predictor learns), and
// nothing is read back from *k. Both directions of a session produce the
// same key and hash.
func (t *FiveTuple) Identity(k *FlowKey) uint64 {
	a := uint64(t.SrcIP)<<16 | uint64(t.SrcPort)
	b := uint64(t.DstIP)<<16 | uint64(t.DstPort)
	lo, hi := min(a, b), max(a, b)
	k.LoIP, k.LoPort = Addr(lo>>16), uint16(lo)
	k.HiIP, k.HiPort = Addr(hi>>16), uint16(hi)
	k.Proto = t.Proto
	h := mix64(lo>>16<<32 | hi>>16)
	return mix64(h ^ (lo&0xffff<<32 | hi&0xffff<<16 | uint64(t.Proto)))
}

// Canonical returns the direction-independent FlowKey for the tuple.
func (t FiveTuple) Canonical() (k FlowKey) {
	t.Identity(&k)
	return k
}

// Forward reports whether the tuple's Src endpoint is the canonical Lo
// endpoint, i.e. whether a packet with this tuple travels in the session's
// canonical "forward" direction.
func (t FiveTuple) Forward() bool {
	a := uint64(t.SrcIP)<<16 | uint64(t.SrcPort)
	b := uint64(t.DstIP)<<16 | uint64(t.DstPort)
	return a <= b
}

// Tuple reconstructs the forward-direction FiveTuple from the key.
func (k FlowKey) Tuple() FiveTuple {
	return FiveTuple{SrcIP: k.LoIP, DstIP: k.HiIP, SrcPort: k.LoPort, DstPort: k.HiPort, Proto: k.Proto}
}

// String renders the canonical session key.
func (k FlowKey) String() string {
	return fmt.Sprintf("%s:%d <> %s:%d %s", k.LoIP, k.LoPort, k.HiIP, k.HiPort, k.Proto)
}
