// Package packet defines the packet model shared by every SmartWatch
// component: the five-tuple flow key, TCP/UDP metadata, the symmetric flow
// hash used by the sNIC FlowCache, and a minimal Ethernet/IPv4/TCP/UDP wire
// codec used by the pcap tooling.
//
// Packets are value types. The datapath simulators process hundreds of
// millions of them, so the representation is deliberately flat (no pointers,
// no maps) and all hot-path operations avoid allocation. A Packet is 56
// bytes on every target: every vector, ring and held trace copies it, and
// its fields are ordered so that only the five-tuple's 3 trailing bytes and
// 2 after AuthOutcome are padding.
package packet

import (
	"fmt"
	"unsafe"
)

// Proto is an IP protocol number. Only the protocols exercised by the
// SmartWatch evaluation are named; any other value is carried through
// untouched.
type Proto uint8

// Named IP protocol numbers.
const (
	ProtoICMP Proto = 1
	ProtoTCP  Proto = 6
	ProtoUDP  Proto = 17
)

// String returns the conventional protocol mnemonic.
func (p Proto) String() string {
	switch p {
	case ProtoICMP:
		return "icmp"
	case ProtoTCP:
		return "tcp"
	case ProtoUDP:
		return "udp"
	default:
		return fmt.Sprintf("proto(%d)", uint8(p))
	}
}

// TCPFlags is the TCP flag byte (FIN..CWR).
type TCPFlags uint8

// TCP flag bits.
const (
	FlagFIN TCPFlags = 1 << iota
	FlagSYN
	FlagRST
	FlagPSH
	FlagACK
	FlagURG
	FlagECE
	FlagCWR
)

// Has reports whether every flag in mask is set.
func (f TCPFlags) Has(mask TCPFlags) bool { return f&mask == mask }

// String renders the set flags in tcpdump order, e.g. "SYN|ACK".
func (f TCPFlags) String() string {
	if f == 0 {
		return "none"
	}
	names := []struct {
		bit  TCPFlags
		name string
	}{
		{FlagSYN, "SYN"}, {FlagACK, "ACK"}, {FlagFIN, "FIN"}, {FlagRST, "RST"},
		{FlagPSH, "PSH"}, {FlagURG, "URG"}, {FlagECE, "ECE"}, {FlagCWR, "CWR"},
	}
	out := ""
	for _, n := range names {
		if f&n.bit != 0 {
			if out != "" {
				out += "|"
			}
			out += n.name
		}
	}
	return out
}

// AppInfo carries the small amount of application-layer metadata the
// detectors need. Real deployments obtain these from deep inspection on the
// host; the trace generators synthesise them. The zero value means "no
// application metadata".
type AppInfo struct {
	// TLSCertExpiry is the NotAfter time (virtual ns since trace start) of a
	// certificate observed in a TLS handshake packet; zero if none.
	TLSCertExpiry int64
	// PayloadSig is a content signature (hash of payload+dstIP) used by the
	// EarlyBird worm detector; zero if not computed.
	PayloadSig uint64
}

// AuthOutcome is the inferred result of an application-layer authentication
// attempt (SSH, FTP, Kerberos...).
type AuthOutcome uint8

// Authentication outcomes.
const (
	AuthNone AuthOutcome = iota // not an auth-completing packet
	AuthSuccess
	AuthFailure
)

// Packet is one observed packet. Timestamps are virtual nanoseconds since
// the start of the trace; the discrete-event simulators never consult the
// wall clock.
type Packet struct {
	// Ts is the packet arrival time in virtual nanoseconds.
	Ts int64
	// Tuple is the five-tuple flow key as observed on the wire (directional:
	// Src is the sender of this packet).
	Tuple FiveTuple
	// Size is the wire length in bytes (L2 onward).
	Size uint16
	// PayloadLen is the L4 payload length in bytes.
	PayloadLen uint16
	// Flags, Seq, Ack are TCP header fields; zero for non-TCP.
	Flags TCPFlags
	// AuthOutcome mirrors what a Zeek-style analyzer would infer from an
	// application handshake. It is set on the packet that completes the
	// authentication exchange. It is application metadata like App, kept
	// out of AppInfo because here it fills what would be padding.
	AuthOutcome AuthOutcome
	Seq         uint32
	Ack         uint32
	// App is optional application metadata (see AppInfo).
	App AppInfo
}

// Neither array length below may be negative, so the package compiles
// only while a Packet is 56 bytes: on 386, where int64 aligns to 4, too.
var _, _ = [unsafe.Sizeof(Packet{}) - 56]struct{}{}, [56 - unsafe.Sizeof(Packet{})]struct{}{}

// IsTCP reports whether the packet is TCP.
func (p *Packet) IsTCP() bool { return p.Tuple.Proto == ProtoTCP }

// IsUDP reports whether the packet is UDP.
func (p *Packet) IsUDP() bool { return p.Tuple.Proto == ProtoUDP }

// Reverse returns a copy of the packet with the directional tuple reversed.
// It is used by the trace generators to synthesise response packets.
func (p Packet) Reverse() Packet {
	p.Tuple = p.Tuple.Reverse()
	return p
}

// Key returns the canonical (direction-independent) flow key for this
// packet. Both directions of a session map to the same Key, which is what
// the FlowCache and all session-level detectors index on.
func (p *Packet) Key() FlowKey { return p.Tuple.Canonical() }
