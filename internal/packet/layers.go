package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Wire codec: a minimal Ethernet/IPv4/TCP/UDP serializer and decoder in the
// style of gopacket's layer stack, sized for what the SmartWatch tooling
// needs — writing synthetic traces as valid pcap files and reading them (or
// real captures) back. Payload content beyond the L4 header is synthetic:
// PayloadLen zero-filled bytes, optionally prefixed by a metadata TLV (see
// EncodeOptions.EmbedMeta).

const (
	etherTypeIPv4  = 0x0800
	etherHdrLen    = 14
	ipv4HdrLen     = 20
	tcpHdrLen      = 20
	udpHdrLen      = 8
	metaMagic      = 0x53574d31 // "SWM1": SmartWatch metadata TLV marker
	metaBlockLen   = 4 + 8 + 8 + 1
	maxDecodedSize = 1<<16 - 1 // Packet.Size is 16 bits: longer frames saturate
)

// EncodeOptions controls packet serialization.
type EncodeOptions struct {
	// EmbedMeta writes the packet's AppInfo as a small TLV at the start of
	// the payload so synthetic traces round-trip application metadata
	// through standard pcap files. Decoders that don't know the TLV see it
	// as opaque payload bytes.
	EmbedMeta bool
	// SrcMAC/DstMAC fill the Ethernet header; zero MACs are fine for
	// synthetic traces.
	SrcMAC, DstMAC [6]byte
}

// ErrTruncated is returned when a buffer is too short for the layers it
// claims to contain.
var ErrTruncated = errors.New("packet: truncated")

// ErrNotIPv4 is returned for frames whose EtherType is not IPv4.
var ErrNotIPv4 = errors.New("packet: not an IPv4 frame")

// WireLen returns the on-wire frame length Encode will produce for p.
// Packet.Size is honoured when it is large enough to hold all headers plus
// PayloadLen (the usual case for trace-generated packets); otherwise the
// minimum length is used.
func WireLen(p *Packet, opt EncodeOptions) int {
	l4 := udpHdrLen
	if p.Tuple.Proto == ProtoTCP {
		l4 = tcpHdrLen
	}
	payload := int(p.PayloadLen)
	if opt.EmbedMeta && p.App != (AppInfo{}) && payload < metaBlockLen {
		payload = metaBlockLen
	}
	n := etherHdrLen + ipv4HdrLen + l4 + payload
	if int(p.Size) > n {
		n = int(p.Size)
	}
	return n
}

// Encode serializes p as an Ethernet/IPv4/{TCP,UDP} frame appended to buf
// and returns the extended slice. The IPv4 header checksum is computed;
// TCP/UDP checksums are computed over the synthetic payload.
func Encode(buf []byte, p *Packet, opt EncodeOptions) ([]byte, error) {
	switch p.Tuple.Proto {
	case ProtoTCP, ProtoUDP:
	default:
		return buf, fmt.Errorf("packet: cannot encode protocol %s", p.Tuple.Proto)
	}
	total := WireLen(p, opt)
	off := len(buf)
	buf = append(buf, make([]byte, total)...)
	b := buf[off:]

	// Ethernet.
	copy(b[0:6], opt.DstMAC[:])
	copy(b[6:12], opt.SrcMAC[:])
	binary.BigEndian.PutUint16(b[12:14], etherTypeIPv4)

	// IPv4. Bytes beyond the IP total length (frame padding up to
	// Packet.Size) are an Ethernet trailer and not covered by IP.
	ip := b[etherHdrLen:]
	l4HdrLen := tcpHdrLen
	if p.Tuple.Proto == ProtoUDP {
		l4HdrLen = udpHdrLen
	}
	payloadLen := int(p.PayloadLen)
	if opt.EmbedMeta && p.App != (AppInfo{}) && payloadLen < metaBlockLen {
		payloadLen = metaBlockLen
	}
	ipTotal := ipv4HdrLen + l4HdrLen + payloadLen
	ip[0] = 0x45 // version 4, IHL 5
	ip[1] = 0
	binary.BigEndian.PutUint16(ip[2:4], uint16(ipTotal))
	binary.BigEndian.PutUint16(ip[4:6], 0) // identification
	binary.BigEndian.PutUint16(ip[6:8], 0x4000)
	ip[8] = 64 // TTL
	ip[9] = byte(p.Tuple.Proto)
	binary.BigEndian.PutUint32(ip[12:16], uint32(p.Tuple.SrcIP))
	binary.BigEndian.PutUint32(ip[16:20], uint32(p.Tuple.DstIP))
	binary.BigEndian.PutUint16(ip[10:12], 0)
	binary.BigEndian.PutUint16(ip[10:12], ipChecksum(ip[:ipv4HdrLen]))

	// L4.
	l4 := ip[ipv4HdrLen:]
	var payload []byte
	switch p.Tuple.Proto {
	case ProtoTCP:
		binary.BigEndian.PutUint16(l4[0:2], p.Tuple.SrcPort)
		binary.BigEndian.PutUint16(l4[2:4], p.Tuple.DstPort)
		binary.BigEndian.PutUint32(l4[4:8], p.Seq)
		binary.BigEndian.PutUint32(l4[8:12], p.Ack)
		l4[12] = 5 << 4 // data offset
		l4[13] = byte(p.Flags)
		binary.BigEndian.PutUint16(l4[14:16], 65535) // window
		payload = l4[tcpHdrLen:]
	case ProtoUDP:
		binary.BigEndian.PutUint16(l4[0:2], p.Tuple.SrcPort)
		binary.BigEndian.PutUint16(l4[2:4], p.Tuple.DstPort)
		binary.BigEndian.PutUint16(l4[4:6], uint16(ipTotal-ipv4HdrLen))
		payload = l4[udpHdrLen:]
	}

	if opt.EmbedMeta && p.App != (AppInfo{}) && len(payload) >= metaBlockLen {
		binary.BigEndian.PutUint32(payload[0:4], metaMagic)
		binary.BigEndian.PutUint64(payload[4:12], uint64(p.App.TLSCertExpiry))
		binary.BigEndian.PutUint64(payload[12:20], p.App.PayloadSig)
		payload[20] = byte(p.App.AuthOutcome)
	}

	// L4 checksum over pseudo-header + segment.
	seg := ip[ipv4HdrLen:ipTotal]
	var ck uint16
	ckOff := 16 // TCP checksum offset
	if p.Tuple.Proto == ProtoUDP {
		ckOff = 6
	}
	binary.BigEndian.PutUint16(l4[ckOff:ckOff+2], 0)
	ck = l4Checksum(p.Tuple.SrcIP, p.Tuple.DstIP, p.Tuple.Proto, seg)
	binary.BigEndian.PutUint16(l4[ckOff:ckOff+2], ck)
	return buf, nil
}

// Decode parses an Ethernet/IPv4/{TCP,UDP} frame into a Packet; see
// DecodeInto.
func Decode(b []byte, ts int64, origLen int) (p Packet, err error) {
	err = DecodeInto(&p, b, ts, origLen)
	return p, err
}

// DecodeInto parses an Ethernet/IPv4/{TCP,UDP} frame into *p, overwriting
// every field, and does not retain b. ts is the capture timestamp (virtual
// ns). origLen is the original wire length as recorded by the capture
// (frames may be truncated/snapped); it becomes Packet.Size, saturated at
// 65535 (GRO/TSO captures record longer frames), or len(b) when the
// capture recorded none. Unknown or non-IPv4 frames return ErrNotIPv4;
// short buffers return ErrTruncated.
func DecodeInto(p *Packet, b []byte, ts int64, origLen int) error {
	if origLen <= 0 {
		origLen = len(b)
	}
	*p = Packet{Ts: ts, Size: uint16(min(origLen, maxDecodedSize))}
	if len(b) < etherHdrLen+ipv4HdrLen {
		return ErrTruncated
	}
	if binary.BigEndian.Uint16(b[12:14]) != etherTypeIPv4 {
		return ErrNotIPv4
	}
	ip := b[etherHdrLen:]
	ihl := int(ip[0]&0x0f) * 4
	if ip[0]>>4 != 4 || ihl < ipv4HdrLen || len(ip) < ihl {
		return ErrTruncated
	}
	p.Tuple.Proto = Proto(ip[9])
	p.Tuple.SrcIP = Addr(binary.BigEndian.Uint32(ip[12:16]))
	p.Tuple.DstIP = Addr(binary.BigEndian.Uint32(ip[16:20]))
	ipTotal := int(binary.BigEndian.Uint16(ip[2:4]))

	l4 := ip[ihl:]
	var payload []byte
	switch p.Tuple.Proto {
	case ProtoTCP:
		if len(l4) < tcpHdrLen {
			return ErrTruncated
		}
		p.Tuple.SrcPort = binary.BigEndian.Uint16(l4[0:2])
		p.Tuple.DstPort = binary.BigEndian.Uint16(l4[2:4])
		p.Seq = binary.BigEndian.Uint32(l4[4:8])
		p.Ack = binary.BigEndian.Uint32(l4[8:12])
		p.Flags = TCPFlags(l4[13])
		dataOff := int(l4[12]>>4) * 4
		if dataOff < tcpHdrLen || dataOff > len(l4) {
			return ErrTruncated
		}
		if ipTotal >= ihl+dataOff {
			p.PayloadLen = uint16(ipTotal - ihl - dataOff)
		}
		payload = l4[dataOff:]
	case ProtoUDP:
		if len(l4) < udpHdrLen {
			return ErrTruncated
		}
		p.Tuple.SrcPort = binary.BigEndian.Uint16(l4[0:2])
		p.Tuple.DstPort = binary.BigEndian.Uint16(l4[2:4])
		udpLen := int(binary.BigEndian.Uint16(l4[4:6]))
		if udpLen >= udpHdrLen {
			p.PayloadLen = uint16(udpLen - udpHdrLen)
		}
		payload = l4[udpHdrLen:]
	default:
		// Other protocols (ICMP...) carry no port info; the five-tuple is
		// the address pair plus protocol.
		return nil
	}

	if len(payload) >= metaBlockLen && binary.BigEndian.Uint32(payload[0:4]) == metaMagic {
		p.App.TLSCertExpiry = int64(binary.BigEndian.Uint64(payload[4:12]))
		p.App.PayloadSig = binary.BigEndian.Uint64(payload[12:20])
		p.App.AuthOutcome = AuthOutcome(payload[20])
	}
	return nil
}

// ipChecksum computes the RFC 791 header checksum.
func ipChecksum(hdr []byte) uint16 {
	return finishChecksum(sumBytes(0, hdr))
}

// l4Checksum computes the TCP/UDP checksum with the IPv4 pseudo-header.
func l4Checksum(src, dst Addr, proto Proto, seg []byte) uint16 {
	var pseudo [12]byte
	binary.BigEndian.PutUint32(pseudo[0:4], uint32(src))
	binary.BigEndian.PutUint32(pseudo[4:8], uint32(dst))
	pseudo[9] = byte(proto)
	binary.BigEndian.PutUint16(pseudo[10:12], uint16(len(seg)))
	sum := sumBytes(0, pseudo[:])
	sum = sumBytes(sum, seg)
	ck := finishChecksum(sum)
	if ck == 0 && proto == ProtoUDP {
		ck = 0xffff // UDP: zero means "no checksum"
	}
	return ck
}

func sumBytes(sum uint32, b []byte) uint32 {
	for len(b) >= 2 {
		sum += uint32(binary.BigEndian.Uint16(b[:2]))
		b = b[2:]
	}
	if len(b) == 1 {
		sum += uint32(b[0]) << 8
	}
	return sum
}

func finishChecksum(sum uint32) uint16 {
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}
