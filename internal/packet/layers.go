package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
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
	// EmbedMeta writes the packet's AppInfo and AuthOutcome as a small TLV
	// at the start of the payload so synthetic traces round-trip
	// application metadata through standard pcap files. Decoders that
	// don't know the TLV see it as opaque payload bytes.
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

// frameLens returns the L4 header and IP payload lengths Encode writes for
// p — PayloadLen, grown to hold the metadata block when one is embedded —
// and the frame's wire length: Packet.Size when that is large enough to
// hold all headers plus the payload (the usual case for trace-generated
// packets), the minimum length otherwise.
func frameLens(p *Packet, opt EncodeOptions) (l4Hdr, payload, total int) {
	l4Hdr = udpHdrLen
	if p.Tuple.Proto == ProtoTCP {
		l4Hdr = tcpHdrLen
	}
	payload = int(p.PayloadLen)
	if embedsMeta(p, opt) {
		payload = max(payload, metaBlockLen)
	}
	return l4Hdr, payload, max(etherHdrLen+ipv4HdrLen+l4Hdr+payload, int(p.Size))
}

func embedsMeta(p *Packet, opt EncodeOptions) bool {
	return opt.EmbedMeta && (p.App != (AppInfo{}) || p.AuthOutcome != AuthNone)
}

// Encodable returns the error Encode would return for p, or nil: only TCP
// and UDP packets have a wire form.
func Encodable(p *Packet) error {
	switch p.Tuple.Proto {
	case ProtoTCP, ProtoUDP:
		return nil
	}
	return fmt.Errorf("packet: cannot encode protocol %s", p.Tuple.Proto)
}

// Encode serializes p as an Ethernet/IPv4/{TCP,UDP} frame, appends at most
// limit bytes of it to buf — a capture's snap length; the frame is never
// built past it — and returns the extended slice and the frame's full
// wire length. The IPv4 header checksum is computed; TCP/UDP
// checksums are computed over the synthetic payload.
func Encode(buf []byte, p *Packet, opt EncodeOptions, limit int) ([]byte, int, error) {
	if err := Encodable(p); err != nil {
		return buf, 0, err
	}
	l4HdrLen, payloadLen, total := frameLens(p, opt)

	// Every non-zero byte of a frame lies in its headers and metadata
	// block; they are built here and the rest of the frame is zero-fill.
	var hdr [etherHdrLen + ipv4HdrLen + tcpHdrLen + metaBlockLen]byte
	b := hdr[:]

	// Ethernet.
	copy(b[0:6], opt.DstMAC[:])
	copy(b[6:12], opt.SrcMAC[:])
	binary.BigEndian.PutUint16(b[12:14], etherTypeIPv4)

	// IPv4. Bytes beyond the IP total length (frame padding up to
	// Packet.Size) are an Ethernet trailer and not covered by IP.
	ip := b[etherHdrLen:]
	ipTotal := ipv4HdrLen + l4HdrLen + payloadLen
	ip[0] = 0x45 // version 4, IHL 5
	binary.BigEndian.PutUint16(ip[2:4], uint16(ipTotal))
	binary.BigEndian.PutUint16(ip[6:8], 0x4000)
	ip[8] = 64 // TTL
	ip[9] = byte(p.Tuple.Proto)
	binary.BigEndian.PutUint32(ip[12:16], uint32(p.Tuple.SrcIP))
	binary.BigEndian.PutUint32(ip[16:20], uint32(p.Tuple.DstIP))
	binary.BigEndian.PutUint16(ip[10:12], ipChecksum(ip[:ipv4HdrLen]))

	// L4.
	l4 := ip[ipv4HdrLen:]
	ckOff := 16 // TCP checksum offset
	binary.BigEndian.PutUint16(l4[0:2], p.Tuple.SrcPort)
	binary.BigEndian.PutUint16(l4[2:4], p.Tuple.DstPort)
	if p.Tuple.Proto == ProtoTCP {
		binary.BigEndian.PutUint32(l4[4:8], p.Seq)
		binary.BigEndian.PutUint32(l4[8:12], p.Ack)
		l4[12] = 5 << 4 // data offset
		l4[13] = byte(p.Flags)
		binary.BigEndian.PutUint16(l4[14:16], 65535) // window
	} else {
		binary.BigEndian.PutUint16(l4[4:6], uint16(ipTotal-ipv4HdrLen))
		ckOff = 6
	}

	written := l4HdrLen
	if embedsMeta(p, opt) {
		payload := l4[l4HdrLen:]
		binary.BigEndian.PutUint32(payload[0:4], metaMagic)
		binary.BigEndian.PutUint64(payload[4:12], uint64(p.App.TLSCertExpiry))
		binary.BigEndian.PutUint64(payload[12:20], p.App.PayloadSig)
		payload[20] = byte(p.AuthOutcome)
		written += metaBlockLen
	}

	// L4 checksum over pseudo-header + segment. Past the header and the
	// metadata block the segment is zero-fill, which adds nothing to a
	// one's-complement sum, so only the written bytes are summed.
	ck := l4Checksum(p.Tuple.SrcIP, p.Tuple.DstIP, p.Tuple.Proto, ipTotal-ipv4HdrLen, l4[:written])
	binary.BigEndian.PutUint16(l4[ckOff:ckOff+2], ck)

	n := min(total, limit)
	off := len(buf)
	buf = slices.Grow(buf, n)[:off+n]
	built := copy(buf[off:], hdr[:etherHdrLen+ipv4HdrLen+written])
	clear(buf[off+built:])
	return buf, total, nil
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
		p.AuthOutcome = AuthOutcome(payload[20])
	}
	return nil
}

// ipChecksum computes the RFC 791 header checksum.
func ipChecksum(hdr []byte) uint16 {
	return finishChecksum(sumBytes(0, hdr))
}

// l4Checksum computes the TCP/UDP checksum with the IPv4 pseudo-header of
// a segLen-byte segment whose bytes past head are all zero. The checksum
// field inside head must be zero.
func l4Checksum(src, dst Addr, proto Proto, segLen int, head []byte) uint16 {
	// The pseudo-header's 16-bit words — addresses, zero|protocol, length —
	// summed from the fields.
	pseudo := uint32(src>>16) + uint32(src&0xffff) + uint32(dst>>16) + uint32(dst&0xffff) +
		uint32(proto) + uint32(uint16(segLen))
	sum := sumBytes(pseudo, head)
	ck := finishChecksum(sum)
	if ck == 0 && proto == ProtoUDP {
		ck = 0xffff // UDP: zero means "no checksum"
	}
	return ck
}

// sumBytes adds b, as big-endian 16-bit words (an odd last byte padded
// with zero), to the one's-complement partial sum. It adds 32-bit words,
// two per 8-byte step, into 64 bits and folds the total back to 32: since
// 2^16 ≡ 1 (mod 2^16-1), any grouping of the words into wider ones sums
// to the same checksum (RFC 1071 §2(B)), and the total is zero only when
// every byte is.
func sumBytes(sum uint32, b []byte) uint32 {
	s := uint64(sum)
	for ; len(b) >= 8; b = b[8:] {
		v := binary.BigEndian.Uint64(b)
		s += v>>32 + v&0xffffffff
	}
	for ; len(b) >= 2; b = b[2:] {
		s += uint64(binary.BigEndian.Uint16(b))
	}
	if len(b) == 1 {
		s += uint64(b[0]) << 8
	}
	s = s&0xffffffff + s>>32
	return uint32(s&0xffffffff + s>>32)
}

func finishChecksum(sum uint32) uint16 {
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}
