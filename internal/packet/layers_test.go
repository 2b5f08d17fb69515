package packet

import (
	"encoding/binary"
	"math"
	"testing"
	"testing/quick"
)

func samplePacket() Packet {
	return Packet{
		Ts: 123456789,
		Tuple: FiveTuple{
			SrcIP: MustParseAddr("10.1.2.3"), DstIP: MustParseAddr("192.168.0.9"),
			SrcPort: 44321, DstPort: 443, Proto: ProtoTCP,
		},
		Size: 128, PayloadLen: 64,
		Flags: FlagPSH | FlagACK, Seq: 1000, Ack: 2000,
	}
}

// decode is DecodeInto into a fresh Packet.
func decode(b []byte, ts int64, origLen int) (p Packet, err error) {
	err = DecodeInto(&p, b, ts, origLen)
	return p, err
}

func TestEncodeDecodeTCP(t *testing.T) {
	p := samplePacket()
	buf, _, err := Encode(nil, &p, EncodeOptions{}, math.MaxInt)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != int(p.Size) {
		t.Fatalf("encoded %d bytes, want %d", len(buf), p.Size)
	}
	got, err := decode(buf, p.Ts, len(buf))
	if err != nil {
		t.Fatal(err)
	}
	if got.Tuple != p.Tuple || got.Flags != p.Flags || got.Seq != p.Seq || got.Ack != p.Ack {
		t.Errorf("decode mismatch: got %+v want %+v", got, p)
	}
	if got.PayloadLen != p.PayloadLen {
		t.Errorf("PayloadLen = %d, want %d", got.PayloadLen, p.PayloadLen)
	}
	if got.Size != p.Size {
		t.Errorf("Size = %d, want %d", got.Size, p.Size)
	}
}

func TestEncodeDecodeUDP(t *testing.T) {
	p := Packet{
		Ts:    1,
		Tuple: FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 5353, DstPort: 53, Proto: ProtoUDP},
		Size:  90, PayloadLen: 48,
	}
	buf, _, err := Encode(nil, &p, EncodeOptions{}, math.MaxInt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decode(buf, 1, len(buf))
	if err != nil {
		t.Fatal(err)
	}
	if got.Tuple != p.Tuple || got.PayloadLen != p.PayloadLen {
		t.Errorf("decode mismatch: got %+v want %+v", got, p)
	}
}

func TestEncodeMetaRoundTrip(t *testing.T) {
	p := samplePacket()
	p.App = AppInfo{TLSCertExpiry: 42, PayloadSig: 0xdeadbeef}
	p.AuthOutcome = AuthFailure
	buf, _, err := Encode(nil, &p, EncodeOptions{EmbedMeta: true}, math.MaxInt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decode(buf, p.Ts, len(buf))
	if err != nil {
		t.Fatal(err)
	}
	if got.App != p.App || got.AuthOutcome != p.AuthOutcome {
		t.Errorf("App = %+v, AuthOutcome %d, want %+v, %d", got.App, got.AuthOutcome, p.App, p.AuthOutcome)
	}
}

func TestEncodeMetaGrowsShortPayload(t *testing.T) {
	p := samplePacket()
	p.PayloadLen = 0
	p.Size = 0
	p.AuthOutcome = AuthSuccess
	buf, _, err := Encode(nil, &p, EncodeOptions{EmbedMeta: true}, math.MaxInt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decode(buf, 0, len(buf))
	if err != nil {
		t.Fatal(err)
	}
	if got.AuthOutcome != AuthSuccess {
		t.Errorf("AuthOutcome lost for zero-payload packet")
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := decode(make([]byte, 10), 0, 10); err != ErrTruncated {
		t.Errorf("short frame: err = %v, want ErrTruncated", err)
	}
	frame := make([]byte, 60)
	binary.BigEndian.PutUint16(frame[12:14], 0x86dd) // IPv6
	if _, err := decode(frame, 0, 60); err != ErrNotIPv4 {
		t.Errorf("IPv6 frame: err = %v, want ErrNotIPv4", err)
	}
	p := samplePacket()
	buf, _, _ := Encode(nil, &p, EncodeOptions{}, math.MaxInt)
	if _, err := decode(buf[:etherHdrLen+ipv4HdrLen+4], 0, 0); err != ErrTruncated {
		t.Errorf("truncated TCP header: err = %v, want ErrTruncated", err)
	}
}

// TestDecodeSizeSaturates: Packet.Size is 16 bits, and the frames a GRO /
// TSO capture records above that must count as the largest size, not wrap
// to 0 (65 536) or fall back to the snapped length (anything longer).
func TestDecodeSizeSaturates(t *testing.T) {
	p := samplePacket()
	frame, _, err := Encode(nil, &p, EncodeOptions{}, math.MaxInt)
	if err != nil {
		t.Fatal(err)
	}
	snapped := frame[:60]
	for _, tc := range []struct {
		origLen int
		want    uint16
	}{{65535, 65535}, {65536, 65535}, {65537, 65535}, {70000, 65535}, {0, 60}, {-1, 60}} {
		got, err := decode(snapped, 0, tc.origLen)
		if err != nil {
			t.Fatal(err)
		}
		if got.Size != tc.want {
			t.Errorf("origLen %d: Size %d, want %d", tc.origLen, got.Size, tc.want)
		}
	}
}

func TestEncodeRejectsUnknownProto(t *testing.T) {
	p := Packet{Tuple: FiveTuple{Proto: ProtoICMP}}
	if _, _, err := Encode(nil, &p, EncodeOptions{}, math.MaxInt); err == nil {
		t.Error("expected error encoding ICMP")
	}
}

func TestIPChecksumValid(t *testing.T) {
	p := samplePacket()
	buf, _, _ := Encode(nil, &p, EncodeOptions{}, math.MaxInt)
	ip := buf[etherHdrLen : etherHdrLen+ipv4HdrLen]
	// A correct header checksums to zero when summed including the checksum
	// field.
	if got := finishChecksum(sumBytes(0, ip)); got != 0 {
		t.Errorf("IP header checksum invalid: residual %#x", got)
	}
}

// TestEncodeLimitIsPrefix: a capture limit appends exactly the prefix of
// the whole frame, after whatever buf held, and the wire length does not
// depend on it.
func TestEncodeLimitIsPrefix(t *testing.T) {
	udp := samplePacket()
	udp.Tuple.Proto = ProtoUDP
	meta := samplePacket()
	meta.PayloadLen = 3
	meta.App = AppInfo{PayloadSig: 0xfeed}
	meta.AuthOutcome = AuthFailure
	for _, p := range []Packet{samplePacket(), udp, meta} {
		opt := EncodeOptions{EmbedMeta: true, SrcMAC: [6]byte{1, 2, 3, 4, 5, 6}}
		whole, wire, err := Encode(nil, &p, opt, math.MaxInt)
		if err != nil {
			t.Fatal(err)
		}
		if wire != len(whole) || wire != int(p.Size) { // Size holds every header and the payload
			t.Fatalf("wire length %d, frame %d bytes, want Size %d", wire, len(whole), p.Size)
		}
		for _, limit := range []int{0, 1, 14, 34, 53, 54, 64, 75, 96, wire - 1, wire} {
			got, gotWire, err := Encode([]byte("rec:"), &p, opt, limit)
			if err != nil || gotWire != wire {
				t.Fatalf("limit %d: wire %d, err %v", limit, gotWire, err)
			}
			if want := append([]byte("rec:"), whole[:min(limit, wire)]...); string(got) != string(want) {
				t.Errorf("%s limit %d: appended % x, want % x", p.Tuple.Proto, limit, got, want)
			}
		}
	}
}

// sum16 is the one-word-per-step RFC 1071 sum sumBytes replaced, kept as
// its reference; a 64-bit total cannot overflow on any fuzz input.
func sum16(sum uint64, b []byte) uint64 {
	for ; len(b) >= 2; b = b[2:] {
		sum += uint64(binary.BigEndian.Uint16(b))
	}
	if len(b) == 1 {
		sum += uint64(b[0]) << 8
	}
	return sum
}

// FuzzChecksum: the 8-bytes-a-step sumBytes gives the reference's checksum
// over b cut into three chained partial sums, odd lengths and odd cuts
// included, and over an all-0xff input of the same length — whose sum is
// 0xffff's multiple that must finish as 0, where all-zero finishes as
// 0xffff.
func FuzzChecksum(f *testing.F) {
	f.Add([]byte{}, uint16(0), uint16(0))
	f.Add([]byte{0x45, 0, 0, 0x54, 0, 0, 0x40, 0, 0x40, 6, 0, 0, 10, 1, 2, 3, 192, 168, 0, 9}, uint16(12), uint16(5))
	f.Add(make([]byte, 75), uint16(3), uint16(8))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, uint16(1), uint16(2))
	f.Fuzz(func(t *testing.T, b []byte, cut1, cut2 uint16) {
		i := int(cut1) % (len(b) + 1)
		j := i + int(cut2)%(len(b)-i+1)
		ff := make([]byte, len(b))
		for k := range ff {
			ff[k] = 0xff
		}
		for _, in := range [][]byte{b, ff} {
			wide := finishChecksum(sumBytes(sumBytes(sumBytes(0, in[:i]), in[i:j]), in[j:]))
			ref := sum16(sum16(sum16(0, in[:i]), in[i:j]), in[j:])
			for ref>>16 != 0 {
				ref = ref&0xffff + ref>>16
			}
			if wide != ^uint16(ref) {
				t.Fatalf("% x cut at %d, %d: checksum %#04x, reference %#04x", in, i, j, wide, ^uint16(ref))
			}
		}
	})
}

// Property: any TCP/UDP packet round-trips through Encode/Decode with its
// five-tuple, flags and sequence numbers intact.
func TestEncodeDecodeProperty(t *testing.T) {
	f := func(sip, dip uint32, sp, dp uint16, udp bool, flags uint8, seq, ack uint32, payload uint16) bool {
		proto := ProtoTCP
		if udp {
			proto = ProtoUDP
		}
		p := Packet{
			Ts:    99,
			Tuple: FiveTuple{SrcIP: Addr(sip), DstIP: Addr(dip), SrcPort: sp, DstPort: dp, Proto: proto},
			Flags: TCPFlags(flags), Seq: seq, Ack: ack,
			PayloadLen: payload % 1400,
		}
		buf, _, err := Encode(nil, &p, EncodeOptions{}, math.MaxInt)
		if err != nil {
			return false
		}
		got, err := decode(buf, 99, len(buf))
		if err != nil {
			return false
		}
		if got.Tuple != p.Tuple || got.PayloadLen != p.PayloadLen {
			return false
		}
		if proto == ProtoTCP && (got.Flags != p.Flags || got.Seq != p.Seq || got.Ack != p.Ack) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSymmetricHash(b *testing.B) {
	tu := samplePacket().Tuple
	var sink uint64
	for i := 0; i < b.N; i++ {
		tu.SrcPort = uint16(i)
		sink ^= tu.SymmetricHash()
	}
	_ = sink
}

func BenchmarkEncode(b *testing.B) {
	p := samplePacket()
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		buf, _, _ = Encode(buf, &p, EncodeOptions{}, math.MaxInt)
	}
}

func BenchmarkDecode(b *testing.B) {
	p := samplePacket()
	buf, _, _ := Encode(nil, &p, EncodeOptions{}, math.MaxInt)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := decode(buf, 0, len(buf)); err != nil {
			b.Fatal(err)
		}
	}
}
