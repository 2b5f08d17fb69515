package packet

import (
	"encoding/binary"
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

func TestEncodeDecodeTCP(t *testing.T) {
	p := samplePacket()
	buf, err := Encode(nil, &p, EncodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != int(p.Size) {
		t.Fatalf("encoded %d bytes, want %d", len(buf), p.Size)
	}
	got, err := Decode(buf, p.Ts, len(buf))
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
	buf, err := Encode(nil, &p, EncodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(buf, 1, len(buf))
	if err != nil {
		t.Fatal(err)
	}
	if got.Tuple != p.Tuple || got.PayloadLen != p.PayloadLen {
		t.Errorf("decode mismatch: got %+v want %+v", got, p)
	}
}

func TestEncodeMetaRoundTrip(t *testing.T) {
	p := samplePacket()
	p.App = AppInfo{TLSCertExpiry: 42, PayloadSig: 0xdeadbeef, AuthOutcome: AuthFailure}
	buf, err := Encode(nil, &p, EncodeOptions{EmbedMeta: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(buf, p.Ts, len(buf))
	if err != nil {
		t.Fatal(err)
	}
	if got.App != p.App {
		t.Errorf("App = %+v, want %+v", got.App, p.App)
	}
}

func TestEncodeMetaGrowsShortPayload(t *testing.T) {
	p := samplePacket()
	p.PayloadLen = 0
	p.Size = 0
	p.App = AppInfo{AuthOutcome: AuthSuccess}
	buf, err := Encode(nil, &p, EncodeOptions{EmbedMeta: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(buf, 0, len(buf))
	if err != nil {
		t.Fatal(err)
	}
	if got.App.AuthOutcome != AuthSuccess {
		t.Errorf("AuthOutcome lost for zero-payload packet")
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(make([]byte, 10), 0, 10); err != ErrTruncated {
		t.Errorf("short frame: err = %v, want ErrTruncated", err)
	}
	frame := make([]byte, 60)
	binary.BigEndian.PutUint16(frame[12:14], 0x86dd) // IPv6
	if _, err := Decode(frame, 0, 60); err != ErrNotIPv4 {
		t.Errorf("IPv6 frame: err = %v, want ErrNotIPv4", err)
	}
	p := samplePacket()
	buf, _ := Encode(nil, &p, EncodeOptions{})
	if _, err := Decode(buf[:etherHdrLen+ipv4HdrLen+4], 0, 0); err != ErrTruncated {
		t.Errorf("truncated TCP header: err = %v, want ErrTruncated", err)
	}
}

// TestDecodeSizeSaturates: Packet.Size is 16 bits, and the frames a GRO /
// TSO capture records above that must count as the largest size, not wrap
// to 0 (65 536) or fall back to the snapped length (anything longer).
func TestDecodeSizeSaturates(t *testing.T) {
	p := samplePacket()
	frame, err := Encode(nil, &p, EncodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	snapped := frame[:60]
	for _, tc := range []struct {
		origLen int
		want    uint16
	}{{65535, 65535}, {65536, 65535}, {65537, 65535}, {70000, 65535}, {0, 60}, {-1, 60}} {
		got, err := Decode(snapped, 0, tc.origLen)
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
	if _, err := Encode(nil, &p, EncodeOptions{}); err == nil {
		t.Error("expected error encoding ICMP")
	}
}

func TestIPChecksumValid(t *testing.T) {
	p := samplePacket()
	buf, _ := Encode(nil, &p, EncodeOptions{})
	ip := buf[etherHdrLen : etherHdrLen+ipv4HdrLen]
	// A correct header checksums to zero when summed including the checksum
	// field.
	if got := finishChecksum(sumBytes(0, ip)); got != 0 {
		t.Errorf("IP header checksum invalid: residual %#x", got)
	}
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
		buf, err := Encode(nil, &p, EncodeOptions{})
		if err != nil {
			return false
		}
		got, err := Decode(buf, 99, len(buf))
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
		buf, _ = Encode(buf, &p, EncodeOptions{})
	}
}

func BenchmarkDecode(b *testing.B) {
	p := samplePacket()
	buf, _ := Encode(nil, &p, EncodeOptions{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(buf, 0, len(buf)); err != nil {
			b.Fatal(err)
		}
	}
}
