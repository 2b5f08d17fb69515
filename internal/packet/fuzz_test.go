package packet_test

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"smartwatch/internal/packet"
	"smartwatch/internal/pcap"
)

// FuzzDecodeInto: whatever the frame, DecodeInto never panics and leaves
// nothing of the packet it was handed — decoding into a poisoned Packet
// equals decoding into a zero one, on success and on error — Size is the
// original length saturated at 16 bits, and a frame DecodeInto rejects is
// one the pcap Reader counts as skipped. The committed seeds under
// testdata/fuzz are valid TCP / UDP / metadata frames, their truncations
// and the original lengths around 65 536.
func FuzzDecodeInto(f *testing.F) {
	p := packet.Packet{
		Tuple: packet.FiveTuple{SrcIP: 0x0a000001, DstIP: 0x0a000002, SrcPort: 4242, DstPort: 443, Proto: packet.ProtoTCP},
		Size:  90, PayloadLen: 30, Flags: packet.FlagSYN, Seq: 7, App: packet.AppInfo{PayloadSig: 9},
	}
	frame, err := packet.Encode(nil, &p, packet.EncodeOptions{EmbedMeta: true})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(frame, int64(1), len(frame))
	f.Add(frame[:40], int64(0), 65536)
	f.Fuzz(func(t *testing.T, frame []byte, ts int64, origLen int) {
		var zero packet.Packet
		poisoned := packet.Packet{
			Ts: -1, Tuple: packet.FiveTuple{SrcIP: ^packet.Addr(0), DstIP: 1, SrcPort: 2, DstPort: 3, Proto: 255},
			Size: 4, PayloadLen: 5, Flags: 0xff, Seq: 6, Ack: 7,
			App: packet.AppInfo{TLSCertExpiry: 8, PayloadSig: 9, AuthOutcome: packet.AuthFailure},
		}
		errZero := packet.DecodeInto(&zero, frame, ts, origLen)
		errPoisoned := packet.DecodeInto(&poisoned, frame, ts, origLen)
		if errZero != errPoisoned || zero != poisoned {
			t.Fatalf("decode depends on the destination: %+v (%v) into zero, %+v (%v) into poisoned", zero, errZero, poisoned, errPoisoned)
		}
		if got, gotErr := packet.Decode(frame, ts, origLen); got != zero || gotErr != errZero {
			t.Fatalf("Decode = %+v (%v), DecodeInto %+v (%v)", got, gotErr, zero, errZero)
		}
		wantSize := origLen
		if origLen <= 0 {
			wantSize = len(frame)
		}
		if zero.Ts != ts || int(zero.Size) != min(wantSize, 65535) {
			t.Fatalf("Ts %d Size %d for ts %d, origLen %d, %d-byte frame", zero.Ts, zero.Size, ts, origLen, len(frame))
		}

		// One record holding the frame, read back (the Reader refuses
		// records past 256 KB before it looks at the frame).
		if len(frame) > 1<<18 {
			return
		}
		var file bytes.Buffer
		if err := pcap.NewWriter(&file, pcap.WriterConfig{}).Flush(); err != nil {
			t.Fatal(err)
		}
		var hdr [16]byte
		binary.LittleEndian.PutUint32(hdr[8:], uint32(len(frame)))
		binary.LittleEndian.PutUint32(hdr[12:], uint32(len(frame)))
		file.Write(hdr[:])
		file.Write(frame)
		r, err := pcap.NewReader(&file)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.ReadAll(); err != nil {
			t.Fatal(err)
		}
		wantSkipped := int64(0)
		if errZero != nil {
			wantSkipped = 1
		}
		if r.Skipped() != wantSkipped || r.Count() != 1-wantSkipped {
			t.Fatalf("decode error %v, reader counted %d packets and %d skipped", errZero, r.Count(), r.Skipped())
		}
	})
}

// FuzzParseAddr: whatever the string, ParseAddr never panics; a string it
// accepts is four dot-separated runs of digits, and the address it returns
// prints (Addr.String) as that string without its octets' leading zeros
// and parses back to itself. Seeded with TestAddrRoundTrip's cases.
func FuzzParseAddr(f *testing.F) {
	for _, s := range []string{
		"0.0.0.0", "10.1.2.3", "192.168.255.1", "255.255.255.255",
		"", "1.2.3", "1.2.3.4.5", "256.1.1.1", "a.b.c.d", "01.2.3.004", "+1.2.3.4", "1.2.3.4 ", "1..2.3", "1_0.0.0.1",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		a, err := packet.ParseAddr(s)
		if err != nil {
			return
		}
		octets := strings.Split(s, ".")
		if len(octets) != 4 {
			t.Fatalf("ParseAddr(%q) accepted %d fields", s, len(octets))
		}
		for i, o := range octets {
			if o == "" || strings.Trim(o, "0123456789") != "" {
				t.Fatalf("ParseAddr(%q) accepted the field %q", s, o)
			}
			if o = strings.TrimLeft(o, "0"); o == "" {
				o = "0"
			}
			octets[i] = o
		}
		if got := a.String(); got != strings.Join(octets, ".") {
			t.Fatalf("ParseAddr(%q) = %s", s, got)
		}
		if b, err := packet.ParseAddr(a.String()); err != nil || b != a {
			t.Fatalf("%q parsed to %s, which parses to %v (%v)", s, a, b, err)
		}
	})
}
