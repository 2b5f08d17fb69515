package pcap

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"smartwatch/internal/packet"
	"smartwatch/internal/trace"
)

// pinStream is a fixed mix for pinning the writer's bytes: a thinned
// caida2018 background (TCP and UDP, mice and MTU-sized elephants), an SSH
// brute force (auth outcomes) and a worm (payload signatures), so EmbedMeta
// writes metadata blocks, and grows payloads too short to hold one.
func pinStream() Stream {
	cfg := trace.CAIDA(2018).Config()
	cfg.Duration, cfg.Flows, cfg.PacketRate = 20e6, 1000, 0.12e6
	return Merge(
		trace.NewWorkload(cfg).Stream(),
		trace.BruteForce(trace.BruteForceConfig{Seed: 3, AttemptGap: 1e6, LegitClients: 2}).Stream(),
		trace.Worm(trace.WormConfig{Seed: 5, InfectedHosts: 3, TargetsPerHost: 40, Gap: 1e5}).Stream(),
	)
}

// TestWriterBytesPinned: the files the writer produces from a fixed stream
// hash to what the encoder wrote when its L4 checksum still summed every
// zero byte of the synthetic payload, at the benchmark's 96-byte snap with
// metadata and at full snap without. Every full-snap frame's TCP/UDP
// checksum also verifies over its whole segment.
func TestWriterBytesPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  WriterConfig
		want string
	}{
		{"snap96-meta", WriterConfig{SnapLen: 96, Encode: packet.EncodeOptions{EmbedMeta: true}},
			"fbcc8dc19e5863583ddb2dc709837a5b876a5321383e1178b95041e2de16c8de"},
		{"full", WriterConfig{}, "e358b2e044eb844f48f2c36e27379f1d1b32d080d909c3d35fbee6fe57ca0ca3"},
	} {
		var buf bytes.Buffer
		w := NewWriter(&buf, tc.cfg)
		if err := WriteStream(w, pinStream()); err != nil {
			t.Fatal(err)
		}
		if w.Count() != 7834 {
			t.Errorf("%s: %d packets, want 7834", tc.name, w.Count())
		}
		if sum := sha256.Sum256(buf.Bytes()); hex.EncodeToString(sum[:]) != tc.want {
			t.Errorf("%s: sha256 %x, want %s", tc.name, sum, tc.want)
		}
		if tc.cfg.SnapLen == 0 {
			checkL4Checksums(t, buf.Bytes())
		}
	}
}

// checkL4Checksums walks a full-snap capture and verifies every frame's
// TCP/UDP checksum the way a receiver does: the one's-complement sum of
// the pseudo-header and the whole segment, checksum field included, is
// 0xffff.
func checkL4Checksums(t *testing.T, file []byte) {
	t.Helper()
	const ethIP = 14
	udp := 0
	for rec := file[fileHdrLen:]; len(rec) > 0; {
		capLen := int(binary.LittleEndian.Uint32(rec[8:12]))
		frame := rec[pktHdrLen : pktHdrLen+capLen]
		rec = rec[pktHdrLen+capLen:]
		ip := frame[ethIP:]
		seg := ip[20:binary.BigEndian.Uint16(ip[2:4])]
		proto := ip[9]
		if proto == byte(packet.ProtoUDP) {
			udp++
		}
		var sum uint32
		add := func(b []byte) {
			for ; len(b) >= 2; b = b[2:] {
				sum += uint32(binary.BigEndian.Uint16(b))
			}
			if len(b) == 1 {
				sum += uint32(b[0]) << 8
			}
		}
		add(ip[12:20])
		add([]byte{0, proto})
		add(binary.BigEndian.AppendUint16(nil, uint16(len(seg))))
		add(seg)
		for sum>>16 != 0 {
			sum = sum&0xffff + sum>>16
		}
		if sum != 0xffff {
			t.Fatalf("proto %d frame of %d bytes: L4 checksum does not verify (sum %#x)", proto, len(frame), sum)
		}
	}
	if udp == 0 {
		t.Error("the pinned stream carries no UDP frame")
	}
}
