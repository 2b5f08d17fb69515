package pcap

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"

	"smartwatch/internal/packet"
	"smartwatch/internal/stats"
)

// Parsers face untrusted input (captures from other tools, truncated
// files); none of them may panic or spin, whatever the bytes.

func TestReaderNeverPanicsOnRandomBytes(t *testing.T) {
	f := func(seed uint64, size uint16) bool {
		rng := stats.NewRand(seed)
		buf := make([]byte, int(size))
		for i := range buf {
			buf[i] = byte(rng.Uint64())
		}
		r, err := NewReader(bytes.NewReader(buf))
		if err != nil {
			return true // rejected at the header: fine
		}
		for i := 0; i < 1000; i++ {
			if _, err := r.Next(); err != nil {
				return true // terminated cleanly
			}
		}
		return true // decoded a lot of garbage as packets: still fine
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestReaderNeverPanicsOnCorruptedValidFile(t *testing.T) {
	// Start from a valid capture and flip bytes.
	var valid bytes.Buffer
	w := NewWriter(&valid, WriterConfig{})
	for i := 0; i < 20; i++ {
		p := mkPkt(int64(i)*1000, uint16(i+1), 120)
		if err := w.WritePacket(&p); err != nil {
			t.Fatal(err)
		}
	}
	w.Flush()
	base := valid.Bytes()

	f := func(seed uint64) bool {
		rng := stats.NewRand(seed)
		buf := append([]byte(nil), base...)
		for i := 0; i < 16; i++ {
			buf[rng.IntN(len(buf))] ^= byte(1 + rng.IntN(255))
		}
		r, err := NewReader(bytes.NewReader(buf))
		if err != nil {
			return true
		}
		for i := 0; i < 100; i++ {
			if _, err := r.Next(); err != nil {
				return true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDecodeNeverPanicsOnRandomFrames(t *testing.T) {
	f := func(seed uint64, size uint8) bool {
		rng := stats.NewRand(seed)
		frame := make([]byte, int(size))
		for i := range frame {
			frame[i] = byte(rng.Uint64())
		}
		// Make half the frames claim IPv4 so the parser goes deeper.
		if len(frame) >= 14 && seed%2 == 0 {
			binary.BigEndian.PutUint16(frame[12:14], 0x0800)
		}
		var p packet.Packet
		_ = packet.DecodeInto(&p, frame, 0, len(frame))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
