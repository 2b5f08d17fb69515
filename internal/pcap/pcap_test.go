package pcap

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"

	"smartwatch/internal/packet"
)

func mkPkt(ts int64, srcPort uint16, size uint16) packet.Packet {
	return packet.Packet{
		Ts: ts,
		Tuple: packet.FiveTuple{
			SrcIP: packet.MustParseAddr("10.0.0.1"), DstIP: packet.MustParseAddr("10.0.0.2"),
			SrcPort: srcPort, DstPort: 80, Proto: packet.ProtoTCP,
		},
		Size: size, PayloadLen: 10, Flags: packet.FlagACK,
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, WriterConfig{})
	pkts := []packet.Packet{mkPkt(1e9, 1000, 100), mkPkt(2e9+5, 1001, 200), mkPkt(3e9, 1002, 80)}
	for i := range pkts {
		if err := w.WritePacket(&pkts[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != 3 {
		t.Errorf("writer count = %d", w.Count())
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("read %d packets, want 3", len(got))
	}
	for i := range got {
		if got[i].Ts != pkts[i].Ts {
			t.Errorf("pkt %d ts = %d, want %d (ns precision)", i, got[i].Ts, pkts[i].Ts)
		}
		if got[i].Tuple != pkts[i].Tuple {
			t.Errorf("pkt %d tuple mismatch", i)
		}
	}
}

func TestSnapLenTruncation(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, WriterConfig{SnapLen: 64})
	p := mkPkt(0, 999, 500)
	p.PayloadLen = 400
	if err := w.WritePacket(&p); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.SnapLen() != 64 {
		t.Errorf("SnapLen = %d", r.SnapLen())
	}
	got, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	// Original length survives in Size; the TCP header (within 64 B) still
	// decodes.
	if got.Size != 500 && got.Size != p.Size {
		t.Errorf("Size = %d, want original length", got.Size)
	}
	if got.Tuple.SrcPort != 999 {
		t.Errorf("tuple lost under snaplen: %v", got.Tuple)
	}
}

func TestEmptyFileHasHeader(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, WriterConfig{})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != fileHdrLen {
		t.Fatalf("empty capture = %d bytes, want %d", buf.Len(), fileHdrLen)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("Next on empty = %v, want EOF", err)
	}
}

func TestReaderRejectsGarbage(t *testing.T) {
	if _, err := NewReader(bytes.NewReader(make([]byte, 24))); err != ErrBadMagic {
		t.Errorf("err = %v, want ErrBadMagic", err)
	}
	if _, err := NewReader(bytes.NewReader([]byte{1, 2})); err == nil {
		t.Error("short header must error")
	}
}

func TestReaderMicrosecondMagic(t *testing.T) {
	// Hand-build a microsecond-resolution little-endian file.
	var buf bytes.Buffer
	hdr := make([]byte, fileHdrLen)
	binary.LittleEndian.PutUint32(hdr[0:4], magicMicro)
	binary.LittleEndian.PutUint16(hdr[4:6], 2)
	binary.LittleEndian.PutUint16(hdr[6:8], 4)
	binary.LittleEndian.PutUint32(hdr[16:20], 65535)
	binary.LittleEndian.PutUint32(hdr[20:24], linkEthernet)
	buf.Write(hdr)

	p := mkPkt(0, 777, 100)
	frame, err := packet.Encode(nil, &p, packet.EncodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rec := make([]byte, pktHdrLen)
	binary.LittleEndian.PutUint32(rec[0:4], 5)    // 5 s
	binary.LittleEndian.PutUint32(rec[4:8], 1000) // 1000 us
	binary.LittleEndian.PutUint32(rec[8:12], uint32(len(frame)))
	binary.LittleEndian.PutUint32(rec[12:16], uint32(len(frame)))
	buf.Write(rec)
	buf.Write(frame)

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	want := int64(5*1e9 + 1000*1e3)
	if got.Ts != want {
		t.Errorf("ts = %d, want %d", got.Ts, want)
	}
}

func TestReaderSkipsNonIPv4(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, WriterConfig{})
	p := mkPkt(1, 1, 100)
	w.WritePacket(&p)
	w.Flush()
	raw := buf.Bytes()
	// Append a bogus ARP frame record.
	arp := make([]byte, 60)
	binary.BigEndian.PutUint16(arp[12:14], 0x0806)
	rec := make([]byte, pktHdrLen)
	binary.LittleEndian.PutUint32(rec[8:12], uint32(len(arp)))
	binary.LittleEndian.PutUint32(rec[12:16], uint32(len(arp)))
	raw = append(raw, rec...)
	raw = append(raw, arp...)

	r, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || r.Skipped() != 1 {
		t.Errorf("decoded=%d skipped=%d, want 1/1", len(got), r.Skipped())
	}
}

func TestMetaRoundTripThroughFile(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, WriterConfig{Encode: packet.EncodeOptions{EmbedMeta: true}})
	p := mkPkt(9, 2222, 128)
	p.App = packet.AppInfo{AuthOutcome: packet.AuthFailure, PayloadSig: 77}
	if err := w.WritePacket(&p); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	r, _ := NewReader(&buf)
	got, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if got.App != p.App {
		t.Errorf("App = %+v, want %+v", got.App, p.App)
	}
}

// failAfterWriter errors after n bytes — write-path failure injection.
type failAfterWriter struct {
	n       int
	written int
}

func (f *failAfterWriter) Write(p []byte) (int, error) {
	if f.written+len(p) > f.n {
		return 0, io.ErrShortWrite
	}
	f.written += len(p)
	return len(p), nil
}

func TestWriterPropagatesIOErrors(t *testing.T) {
	w := NewWriter(&failAfterWriter{n: 100}, WriterConfig{})
	var lastErr error
	for i := 0; i < 1000 && lastErr == nil; i++ {
		p := mkPkt(int64(i), uint16(i+1), 200)
		if err := w.WritePacket(&p); err != nil {
			lastErr = err
			break
		}
		lastErr = w.Flush()
	}
	if lastErr == nil {
		t.Fatal("write failures must surface, not vanish in buffering")
	}
}

// The decode loop runs once per packet of every file-fed drive; in steady
// state (frame buffer grown) it must not allocate.
func TestReaderNextDoesNotAllocate(t *testing.T) {
	const runs = 200
	var buf bytes.Buffer
	w := NewWriter(&buf, WriterConfig{})
	for i := 0; i < runs+2; i++ {
		p := mkPkt(int64(i+1)*1e6, uint16(1000+i), 120)
		if err := w.WritePacket(&p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != nil { // grows the frame buffer
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := r.Next(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Reader.Next allocates %v times per record, want 0", allocs)
	}
}
