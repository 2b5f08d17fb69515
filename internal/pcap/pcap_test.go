package pcap

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"runtime"
	"testing"
	"time"

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
	frame, _, err := packet.Encode(nil, &p, packet.EncodeOptions{}, math.MaxInt)
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

// TestMetaRoundTripThroughFile: each kind of application metadata — none,
// an auth outcome alone, a certificate expiry alone, a payload signature
// alone and all three — survives a Writer and Reader unchanged, so an
// auth-only packet embeds its metadata block like the others.
func TestMetaRoundTripThroughFile(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, WriterConfig{Encode: packet.EncodeOptions{EmbedMeta: true}})
	var want []packet.Packet
	for i, meta := range []struct {
		auth packet.AuthOutcome
		app  packet.AppInfo
	}{
		{},
		{auth: packet.AuthFailure},
		{app: packet.AppInfo{TLSCertExpiry: 5e9}},
		{app: packet.AppInfo{PayloadSig: 77}},
		{auth: packet.AuthSuccess, app: packet.AppInfo{TLSCertExpiry: 5e9, PayloadSig: 77}},
	} {
		p := mkPkt(int64(i+1)*1000, 2222, 128)
		p.PayloadLen = 64 // past the metadata block, so Encode does not grow it
		p.AuthOutcome, p.App = meta.auth, meta.app
		if err := w.WritePacket(&p); err != nil {
			t.Fatal(err)
		}
		want = append(want, p)
	}
	w.Flush()
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range want {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		if got != p {
			t.Errorf("packet %d came back %+v, want %+v", i, got, p)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("after %d packets: err %v, want io.EOF", len(want), err)
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

// TestWriterIOErrorSurfacesWithoutFlush: a failing destination is seen by
// a later WritePacket, not only by Flush, and Flush returns it too.
func TestWriterIOErrorSurfacesWithoutFlush(t *testing.T) {
	w := NewWriter(&failAfterWriter{n: 100}, WriterConfig{})
	var err error
	for i := 0; i < 100_000 && err == nil; i++ {
		p := mkPkt(int64(i), uint16(i+1), 1400)
		err = w.WritePacket(&p)
	}
	if err == nil {
		t.Fatal("100 000 writes to a destination that fails after 100 bytes all succeeded")
	}
	if ferr := w.Flush(); ferr != err {
		t.Errorf("Flush returned %v, want the write error %v", ferr, err)
	}
}

// TestWriterRefusesUnwritablePackets: a packet with no wire form, or with
// a timestamp a record header cannot hold, errors before anything is
// queued: the writer goes on, and the file holds only the packets around
// it, the extreme timestamps a header can hold read back exactly.
func TestWriterRefusesUnwritablePackets(t *testing.T) {
	icmp := mkPkt(5, 1, 100)
	icmp.Tuple.Proto = packet.ProtoICMP
	var refused []packet.Packet
	for _, ts := range []int64{-1, -1.5e9, (math.MaxUint32 + 1) * 1e9} {
		refused = append(refused, mkPkt(ts, 2, 100))
	}
	refused = append(refused, icmp)
	lo, hi := mkPkt(0, 3, 100), mkPkt(math.MaxUint32*1e9+999_999_999, 4, 100)

	var buf bytes.Buffer
	w := NewWriter(&buf, WriterConfig{})
	for i := range refused {
		if err := w.WritePacket(&refused[i]); err == nil {
			t.Errorf("ts %d, %s: accepted", refused[i].Ts, refused[i].Tuple.Proto)
		}
	}
	if w.Count() != 0 || w.full != nil {
		t.Fatalf("refused packets counted (%d) or started the encoder", w.Count())
	}
	for _, p := range []packet.Packet{lo, refused[0], hi} {
		w.WritePacket(&p)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if w.Count() != 2 || len(got) != 2 || got[0].Ts != lo.Ts || got[1].Ts != hi.Ts {
		t.Fatalf("count %d, read %+v; want the packets at %d and %d", w.Count(), got, lo.Ts, hi.Ts)
	}
}

// TestWriterEncoderLifecycle: Flush ends the encoder goroutine the first
// WritePacket started, and a WritePacket after Flush starts another: a
// capture written in two flushed parts is byte for byte the capture
// written at once.
func TestWriterEncoderLifecycle(t *testing.T) {
	pkts := make([]packet.Packet, 3*writerBatch+7)
	for i := range pkts {
		pkts[i] = mkPkt(int64(i)*1000, uint16(i+1), uint16(60+i%1400))
	}
	write := func(w *Writer, ps []packet.Packet) {
		for i := range ps {
			if err := w.WritePacket(&ps[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	var whole bytes.Buffer
	write(NewWriter(&whole, WriterConfig{SnapLen: 96}), pkts)

	before := runtime.NumGoroutine()
	var parts bytes.Buffer
	w := NewWriter(&parts, WriterConfig{SnapLen: 96})
	for _, part := range [][]packet.Packet{pkts[:writerBatch+3], pkts[writerBatch+3:]} {
		write(w, part)
		deadline := time.Now().Add(10 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines after Flush, %d before the first WritePacket", runtime.NumGoroutine(), before)
			}
			runtime.Gosched()
		}
	}
	if w.Count() != int64(len(pkts)) || !bytes.Equal(parts.Bytes(), whole.Bytes()) {
		t.Errorf("two flushed parts: %d packets, %d bytes; at once: %d packets, %d bytes",
			w.Count(), parts.Len(), len(pkts), whole.Len())
	}
}

// TestWriteStreamStopsAtRefusal: a packet the Writer refuses ends
// WriteStream with that error, the encoder ended and the packets before
// it written out.
func TestWriteStreamStopsAtRefusal(t *testing.T) {
	pkts := make([]packet.Packet, writerBatch+9)
	for i := range pkts {
		pkts[i] = mkPkt(int64(i), uint16(i+1), 100)
	}
	pkts[len(pkts)-1].Ts = -1
	before := runtime.NumGoroutine()
	var buf bytes.Buffer
	if err := WriteStream(NewWriter(&buf, WriterConfig{}), packet.StreamOf(pkts)); err == nil {
		t.Fatal("a negative timestamp was written")
	}
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > before; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after WriteStream, %d before", runtime.NumGoroutine(), before)
		}
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := r.ReadAll(); err != nil || len(got) != len(pkts)-1 {
		t.Fatalf("read back %d packets (%v), want %d", len(got), err, len(pkts)-1)
	}
}

// WritePacket runs once per packet of every synthetic capture; in steady
// state, encoder included, it must not allocate.
func TestWritePacketDoesNotAllocate(t *testing.T) {
	w := NewWriter(io.Discard, WriterConfig{SnapLen: 96, Encode: packet.EncodeOptions{EmbedMeta: true}})
	p := mkPkt(0, 1, 1400)
	p.App.PayloadSig = 42
	for i := 0; i < 2*writerDepth*writerBatch; i++ {
		if err := w.WritePacket(&p); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(10*writerBatch, func() {
		p.Ts += 1000
		if err := w.WritePacket(&p); err != nil {
			t.Fatal(err)
		}
	})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("WritePacket allocates %v times per packet, want 0", allocs)
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
