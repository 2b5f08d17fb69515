package pcap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"smartwatch/internal/packet"
	"smartwatch/internal/stats"
)

// One walker, three faces: Next, NextBatch and the FollowSource must read
// any byte string as refParse does — a parser over the whole slice that
// shares nothing with the window logic.

// parsed is what a reader made of an input.
type parsed struct {
	pkts    []packet.Packet
	skipped int64
	err     string // "" after a clean end of file
}

func (p parsed) diff(want parsed) string {
	switch {
	case len(p.pkts) != len(want.pkts):
		return fmt.Sprintf("%d packets, want %d", len(p.pkts), len(want.pkts))
	case p.skipped != want.skipped:
		return fmt.Sprintf("skipped %d, want %d", p.skipped, want.skipped)
	case p.err != want.err:
		return fmt.Sprintf("error %q, want %q", p.err, want.err)
	}
	for i := range p.pkts {
		if p.pkts[i] != want.pkts[i] {
			return fmt.Sprintf("packet %d = %+v, want %+v", i, p.pkts[i], want.pkts[i])
		}
	}
	return ""
}

// refParse reads a capture (file header included) held whole in memory.
func refParse(raw []byte, maxFrame int) (parsed, error) {
	var out parsed
	if len(raw) < fileHdrLen {
		return out, io.ErrUnexpectedEOF
	}
	var order binary.ByteOrder = binary.LittleEndian
	if m := binary.BigEndian.Uint32(raw); m == magicMicro || m == magicNano {
		order = binary.BigEndian
	}
	magic := order.Uint32(raw)
	if magic != magicMicro && magic != magicNano {
		return out, ErrBadMagic
	}
	if order.Uint32(raw[20:]) != linkEthernet {
		return out, errors.New("link type")
	}
	for b := raw[fileHdrLen:]; len(b) > 0; {
		if len(b) < pktHdrLen {
			out.err = "pcap: reading record header: unexpected EOF"
			break
		}
		ts := int64(order.Uint32(b)) * 1e9
		if frac := int64(order.Uint32(b[4:])); magic == magicNano {
			ts += frac
		} else {
			ts += frac * 1e3
		}
		capLen, origLen := int(order.Uint32(b[8:])), int(order.Uint32(b[12:]))
		if capLen > maxFrame {
			out.err = fmt.Sprintf("pcap: implausible capture length %d", capLen)
			break
		}
		if len(b) < pktHdrLen+capLen {
			out.err = fmt.Sprintf("pcap: reading %d-byte frame: unexpected EOF", capLen)
			break
		}
		if p, err := packet.Decode(b[pktHdrLen:pktHdrLen+capLen], ts, origLen); err != nil {
			out.skipped++
		} else {
			out.pkts = append(out.pkts, p)
		}
		b = b[pktHdrLen+capLen:]
	}
	return out, nil
}

// drain reads r to its end through NextBatch vectors of length batch, or
// through Next when batch is 0, and checks the error's shape: io.EOF bare
// and only for a clean end, io.ErrUnexpectedEOF wrapped in the rest.
func drain(t testing.TB, r *Reader, batch int) parsed {
	t.Helper()
	var out parsed
	var err error
	dst := make([]packet.Packet, max(batch, 1))
	for err == nil {
		n := 0
		if batch == 0 {
			if dst[0], err = r.Next(); err == nil {
				n = 1
			}
		} else {
			n, err = r.NextBatch(dst)
		}
		out.pkts = append(out.pkts, dst[:n]...)
	}
	if err != io.EOF {
		out.err = err.Error()
		if errors.Is(err, io.EOF) || strings.HasSuffix(out.err, "EOF") != errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("error %q: io.EOF must come bare, a cut-off record must wrap io.ErrUnexpectedEOF", out.err)
		}
	}
	if r.Count() != int64(len(out.pkts)) {
		t.Errorf("Count %d after %d packets", r.Count(), len(out.pkts))
	}
	if r.lo < 0 || r.lo > r.hi || r.hi > len(r.buf) || len(r.buf) > max(windowLen, pktHdrLen+r.maxFrame) {
		t.Errorf("window [%d:%d] of %d bytes breaks its invariants", r.lo, r.hi, len(r.buf))
	}
	out.skipped = r.Skipped()
	return out
}

// follow reads raw as a finished file through a FollowSource. What a
// Reader calls a cut-off record is "not yet" to a tail, so the stream ends
// in the idle timeout instead.
func follow(t testing.TB, raw []byte, want parsed) parsed {
	t.Helper()
	fs := Follow(bytes.NewReader(raw), FollowConfig{Poll: time.Microsecond, Idle: time.Microsecond}, nil)
	out := parsed{pkts: packet.Collect(fs.Stream()), skipped: fs.Skipped()}
	if fs.Count() != int64(len(out.pkts)) {
		t.Errorf("follow: Count %d after %d packets", fs.Count(), len(out.pkts))
	}
	switch err := fs.Err(); {
	case err == ErrIdleTimeout && !strings.Contains(want.err, "implausible"):
		out.err = want.err
	case err != nil:
		out.err = err.Error()
	}
	return out
}

// checkFaces holds every way of reading raw to refParse's answer.
func checkFaces(t *testing.T, raw []byte, withFollow bool) {
	t.Helper()
	want, hdrErr := refParse(raw, defaultMaxFrame)
	if _, err := NewReader(bytes.NewReader(raw)); (err != nil) != (hdrErr != nil) {
		t.Fatalf("NewReader error %v, reference %v", err, hdrErr)
	} else if err != nil {
		return
	}
	sources := map[string]func() io.Reader{
		"whole":    func() io.Reader { return bytes.NewReader(raw) },
		"one byte": func() io.Reader { return iotest.OneByteReader(bytes.NewReader(raw)) },
		"data+EOF": func() io.Reader { return iotest.DataErrReader(bytes.NewReader(raw)) },
	}
	for name, src := range sources {
		for _, batch := range []int{0, 1, 7, 512} {
			r, err := NewReader(src())
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if d := drain(t, r, batch); d.diff(want) != "" {
				t.Fatalf("%s source, batch %d: %s", name, batch, d.diff(want))
			}
		}
	}
	if withFollow {
		if d := follow(t, raw, want).diff(want); d != "" {
			t.Fatalf("follow: %s", d)
		}
	}
}

// capture writes frames as a capture in the given flavour: timestamp
// resolution, byte order, snap length.
func capture(nano bool, order binary.ByteOrder, snap int, frames [][]byte) []byte {
	magic := uint32(magicMicro)
	if nano {
		magic = magicNano
	}
	out := make([]byte, fileHdrLen)
	order.PutUint32(out[0:], magic)
	order.PutUint16(out[4:], versionMajor)
	order.PutUint16(out[6:], versionMinor)
	order.PutUint32(out[16:], uint32(snap))
	order.PutUint32(out[20:], linkEthernet)
	for i, f := range frames {
		var hdr [pktHdrLen]byte
		order.PutUint32(hdr[0:], uint32(i/3))
		order.PutUint32(hdr[4:], uint32(i%3)*1000+7)
		order.PutUint32(hdr[8:], uint32(min(len(f), snap)))
		order.PutUint32(hdr[12:], uint32(len(f)))
		out = append(append(out, hdr[:]...), f[:min(len(f), snap)]...)
	}
	return out
}

// testFrames is a small mixed trace: TCP and UDP of several sizes, one
// frame carrying metadata, one non-IPv4 frame.
func testFrames(t testing.TB, n int) [][]byte {
	t.Helper()
	var frames [][]byte
	for i := 0; i < n; i++ {
		p := mkPkt(0, uint16(1000+i), uint16(60+37*(i%5)))
		if i%3 == 1 {
			p.Tuple.Proto, p.Flags = packet.ProtoUDP, 0
		}
		if i%4 == 2 {
			p.App.PayloadSig = uint64(i) + 1
		}
		f, err := packet.Encode(nil, &p, packet.EncodeOptions{EmbedMeta: true})
		if err != nil {
			t.Fatal(err)
		}
		if i%7 == 5 {
			f[12], f[13] = 0x86, 0xdd // IPv6: skipped
		}
		frames = append(frames, f)
	}
	return frames
}

func TestWalkerFlavours(t *testing.T) {
	frames := testFrames(t, 40)
	big := append(append([][]byte(nil), frames[:9]...), append(bytes.Clone(frames[0]), make([]byte, 70000)...))
	big = append(big, frames[9:]...)
	for _, nano := range []bool{false, true} {
		for _, order := range []binary.ByteOrder{binary.LittleEndian, binary.BigEndian} {
			for _, tc := range []struct {
				snap   int
				frames [][]byte
			}{{64, frames}, {96, frames}, {65535, frames}, {1 << 18, big}} {
				raw := capture(nano, order, tc.snap, tc.frames)
				want, _ := refParse(raw, defaultMaxFrame)
				if len(want.pkts) == 0 || want.skipped == 0 || want.err != "" {
					t.Fatalf("fixture reads as %d packets, %d skipped, err %q", len(want.pkts), want.skipped, want.err)
				}
				// Frame 5 is skipped, so the long one is packet 8.
				if tc.snap > 1<<16 && want.pkts[8].Size != 65535 {
					t.Errorf("70 000-byte frame decoded with Size %d, want it saturated", want.pkts[8].Size)
				}
				checkFaces(t, raw, true)
				// Cut inside the last record's header and inside its body.
				last := len(raw) - pktHdrLen - min(len(tc.frames[len(tc.frames)-1]), tc.snap)
				checkFaces(t, raw[:last+5], true)
				checkFaces(t, raw[:len(raw)-3], true)
			}
		}
	}
}

// TestWalkerTruncationCorpus cuts a valid capture at every byte and, like
// robustness_test.go, flips bytes in it: the faces agree with refParse on
// each, and the error names where the input stopped.
func TestWalkerTruncationCorpus(t *testing.T) {
	base := capture(true, binary.LittleEndian, DefaultSnapLen, testFrames(t, 8))
	for cut := 0; cut <= len(base); cut++ {
		checkFaces(t, base[:cut], cut%5 == 0)
	}
	rng := stats.NewRand(11)
	for i := 0; i < 300; i++ {
		buf := bytes.Clone(base)
		for j := 0; j < 1+i%8; j++ {
			buf[rng.IntN(len(buf))] ^= byte(1 + rng.IntN(255))
		}
		checkFaces(t, buf, i%10 == 0)
	}
}

// TestWalkerAllocations: in steady state neither face allocates, and a
// frame longer than the window costs exactly one growth.
func TestWalkerAllocations(t *testing.T) {
	small := testFrames(t, 600)
	raw := capture(true, binary.LittleEndian, DefaultSnapLen, small)
	r, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]packet.Packet, 4)
	if a := testing.AllocsPerRun(100, func() {
		if n, err := r.NextBatch(dst); n != len(dst) || err != nil {
			t.Fatal(n, err)
		}
	}); a != 0 {
		t.Errorf("NextBatch allocates %v times per vector, want 0", a)
	}

	perFile := func(frames [][]byte) float64 {
		raw := capture(true, binary.LittleEndian, 1<<18, frames)
		return testing.AllocsPerRun(5, func() {
			r, err := NewReader(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			for err == nil {
				_, err = r.NextBatch(dst)
			}
			if err != io.EOF {
				t.Fatal(err)
			}
		})
	}
	oversize := append(bytes.Clone(small[0]), make([]byte, 100000)...)
	withBig := append(append(append([][]byte(nil), small[:300]...), oversize), small[300:]...)
	if base, big := perFile(small), perFile(withBig); big != base+1 {
		t.Errorf("%v allocations reading a file with one oversize frame, %v without: want one more", big, base)
	}
}
