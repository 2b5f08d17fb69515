package pcap

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"smartwatch/internal/packet"
)

// validCapture serialises n packets and returns the raw file bytes.
func validCapture(t *testing.T, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf, WriterConfig{})
	for i := 0; i < n; i++ {
		p := mkPkt(int64(i)*1000, uint16(i+1), 120)
		if err := w.WritePacket(&p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestFileSourceMatchesReader(t *testing.T) {
	raw := validCapture(t, 50)
	path := filepath.Join(t.TempDir(), "t.pcap")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	want, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}

	src, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	got := packet.Collect(src.Stream())
	if src.Err() != nil {
		t.Fatalf("source err: %v", src.Err())
	}
	if len(got) != len(want) {
		t.Fatalf("got %d packets, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("packet %d differs: %+v vs %+v", i, got[i], want[i])
		}
	}
}

// TestFileSourceCloseStopsCleanly: Close while the stream is still reading
// (a signal-driven drain) ends the stream at the next refill, and Err
// stays nil — reading a file closed on purpose is not a decode failure.
func TestFileSourceCloseStopsCleanly(t *testing.T) {
	const n = 2000 // several read windows
	path := filepath.Join(t.TempDir(), "t.pcap")
	if err := os.WriteFile(path, validCapture(t, n), 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	for range src.Stream() {
		if got++; got == 10 {
			if err := src.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got >= n {
		t.Errorf("stream yielded all %d packets after Close", got)
	}
	if err := src.Err(); err != nil {
		t.Errorf("Err after Close = %v, want nil", err)
	}
}

// chunkedReader hands out its bytes in scripted chunks, returning io.EOF
// between them like a file whose writer has not caught up — the follow
// reader must treat every split point (mid-header, mid-body) as "not yet".
type chunkedReader struct {
	mu     sync.Mutex
	chunks [][]byte
}

func (c *chunkedReader) Read(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.chunks) == 0 || len(c.chunks[0]) == 0 {
		if len(c.chunks) > 0 && len(c.chunks[0]) == 0 {
			c.chunks = c.chunks[1:]
		}
		return 0, io.EOF
	}
	n := copy(p, c.chunks[0])
	c.chunks[0] = c.chunks[0][n:]
	if len(c.chunks[0]) == 0 {
		c.chunks = c.chunks[1:]
	}
	return n, nil
}

func (c *chunkedReader) feed(b []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.chunks = append(c.chunks, b)
}

func TestFollowSourceToleratesPartialRecordsAtEverySplit(t *testing.T) {
	raw := validCapture(t, 12)
	r, _ := NewReader(bytes.NewReader(raw))
	want, _ := r.ReadAll()

	// Split the byte stream at every offset: header boundary, mid record
	// header, mid frame — the follow reader must deliver the identical
	// packet sequence regardless. Both chunks are fed before the stream
	// starts, and the idle budget counts polls, not wall time, so one
	// poll's budget is enough to end each cut with ErrIdleTimeout.
	for cut := 1; cut < len(raw); cut += 7 {
		cr := &chunkedReader{}
		cr.feed(raw[:cut])
		cr.feed(raw[cut:])
		fs := Follow(cr, FollowConfig{Poll: time.Millisecond, Idle: time.Millisecond}, nil)
		got := packet.Collect(fs.Stream())
		if fs.Err() != ErrIdleTimeout {
			t.Fatalf("cut %d: err = %v, want idle timeout after drain", cut, fs.Err())
		}
		if len(got) != len(want) {
			t.Fatalf("cut %d: got %d packets, want %d", cut, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("cut %d: packet %d differs", cut, i)
			}
		}
	}
}

func TestFollowSourceDeliversTailWrites(t *testing.T) {
	raw := validCapture(t, 8)
	// First feed ends mid-record of packet 5.
	cut := fileHdrLen + 5*(pktHdrLen+int(raw[fileHdrLen+8])) - 3
	if cut <= fileHdrLen || cut >= len(raw) {
		cut = len(raw) / 2
	}
	cr := &chunkedReader{}
	cr.feed(raw[:cut])

	fs := Follow(cr, FollowConfig{Poll: time.Millisecond}, nil)
	var got []packet.Packet
	done := make(chan struct{})
	go func() {
		defer close(done)
		for p := range fs.Stream() {
			got = append(got, p)
			if len(got) == 8 {
				fs.Close()
			}
		}
	}()
	// Let the reader drain the first feed and start polling, then append
	// the rest — the live-tail scenario.
	time.Sleep(5 * time.Millisecond)
	cr.feed(raw[cut:])
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("follow stream did not finish after tail write")
	}
	if fs.Err() != nil {
		t.Fatalf("err: %v", fs.Err())
	}
	if len(got) != 8 {
		t.Fatalf("got %d packets, want 8", len(got))
	}
}

func TestFollowSourceCloseUnblocks(t *testing.T) {
	raw := validCapture(t, 3)
	cr := &chunkedReader{}
	cr.feed(raw) // complete records, then the tail starves
	fs := Follow(cr, FollowConfig{Poll: time.Millisecond}, nil)
	done := make(chan int)
	go func() {
		n := 0
		for range fs.Stream() {
			n++
		}
		done <- n
	}()
	time.Sleep(10 * time.Millisecond)
	fs.Close()
	select {
	case n := <-done:
		if n != 3 {
			t.Fatalf("got %d packets before close, want 3", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not unblock the stream")
	}
	if fs.Err() != nil {
		t.Fatalf("closed source should report nil err, got %v", fs.Err())
	}
}

func TestFollowSourceRejectsImplausibleLength(t *testing.T) {
	raw := validCapture(t, 2)
	// Corrupt the first record's capture length to something huge.
	raw[fileHdrLen+8] = 0xff
	raw[fileHdrLen+9] = 0xff
	raw[fileHdrLen+10] = 0xff
	cr := &chunkedReader{}
	cr.feed(raw)
	fs := Follow(cr, FollowConfig{Poll: time.Millisecond, Idle: 20 * time.Millisecond}, nil)
	got := packet.Collect(fs.Stream())
	if len(got) != 0 {
		t.Fatalf("decoded %d packets from corrupt stream", len(got))
	}
	if fs.Err() == nil || fs.Err() == ErrIdleTimeout {
		t.Fatalf("want implausible-length error, got %v", fs.Err())
	}
}

func TestFollowFileTailsARealFile(t *testing.T) {
	raw := validCapture(t, 10)
	path := filepath.Join(t.TempDir(), "grow.pcap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	half := len(raw)/2 + 3
	if _, err := f.Write(raw[:half]); err != nil {
		t.Fatal(err)
	}

	fs, err := FollowFile(path, FollowConfig{Poll: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	var got []packet.Packet
	done := make(chan struct{})
	go func() {
		defer close(done)
		for p := range fs.Stream() {
			got = append(got, p)
			if len(got) == 10 {
				fs.Close()
			}
		}
	}()
	time.Sleep(5 * time.Millisecond)
	if _, err := f.Write(raw[half:]); err != nil {
		t.Fatal(err)
	}
	f.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("follow-file stream did not complete")
	}
	if len(got) != 10 || fs.Err() != nil {
		t.Fatalf("got %d packets, err %v", len(got), fs.Err())
	}
}
