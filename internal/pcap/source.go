// Packet sources (DESIGN.md §13.2): the pcap-backed implementations of
// packet.Source feeding the streaming session. FileSource is today's
// whole-file replay path with lifecycle bolted on; FollowSource tails a
// capture that is still being written — it parses only complete records,
// treats a partial trailing record as "not yet", and polls for growth
// until closed or idle too long.
package pcap

import (
	"errors"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"smartwatch/internal/packet"
)

// ErrIdleTimeout is the FollowSource error after Idle elapses with no new
// complete record.
var ErrIdleTimeout = errors.New("pcap: follow source idle timeout")

// FileSource replays a whole capture file as a packet.Source.
type FileSource struct {
	f      *os.File
	r      *Reader
	err    error
	closed atomic.Bool
}

// OpenFile opens path and validates its pcap header.
func OpenFile(path string) (*FileSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	r, err := NewReader(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &FileSource{f: f, r: r}, nil
}

// Reader exposes the underlying pcap reader (decode/skip counters).
func (fs *FileSource) Reader() *Reader { return fs.r }

// Stream yields every decodable packet in the file. Close ends it at the
// next read, cleanly.
func (fs *FileSource) Stream() packet.Stream {
	return func(yield func(packet.Packet) bool) {
		var p packet.Packet
		for {
			if err := fs.r.next(&p); err != nil {
				if err != io.EOF && !fs.closed.Load() {
					fs.err = err
				}
				return
			}
			if !yield(p) {
				return
			}
		}
	}
}

// Err reports a mid-file decode failure (nil after a clean EOF or Close).
func (fs *FileSource) Err() error { return fs.err }

// Close closes the file; a Stream still reading it stops without error.
func (fs *FileSource) Close() error {
	fs.closed.Store(true)
	return fs.f.Close()
}

// FollowConfig tunes a FollowSource.
type FollowConfig struct {
	// Poll is how long to sleep between size checks when the tail has no
	// complete record yet (default 25ms).
	Poll time.Duration
	// Idle ends the stream with ErrIdleTimeout after this long without a
	// new complete record. Zero follows forever (until Close).
	Idle time.Duration
	// MaxFrame rejects implausible capture lengths (default 1<<18, same
	// as Reader).
	MaxFrame int
}

// FollowSource tails a growing pcap stream: a Reader whose source polls
// instead of ending. The Reader consumes bytes only in units of complete
// records, so a record header, or a body, that has not fully landed yet
// stays unconsumed in its window until the writer finishes it
// (robustness_test.go's truncation corpus is the negative space this is
// built against). Each wait is a short real-time poll; virtual packet
// time is unaffected.
type FollowSource struct {
	r   Reader
	cfg FollowConfig
	err error

	closed    atomic.Bool
	closeOnce sync.Once
	closeFn   func() error
}

// Follow wraps an io.Reader that returns io.EOF at the current end of
// input (an *os.File does). closeFn, if non-nil, runs once on Close.
func Follow(r io.Reader, cfg FollowConfig, closeFn func() error) *FollowSource {
	if cfg.Poll <= 0 {
		cfg.Poll = 25 * time.Millisecond
	}
	if cfg.MaxFrame <= 0 {
		cfg.MaxFrame = defaultMaxFrame
	}
	fs := &FollowSource{cfg: cfg, closeFn: closeFn}
	fs.r = Reader{src: &pollReader{fs: fs, r: r}, maxFrame: cfg.MaxFrame}
	return fs
}

// FollowFile opens path for tailing.
func FollowFile(path string, cfg FollowConfig) (*FollowSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	return Follow(f, cfg, f.Close), nil
}

// Count returns packets decoded so far; Skipped the undecodable frames
// passed over.
func (fs *FollowSource) Count() int64   { return fs.r.count }
func (fs *FollowSource) Skipped() int64 { return fs.r.skipped }

// pollReader is the FollowSource's refill policy: the current end of the
// underlying input is "not yet", not EOF. Read blocks (polling) until new
// bytes arrive, and ends the input with io.EOF once the source is closed
// or with ErrIdleTimeout once the idle budget runs out.
type pollReader struct {
	fs *FollowSource
	r  io.Reader
}

func (pr *pollReader) Read(b []byte) (int, error) {
	for idle := time.Duration(0); ; idle += pr.fs.cfg.Poll {
		if pr.fs.closed.Load() {
			return 0, io.EOF
		}
		n, err := pr.r.Read(b)
		if n > 0 || (err != nil && err != io.EOF) {
			return n, err
		}
		if pr.fs.cfg.Idle > 0 && idle >= pr.fs.cfg.Idle {
			return 0, ErrIdleTimeout
		}
		time.Sleep(pr.fs.cfg.Poll)
	}
}

// Stream yields packets as their records complete, blocking on the tail.
func (fs *FollowSource) Stream() packet.Stream {
	return func(yield func(packet.Packet) bool) {
		if !fs.r.opened {
			if err := fs.r.open(); err != nil {
				fs.end(err)
				return
			}
		}
		var p packet.Packet
		for {
			if err := fs.r.next(&p); err != nil {
				fs.end(err)
				return
			}
			if !yield(p) {
				return
			}
		}
	}
}

// end records why the stream stopped. The poll reader ends the input only
// on Close, so an end-of-input error — on a record boundary or inside a
// record the writer never finished — is a clean stop.
func (fs *FollowSource) end(err error) {
	switch {
	case errors.Is(err, ErrIdleTimeout):
		fs.err = ErrIdleTimeout
	case !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF):
		fs.err = err
	}
}

// Err reports why the stream ended: nil after Close or a clean whole-
// record boundary, ErrIdleTimeout, or the decode/read failure.
func (fs *FollowSource) Err() error {
	if fs.closed.Load() && fs.err == ErrIdleTimeout {
		return nil
	}
	return fs.err
}

// Close stops the tail: the stream returns at the next poll boundary.
func (fs *FollowSource) Close() error {
	fs.closed.Store(true)
	var err error
	fs.closeOnce.Do(func() {
		if fs.closeFn != nil {
			err = fs.closeFn()
		}
	})
	return err
}

var _ packet.Source = (*FileSource)(nil)
var _ packet.Source = (*FollowSource)(nil)
