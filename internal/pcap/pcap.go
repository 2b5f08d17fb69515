// Package pcap reads and writes classic libpcap capture files and provides
// the trace-preparation operations the SmartWatch evaluation performs with
// editcap/mergecap/tcprewrite: timestamp shifting, k-way trace merging, and
// packet truncation (the paper's 64-byte stress traces).
//
// Both microsecond (0xa1b2c3d4) and nanosecond (0xa1b23c4d) magic variants
// are supported in either byte order on read; files are written in the
// nanosecond variant because all SmartWatch timestamps are virtual
// nanoseconds.
package pcap

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sync/atomic"

	"smartwatch/internal/packet"
)

const (
	magicMicro   = 0xa1b2c3d4
	magicNano    = 0xa1b23c4d
	versionMajor = 2
	versionMinor = 4
	linkEthernet = 1
	fileHdrLen   = 24
	pktHdrLen    = 16
	// DefaultSnapLen is the capture length written when none is configured.
	DefaultSnapLen = 65535
)

// ErrBadMagic is returned for files that do not start with a pcap magic.
var ErrBadMagic = errors.New("pcap: bad magic number")

// Writer serializes packets to a pcap stream. WritePacket only checks a
// packet and copies it into a batch; the frames are built on an encoder
// goroutine, which appends each record — its header, then only the
// captured prefix of the frame — straight into the output buffer. The
// first WritePacket starts that goroutine and Flush ends it, so a Writer
// that is never flushed loses its buffered bytes and leaves its goroutine
// parked. A Writer is not safe for concurrent use.
type Writer struct {
	w       *bufio.Writer // the encoder's while it runs, like started
	snapLen int
	reserve int // room a record may need in w: header plus captured frame
	opts    packet.EncodeOptions
	started bool // file header written
	count   int64
	err     error // first encoder or flush error, returned from then on

	batch  []packet.Packet      // filled by WritePacket
	full   chan []packet.Packet // batches to encode; nil while no encoder runs
	free   chan []packet.Packet // encoded batches back to WritePacket
	done   chan error           // the encoder's first error, as it exits
	failed atomic.Bool          // the encoder has hit an error
}

const (
	// writerBatch is how many packets WritePacket copies per handoff to the
	// encoder. A handoff can wake a parked goroutine, which costs
	// microseconds on a small VM: on backbone's 3 M-packet capture (2
	// vCPUs) 1 024 packets per handoff wrote 14 % faster than 256.
	writerBatch = 1024
	// writerDepth is the number of batches in flight, as in
	// packet.BufferedBatches: one being filled, one being encoded and two
	// queued, so neither side stalls on a momentary speed mismatch.
	writerDepth = 4
	// maxWireLen exceeds any frame packet.Encode builds (headers plus a
	// 16-bit payload): no record needs more than pktHdrLen+maxWireLen.
	maxWireLen = 1 << 17
)

// WriterConfig configures a Writer.
type WriterConfig struct {
	// SnapLen truncates each serialized frame to this many bytes (caplen),
	// like `tcprewrite --mtu` / the paper's 64 B stress traces. Zero means
	// DefaultSnapLen.
	SnapLen int
	// Encode controls frame serialization (metadata embedding, MACs).
	Encode packet.EncodeOptions
}

// NewWriter returns a Writer with the given configuration.
func NewWriter(w io.Writer, cfg WriterConfig) *Writer {
	if cfg.SnapLen <= 0 {
		cfg.SnapLen = DefaultSnapLen
	}
	reserve := pktHdrLen + min(cfg.SnapLen, maxWireLen)
	// Twice the largest record, so a buffer that must be flushed to fit
	// the next record holds at least half its size.
	size := max(1<<16, 2*reserve)
	return &Writer{w: bufio.NewWriterSize(w, size), snapLen: cfg.SnapLen, reserve: reserve, opts: cfg.Encode}
}

func (w *Writer) writeHeader() error {
	var hdr [fileHdrLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], magicNano)
	binary.LittleEndian.PutUint16(hdr[4:6], versionMajor)
	binary.LittleEndian.PutUint16(hdr[6:8], versionMinor)
	// thiszone, sigfigs zero.
	binary.LittleEndian.PutUint32(hdr[16:20], uint32(w.snapLen))
	binary.LittleEndian.PutUint32(hdr[20:24], linkEthernet)
	_, err := w.w.Write(hdr[:])
	return err
}

// WritePacket appends one capture record for p. A packet without a wire
// form (packet.Encodable) or whose timestamp a record header cannot hold
// (before 0 or past 2^32 s) is refused before anything is written. An
// I/O error surfaces at a later WritePacket or at Flush, and every call
// returns it from then on.
func (w *Writer) WritePacket(p *packet.Packet) error {
	if w.err == nil && w.failed.Load() {
		w.stop()
	}
	if w.err != nil {
		return w.err
	}
	if err := packet.Encodable(p); err != nil {
		return err
	}
	if p.Ts < 0 || p.Ts/1e9 > math.MaxUint32 {
		return fmt.Errorf("pcap: timestamp %d ns is outside a record header's 0 to 2^32 s", p.Ts)
	}
	if w.full == nil {
		w.start()
	}
	w.batch = append(w.batch, *p)
	w.count++
	if len(w.batch) == cap(w.batch) {
		w.full <- w.batch
		w.batch = (<-w.free)[:0]
	}
	return nil
}

// start launches the encoder, allocating the batches on the first call.
func (w *Writer) start() {
	if w.free == nil {
		store := make([]packet.Packet, writerDepth*writerBatch)
		w.free = make(chan []packet.Packet, writerDepth)
		for i := 1; i < writerDepth; i++ {
			w.free <- store[i*writerBatch : i*writerBatch : (i+1)*writerBatch]
		}
		w.batch = store[:0:writerBatch]
		w.done = make(chan error, 1)
	}
	w.full = make(chan []packet.Packet, writerDepth)
	go w.encode(w.full)
}

// stop hands the encoder the partial batch, waits for it to exit and
// keeps its error.
func (w *Writer) stop() {
	if len(w.batch) > 0 {
		w.full <- w.batch
		w.batch = (<-w.free)[:0]
	}
	close(w.full)
	w.full = nil
	w.err = <-w.done
}

// encode is the encoder goroutine. It returns every batch to free, after
// an error too, so WritePacket never waits on a failed encoder.
func (w *Writer) encode(full <-chan []packet.Packet) {
	var err error
	for b := range full {
		if err == nil {
			if err = w.encodeBatch(b); err != nil {
				w.failed.Store(true)
			}
		}
		w.free <- b
	}
	w.done <- err
}

func (w *Writer) encodeBatch(b []packet.Packet) error {
	if !w.started {
		if err := w.writeHeader(); err != nil {
			return err
		}
		w.started = true
	}
	for i := range b {
		if w.w.Available() < w.reserve {
			if err := w.w.Flush(); err != nil {
				return err
			}
		}
		rec, origLen, err := packet.Encode(w.w.AvailableBuffer()[:pktHdrLen], &b[i], w.opts, w.snapLen)
		if err != nil {
			return err
		}
		ts := b[i].Ts
		binary.LittleEndian.PutUint32(rec[0:4], uint32(ts/1e9))
		binary.LittleEndian.PutUint32(rec[4:8], uint32(ts%1e9))
		binary.LittleEndian.PutUint32(rec[8:12], uint32(len(rec)-pktHdrLen))
		binary.LittleEndian.PutUint32(rec[12:16], uint32(origLen))
		if _, err := w.w.Write(rec); err != nil {
			return err
		}
	}
	return nil
}

// Count returns the number of packets accepted by WritePacket.
func (w *Writer) Count() int64 { return w.count }

// Flush encodes every accepted packet, ends the encoder goroutine and
// writes the buffered bytes through, returning the first error. An empty
// capture still gets a valid file header. WritePacket may follow: the
// file goes on with more records.
func (w *Writer) Flush() error {
	if w.full != nil {
		w.stop()
	}
	if w.err != nil {
		return w.err
	}
	if !w.started {
		if err := w.writeHeader(); err != nil {
			return err
		}
		w.started = true
	}
	w.err = w.w.Flush()
	return w.err
}

// Reader parses a pcap stream into packets. It is the package's one record
// walker: a byte window buf[lo:hi] over the input that it refills itself,
// with record headers parsed and frames decoded in place. lo <= hi always,
// and a record is consumed (lo advanced) only once its header and body are
// both resident — so a source that stops mid-record and resumes later (the
// FollowSource's polling reader) loses nothing.
type Reader struct {
	src      io.Reader
	buf      []byte
	lo, hi   int
	opened   bool
	swapped  bool // file byte order is big-endian
	nano     bool
	snapLen  int
	maxFrame int
	count    int64
	skipped  int64
}

const (
	// windowLen is the read window; it grows only for a frame that does
	// not fit, and never beyond maxFrame plus a record header.
	windowLen = 1 << 16
	// defaultMaxFrame rejects implausible capture lengths before any
	// growth: a corrupt length field must error, not allocate or stall.
	defaultMaxFrame = 1 << 18
	// maxEmptyReads is how many consecutive (0, nil) reads fill tolerates.
	maxEmptyReads = 100
)

// NewReader validates the file header and returns a Reader.
func NewReader(r io.Reader) (*Reader, error) {
	rd := &Reader{src: r, maxFrame: defaultMaxFrame}
	if err := rd.open(); err != nil {
		return nil, err
	}
	return rd, nil
}

// open consumes the 24-byte global header: magic (both variants, both byte
// orders, resolved here once), snap length, link type.
func (r *Reader) open() error {
	if r.buf == nil {
		r.buf = make([]byte, windowLen)
	}
	if err := r.fill(fileHdrLen); err != nil {
		return fmt.Errorf("pcap: reading file header: %w", err)
	}
	hdr := r.buf[r.lo : r.lo+fileHdrLen]
	magic := binary.LittleEndian.Uint32(hdr[0:4])
	r.swapped = magic == bits.ReverseBytes32(magicMicro) || magic == bits.ReverseBytes32(magicNano)
	switch r.u32(hdr[0:4]) {
	case magicMicro:
	case magicNano:
		r.nano = true
	default:
		return ErrBadMagic
	}
	r.snapLen = int(r.u32(hdr[16:20]))
	if link := r.u32(hdr[20:24]); link != linkEthernet {
		return fmt.Errorf("pcap: unsupported link type %d", link)
	}
	r.lo += fileHdrLen
	r.opened = true
	return nil
}

// u32 reads a header field in the file's byte order.
func (r *Reader) u32(b []byte) uint32 {
	v := binary.LittleEndian.Uint32(b)
	if r.swapped {
		v = bits.ReverseBytes32(v)
	}
	return v
}

// fill makes at least n unconsumed bytes resident, sliding the tail of the
// window down and growing it only when n does not fit. A source that ends
// first is io.EOF with nothing resident — a record boundary — and
// io.ErrUnexpectedEOF otherwise; any other error is the source's own.
func (r *Reader) fill(n int) error {
	if r.lo > 0 {
		r.hi = copy(r.buf, r.buf[r.lo:r.hi])
		r.lo = 0
	}
	if n > len(r.buf) {
		r.buf = append(make([]byte, 0, n), r.buf[:r.hi]...)[:n]
	}
	for empty := 0; r.hi < n; {
		m, err := r.src.Read(r.buf[r.hi:])
		r.hi += m
		switch {
		case r.hi >= n: // an error that came with the last bytes comes again
		case err == io.EOF && r.hi > 0:
			return io.ErrUnexpectedEOF
		case err != nil:
			return err
		case m > 0:
			empty = 0
		default:
			if empty++; empty >= maxEmptyReads {
				return io.ErrNoProgress
			}
		}
	}
	return nil
}

// SnapLen returns the file's declared snap length.
func (r *Reader) SnapLen() int { return r.snapLen }

// next decodes the next decodable packet into *p, passing over (and
// counting) frames the codec cannot parse. io.EOF, returned bare, means
// the input ended on a record boundary.
func (r *Reader) next(p *packet.Packet) error {
	for {
		if r.hi-r.lo < pktHdrLen {
			if err := r.fill(pktHdrLen); err != nil {
				if err == io.EOF {
					return io.EOF
				}
				return fmt.Errorf("pcap: reading record header: %w", err)
			}
		}
		hdr := r.buf[r.lo : r.lo+pktHdrLen]
		ts := int64(r.u32(hdr[0:4])) * 1e9
		if frac := int64(r.u32(hdr[4:8])); r.nano {
			ts += frac
		} else {
			ts += frac * 1e3
		}
		capLen := int(r.u32(hdr[8:12]))
		origLen := int(r.u32(hdr[12:16]))
		if capLen < 0 || capLen > r.maxFrame {
			return fmt.Errorf("pcap: implausible capture length %d", capLen)
		}
		end := r.lo + pktHdrLen + capLen
		if end > r.hi {
			if err := r.fill(pktHdrLen + capLen); err != nil {
				return fmt.Errorf("pcap: reading %d-byte frame: %w", capLen, err)
			}
			end = pktHdrLen + capLen
		}
		frame := r.buf[end-capLen : end]
		r.lo = end
		if packet.DecodeInto(p, frame, ts, origLen) != nil {
			r.skipped++
			continue
		}
		r.count++
		return nil
	}
}

// Next returns the next decodable packet. Frames the packet codec cannot
// parse (non-IPv4, truncated below the L4 header) are counted in Skipped
// and passed over. io.EOF signals a clean end of file.
func (r *Reader) Next() (packet.Packet, error) {
	var p packet.Packet
	if err := r.next(&p); err != nil {
		return packet.Packet{}, err
	}
	return p, nil
}

// NextBatch decodes up to len(dst) packets into dst and returns how many;
// a non-nil error (io.EOF on a clean end of file) may come with n > 0.
func (r *Reader) NextBatch(dst []packet.Packet) (int, error) {
	for i := range dst {
		if err := r.next(&dst[i]); err != nil {
			return i, err
		}
	}
	return len(dst), nil
}

// Count returns the number of packets successfully decoded so far.
func (r *Reader) Count() int64 { return r.count }

// Skipped returns the number of undecodable frames passed over.
func (r *Reader) Skipped() int64 { return r.skipped }

// ReadAll drains the stream into a slice. Intended for tests and small
// traces; the simulators stream with Next.
func (r *Reader) ReadAll() ([]packet.Packet, error) {
	var out []packet.Packet
	for {
		p, err := r.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, p)
	}
}
