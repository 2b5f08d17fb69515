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
	"math/bits"

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

// Writer serializes packets to a pcap stream.
type Writer struct {
	w       *bufio.Writer
	snapLen int
	opts    packet.EncodeOptions
	buf     []byte
	started bool
	count   int64
}

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
	return &Writer{w: bufio.NewWriterSize(w, 1<<16), snapLen: cfg.SnapLen, opts: cfg.Encode}
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

// WritePacket serializes p and appends one capture record.
func (w *Writer) WritePacket(p *packet.Packet) error {
	if !w.started {
		if err := w.writeHeader(); err != nil {
			return err
		}
		w.started = true
	}
	w.buf = w.buf[:0]
	frame, err := packet.Encode(w.buf, p, w.opts)
	if err != nil {
		return err
	}
	w.buf = frame
	origLen := len(frame)
	capLen := origLen
	if capLen > w.snapLen {
		capLen = w.snapLen
	}
	var hdr [pktHdrLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(p.Ts/1e9))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(p.Ts%1e9))
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(capLen))
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(origLen))
	if _, err := w.w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.w.Write(frame[:capLen]); err != nil {
		return err
	}
	w.count++
	return nil
}

// Count returns the number of packets written.
func (w *Writer) Count() int64 { return w.count }

// Flush writes buffered data through. An empty capture still gets a valid
// file header.
func (w *Writer) Flush() error {
	if !w.started {
		if err := w.writeHeader(); err != nil {
			return err
		}
		w.started = true
	}
	return w.w.Flush()
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
