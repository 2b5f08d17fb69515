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

// Reader parses a pcap stream into packets.
type Reader struct {
	r        *bufio.Reader
	order    binary.ByteOrder
	nano     bool
	snapLen  int
	buf      []byte
	count    int64
	skipped  int64
	maxFrame int
	// hdr is the record-header scratch: a local would escape through
	// io.ReadFull and cost one heap allocation per record.
	hdr [pktHdrLen]byte
}

// fileHeader is the decoded global pcap header, shared by Reader and
// FollowSource.
type fileHeader struct {
	order   binary.ByteOrder
	nano    bool
	snapLen int
}

// parseFileHeader decodes the 24-byte global header: magic (both variants,
// both byte orders), snap length, link type.
func parseFileHeader(hdr []byte) (fileHeader, error) {
	var fh fileHeader
	magicLE := binary.LittleEndian.Uint32(hdr[0:4])
	magicBE := binary.BigEndian.Uint32(hdr[0:4])
	switch {
	case magicLE == magicMicro:
		fh.order = binary.LittleEndian
	case magicLE == magicNano:
		fh.order, fh.nano = binary.LittleEndian, true
	case magicBE == magicMicro:
		fh.order = binary.BigEndian
	case magicBE == magicNano:
		fh.order, fh.nano = binary.BigEndian, true
	default:
		return fh, ErrBadMagic
	}
	fh.snapLen = int(fh.order.Uint32(hdr[16:20]))
	if link := fh.order.Uint32(hdr[20:24]); link != linkEthernet {
		return fh, fmt.Errorf("pcap: unsupported link type %d", link)
	}
	return fh, nil
}

// recordTs converts a record header's (sec, frac) pair to virtual
// nanoseconds under the file's timestamp resolution.
func (fh fileHeader) recordTs(sec, frac int64) int64 {
	ts := sec * 1e9
	if fh.nano {
		return ts + frac
	}
	return ts + frac*1e3
}

// NewReader validates the file header and returns a Reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var hdr [fileHdrLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("pcap: reading file header: %w", err)
	}
	fh, err := parseFileHeader(hdr[:])
	if err != nil {
		return nil, err
	}
	return &Reader{r: br, maxFrame: 1 << 18, order: fh.order, nano: fh.nano, snapLen: fh.snapLen}, nil
}

// SnapLen returns the file's declared snap length.
func (r *Reader) SnapLen() int { return r.snapLen }

// Next returns the next decodable packet. Frames the packet codec cannot
// parse (non-IPv4, truncated below the L4 header) are counted in Skipped
// and passed over. io.EOF signals a clean end of file.
func (r *Reader) Next() (packet.Packet, error) {
	for {
		hdr := r.hdr[:]
		if _, err := io.ReadFull(r.r, hdr); err != nil {
			if err == io.EOF {
				return packet.Packet{}, io.EOF
			}
			return packet.Packet{}, fmt.Errorf("pcap: reading record header: %w", err)
		}
		sec := int64(r.order.Uint32(hdr[0:4]))
		frac := int64(r.order.Uint32(hdr[4:8]))
		capLen := int(r.order.Uint32(hdr[8:12]))
		origLen := int(r.order.Uint32(hdr[12:16]))
		if capLen < 0 || capLen > r.maxFrame {
			return packet.Packet{}, fmt.Errorf("pcap: implausible capture length %d", capLen)
		}
		ts := sec * 1e9
		if r.nano {
			ts += frac
		} else {
			ts += frac * 1e3
		}
		if cap(r.buf) < capLen {
			r.buf = make([]byte, capLen)
		}
		r.buf = r.buf[:capLen]
		if _, err := io.ReadFull(r.r, r.buf); err != nil {
			return packet.Packet{}, fmt.Errorf("pcap: reading %d-byte frame: %w", capLen, err)
		}
		p, err := packet.Decode(r.buf, ts, origLen)
		if err != nil {
			r.skipped++
			continue
		}
		r.count++
		return p, nil
	}
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
