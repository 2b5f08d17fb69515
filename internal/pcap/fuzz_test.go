package pcap

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/iotest"
)

// FuzzReader: whatever the bytes — after a valid file header, or as the
// whole file, header included — the Reader never panics, keeps its window
// within windowLen or one maximal record (drain checks both), and reads
// what refParse reads through Next and through NextBatch alike, so it
// never consumes past the input or past a record it has not seen whole.
// The committed seeds under testdata/fuzz are cuts of a valid capture at
// each kind of boundary, a corrupt length and the big-endian flavour.
func FuzzReader(f *testing.F) {
	base := capture(true, binary.LittleEndian, DefaultSnapLen, testFrames(f, 6))
	f.Add(base[fileHdrLen:], true)
	f.Add(base, false)
	f.Fuzz(func(t *testing.T, data []byte, validHeader bool) {
		raw := data
		if validHeader {
			raw = append(capture(true, binary.LittleEndian, DefaultSnapLen, nil), data...)
		}
		want, hdrErr := refParse(raw, defaultMaxFrame)
		r, err := NewReader(bytes.NewReader(raw))
		if (err != nil) != (hdrErr != nil) {
			t.Fatalf("NewReader error %v, reference %v", err, hdrErr)
		}
		if err != nil {
			return
		}
		if d := drain(t, r, 0).diff(want); d != "" {
			t.Fatalf("Next: %s", d)
		}
		r, _ = NewReader(iotest.OneByteReader(bytes.NewReader(raw)))
		if d := drain(t, r, 7).diff(want); d != "" {
			t.Fatalf("NextBatch: %s", d)
		}
	})
}
