package pcap

import (
	"bytes"
	"testing"

	"smartwatch/internal/packet"
)

func seq(ts ...int64) []packet.Packet {
	out := make([]packet.Packet, len(ts))
	for i, t := range ts {
		out[i] = mkPkt(t, uint16(1000+i), 100)
	}
	return out
}

func timestamps(pkts []packet.Packet) []int64 {
	out := make([]int64, len(pkts))
	for i := range pkts {
		out[i] = pkts[i].Ts
	}
	return out
}

func TestShift(t *testing.T) {
	got := packet.Collect(Shift(packet.StreamOf(seq(10, 20, 30)), 5))
	want := []int64{15, 25, 35}
	for i, ts := range timestamps(got) {
		if ts != want[i] {
			t.Errorf("ts[%d] = %d, want %d", i, ts, want[i])
		}
	}
}

func TestTruncate(t *testing.T) {
	pkts := seq(1, 2)
	pkts[0].Size = 1500
	pkts[1].Size = 40
	got := packet.Collect(Truncate(packet.StreamOf(pkts), 64))
	if got[0].Size != 64 {
		t.Errorf("large packet Size = %d, want 64", got[0].Size)
	}
	if got[1].Size != 40 {
		t.Errorf("small packet Size = %d, want 40 (untouched)", got[1].Size)
	}
	if got[0].PayloadLen != pkts[0].PayloadLen {
		t.Errorf("PayloadLen must survive truncation")
	}
}

func TestMergeOrdering(t *testing.T) {
	a := packet.StreamOf(seq(1, 4, 7))
	b := packet.StreamOf(seq(2, 5, 8))
	c := packet.StreamOf(seq(3, 6, 9))
	got := timestamps(packet.Collect(Merge(a, b, c)))
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("merge out of order at %d: %v", i, got)
		}
	}
	if len(got) != 9 {
		t.Fatalf("merged %d packets, want 9", len(got))
	}
}

func TestMergeWithEmptyStreams(t *testing.T) {
	got := packet.Collect(Merge(packet.StreamOf(nil), packet.StreamOf(seq(5)), packet.StreamOf(nil)))
	if len(got) != 1 || got[0].Ts != 5 {
		t.Errorf("got %v", timestamps(got))
	}
	if got := packet.Collect(Merge()); got != nil {
		t.Errorf("empty merge should be empty")
	}
}

func TestMergeEarlyStop(t *testing.T) {
	// Consuming only part of a merged stream must not hang or panic (pull
	// iterators must be stopped).
	m := Merge(packet.StreamOf(seq(1, 2, 3)), packet.StreamOf(seq(4, 5, 6)))
	n := 0
	for range m {
		n++
		if n == 2 {
			break
		}
	}
	if n != 2 {
		t.Errorf("consumed %d", n)
	}
}

func TestWriteReadStreamPipeline(t *testing.T) {
	// End-to-end: generate, shift, merge, truncate, write to file, read
	// back, confirm ordering and lengths — the exact preparation pipeline
	// used for evaluation traces.
	background := packet.StreamOf(seq(0, 1000, 2000, 3000))
	attack := Shift(packet.StreamOf(seq(0, 500)), 1500) // lands at 1500, 2000
	merged := Truncate(Merge(background, attack), 64)

	var buf bytes.Buffer
	w := NewWriter(&buf, WriterConfig{SnapLen: 96})
	if err := WriteStream(w, merged); err != nil {
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
	if len(got) != 6 {
		t.Fatalf("got %d packets, want 6", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Ts < got[i-1].Ts {
			t.Fatalf("pipeline broke ordering: %v", timestamps(got))
		}
	}
	for i := range got {
		if got[i].Size > 64 {
			t.Errorf("packet %d size %d > 64", i, got[i].Size)
		}
	}
}
