package packet

import (
	"runtime"
	"testing"
	"time"
)

func seqStream(n int) Stream {
	return func(yield func(Packet) bool) {
		for i := 0; i < n; i++ {
			if !yield(Packet{Ts: int64(i), Size: uint16(i)}) {
				return
			}
		}
	}
}

func TestBufferedPreservesOrder(t *testing.T) {
	for _, batch := range []int{1, 3, 256, 10_000} {
		got := Collect(Buffered(seqStream(1000), batch))
		if len(got) != 1000 {
			t.Fatalf("batch %d: got %d packets, want 1000", batch, len(got))
		}
		for i, p := range got {
			if p.Ts != int64(i) {
				t.Fatalf("batch %d: packet %d has Ts %d (reordered)", batch, i, p.Ts)
			}
		}
	}
}

func TestBufferedEmptyStream(t *testing.T) {
	if got := Collect(Buffered(seqStream(0), 64)); len(got) != 0 {
		t.Fatalf("empty stream yielded %d packets", len(got))
	}
}

func TestBufferedDefaultBatch(t *testing.T) {
	if n := Count(Buffered(seqStream(700), 0)); n != 700 {
		t.Fatalf("got %d packets, want 700", n)
	}
}

// TestBufferedEarlyStop ensures an abandoned consumer does not strand the
// producer goroutine (the stop channel must unblock its pending handoff).
func TestBufferedEarlyStop(t *testing.T) {
	before := runtime.NumGoroutine()
	for trial := 0; trial < 50; trial++ {
		n := 0
		for range Buffered(seqStream(100_000), 64) {
			n++
			if n == 5 {
				break
			}
		}
		if n != 5 {
			t.Fatalf("consumed %d packets, want 5", n)
		}
	}
	// Producers exit asynchronously after the stop signal; poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines grew from %d to %d: producer leak", before, runtime.NumGoroutine())
}

// TestBufferedBatchesShape checks the vector contract: every yielded
// batch is non-empty, all but the last are exactly batch long, the odd
// tail carries the remainder, and concatenation reproduces the source.
func TestBufferedBatchesShape(t *testing.T) {
	for _, tc := range []struct{ n, batch int }{
		{1000, 64}, // odd tail: 1000 = 15*64 + 40
		{1000, 7},  // odd tail: 1000 = 142*7 + 6
		{512, 256}, // exact multiple, no tail
		{5, 256},   // single short batch
		{1000, 1},  // degenerate batch size
		{100, 0},   // default batch (256) larger than stream
	} {
		var got []Packet
		batches := 0
		last := -1
		want := tc.batch
		if want < 1 {
			want = 256
		}
		for b := range BufferedBatches(seqStream(tc.n), tc.batch) {
			if len(b) == 0 {
				t.Fatalf("n=%d batch=%d: empty batch yielded", tc.n, tc.batch)
			}
			if last >= 0 && last != want {
				t.Fatalf("n=%d batch=%d: non-final batch of %d packets, want %d", tc.n, tc.batch, last, want)
			}
			last = len(b)
			batches++
			got = append(got, b...) // copy out: b is recycled after yield
		}
		if len(got) != tc.n {
			t.Fatalf("n=%d batch=%d: got %d packets", tc.n, tc.batch, len(got))
		}
		wantBatches := (tc.n + want - 1) / want
		if batches != wantBatches {
			t.Fatalf("n=%d batch=%d: %d batches, want %d", tc.n, tc.batch, batches, wantBatches)
		}
		for i, p := range got {
			if p.Ts != int64(i) {
				t.Fatalf("n=%d batch=%d: packet %d has Ts %d (reordered)", tc.n, tc.batch, i, p.Ts)
			}
		}
	}
}

// TestBufferedBatchesEarlyStop ensures breaking out of the batch loop
// stops the producer without stranding its goroutine.
func TestBufferedBatchesEarlyStop(t *testing.T) {
	before := runtime.NumGoroutine()
	for trial := 0; trial < 50; trial++ {
		n := 0
		for b := range BufferedBatches(seqStream(100_000), 64) {
			n += len(b)
			if n >= 128 {
				break
			}
		}
		if n != 128 {
			t.Fatalf("consumed %d packets, want 128", n)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines grew from %d to %d: producer leak", before, runtime.NumGoroutine())
}

// TestBufferedInfiniteSourceEarlyStop exercises the Limit-style pattern
// against a source that never ends on its own.
func TestBufferedInfiniteSourceEarlyStop(t *testing.T) {
	infinite := func(yield func(Packet) bool) {
		for i := 0; ; i++ {
			if !yield(Packet{Ts: int64(i)}) {
				return
			}
		}
	}
	got := Collect(Limit(Buffered(infinite, 32), 1000))
	if len(got) != 1000 {
		t.Fatalf("got %d packets, want 1000", len(got))
	}
	for i, p := range got {
		if p.Ts != int64(i) {
			t.Fatalf("packet %d has Ts %d", i, p.Ts)
		}
	}
}

// TestBufferedBatchesRecyclingNoAliasing pins the recycling contract: the
// yielded slice is the consumer's alone for the whole loop body, even
// while the producer races ahead filling the other free-list buffers.
// The consumer stalls mid-body (forcing the producer as far ahead as the
// free list allows), re-reads the batch after the stall, and checks a
// copy taken at entry — any buffer handed back to the producer too early
// shows up as a torn read here, and as a write-during-read under -race.
func TestBufferedBatchesRecyclingNoAliasing(t *testing.T) {
	const (
		n     = 40_000
		batch = 64
	)
	next := int64(0)
	kept := make([]Packet, 0, batch) // copy of the previous batch (contract-compliant retention)
	keptStart := int64(-1)
	for b := range BufferedBatches(seqStream(n), batch) {
		entry := append([]Packet(nil), b...)

		// Stall so the producer overwrites every recycled buffer it can
		// reach before this body finishes.
		if next%(17*batch) == 0 {
			time.Sleep(200 * time.Microsecond)
		} else {
			runtime.Gosched()
		}

		// The live batch must be untouched by the producer's progress.
		for i := range b {
			if b[i] != entry[i] || b[i].Ts != next+int64(i) {
				t.Fatalf("batch starting at %d: index %d torn: entry %v now %v", next, i, entry[i], b[i])
			}
		}
		// The copied previous batch survives recycling of its source buffer.
		for i := range kept {
			if kept[i].Ts != keptStart+int64(i) {
				t.Fatalf("retained copy of batch at %d corrupted at %d: %v", keptStart, i, kept[i])
			}
		}
		kept, keptStart = append(kept[:0], b...), next
		next += int64(len(b))
	}
	if next != n {
		t.Fatalf("consumed %d packets, want %d", next, n)
	}
}

// BenchmarkBuffered measures the producer/consumer stream bridge: the
// per-packet overhead of handing batches across the goroutine boundary.
func BenchmarkBuffered(b *testing.B) {
	b.ReportAllocs()
	n := 0
	for range Buffered(seqStream(b.N), 512) {
		n++
	}
	if n != b.N {
		b.Fatalf("saw %d packets, want %d", n, b.N)
	}
}
