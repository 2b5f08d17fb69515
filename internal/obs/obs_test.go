package obs

import (
	"bytes"
	"sync"
	"testing"
)

func TestCounterShardedSum(t *testing.T) {
	var c Counter
	c.Add(3)
	c.AddShard(1, 4)
	c.AddShard(17, 5) // wraps onto shard 1
	if got := c.Value(); got != 12 {
		t.Fatalf("Value() = %d, want 12", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.AddShard(w, 1)
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("Value() = %d, want %d", got, workers*per)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	if g.Value() != 0 {
		t.Fatalf("zero gauge reads %v", g.Value())
	}
	g.Set(3.25)
	if g.Value() != 3.25 {
		t.Fatalf("Value() = %v, want 3.25", g.Value())
	}
	g.Set(-1)
	if g.Value() != -1 {
		t.Fatalf("Value() = %v, want -1", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := newHistogram([]float64{10, 100, 1000})
	for _, v := range []float64{5, 9.99, 10, 50, 1000, 99999} {
		h.Observe(v)
	}
	got := h.Value()
	wantBuckets := []uint64{2, 2, 0, 2} // [<10, <100, <1000, overflow]
	for i, want := range wantBuckets {
		if got.Buckets[i] != want {
			t.Fatalf("bucket %d = %d, want %d (all %v)", i, got.Buckets[i], want, got.Buckets)
		}
	}
	if got.Count != 6 {
		t.Fatalf("Count = %d, want 6", got.Count)
	}
	wantSum := 5 + 9.99 + 10 + 50 + 1000 + 99999.0
	if got.Sum != wantSum {
		t.Fatalf("Sum = %v, want %v", got.Sum, wantSum)
	}
}

func TestExpBounds(t *testing.T) {
	got := ExpBounds(100, 4, 4)
	want := []float64{100, 400, 1600, 6400}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpBounds = %v, want %v", got, want)
		}
	}
}

func TestNilSafety(t *testing.T) {
	// Every call on a nil registry / nil instrument must be a no-op.
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("y")
	h := r.Histogram("z", []float64{1})
	c.Add(1)
	c.AddShard(3, 1)
	g.Set(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Value().Count != 0 {
		t.Fatal("nil instruments must read zero")
	}
	r.AddCollector(func(*Snapshot) { t.Fatal("collector ran on nil registry") })
	if r.Snapshot(0) != nil || r.LastSnapshot() != nil {
		t.Fatal("nil registry methods must return nil")
	}
	var e *Emitter
	e.Emit(0)
	if e.Err() != nil {
		t.Fatal("nil emitter must be a no-op")
	}
}

func TestRegistryReturnsSameInstrument(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("Counter not memoised")
	}
	if r.Gauge("b") != r.Gauge("b") {
		t.Fatal("Gauge not memoised")
	}
	if r.Histogram("c", []float64{1, 2}) != r.Histogram("c", []float64{9}) {
		t.Fatal("Histogram not memoised")
	}
}

func TestSnapshotAndCollector(t *testing.T) {
	r := NewRegistry()
	r.Counter("pkts").Add(7)
	r.Gauge("occ").Set(0.5)
	r.Histogram("lat", []float64{100}).Observe(42)
	r.AddCollector(func(s *Snapshot) {
		s.SetCounter("pulled.count", 11)
		s.SetGauge("pulled.depth", 3)
	})
	s := r.Snapshot(1000)
	if s.TsNs != 1000 {
		t.Fatalf("TsNs = %d", s.TsNs)
	}
	if s.Counter("pkts") != 7 || s.Counter("pulled.count") != 11 {
		t.Fatalf("counters wrong: %+v", s.Counters)
	}
	if s.Gauge("occ") != 0.5 || s.Gauge("pulled.depth") != 3 {
		t.Fatalf("gauges wrong: %+v", s.Gauges)
	}
	if hv := s.Histograms["lat"]; hv.Count != 1 || hv.Buckets[0] != 1 {
		t.Fatalf("histogram wrong: %+v", s.Histograms)
	}
	if r.LastSnapshot() != s {
		t.Fatal("LastSnapshot must return the cached snapshot")
	}
}

func TestSnapshotFilter(t *testing.T) {
	r := NewRegistry()
	r.Counter("flowcache.reads").Add(1)
	r.Counter("host.flushes").Add(2)
	r.Gauge("flowcache.occupancy").Set(0.1)
	s := r.Snapshot(0).Filter("flowcache.")
	if len(s.Counters) != 1 || s.Counter("flowcache.reads") != 1 {
		t.Fatalf("filtered counters: %+v", s.Counters)
	}
	if len(s.Gauges) != 1 {
		t.Fatalf("filtered gauges: %+v", s.Gauges)
	}
}

func TestEncodeCanonical(t *testing.T) {
	build := func() []byte {
		r := NewRegistry()
		r.Counter("b").Add(2)
		r.Counter("a").Add(1)
		r.Gauge("z").Set(9)
		r.Gauge("m").Set(-3.5)
		r.Histogram("h", []float64{1, 10}).Observe(4)
		var buf bytes.Buffer
		if err := r.Snapshot(123).Encode(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := build(), build()
	if !bytes.Equal(a, b) {
		t.Fatalf("snapshot encoding not canonical:\n%s\n%s", a, b)
	}
	if a[len(a)-1] != '\n' {
		t.Fatal("Encode must end the line")
	}
}

func TestEmitter(t *testing.T) {
	r := NewRegistry()
	r.Counter("n").Add(1)
	var buf bytes.Buffer
	e := NewEmitter(r, &buf)
	e.Emit(100)
	r.Counter("n").Add(1)
	e.Emit(200)
	if e.Err() != nil {
		t.Fatal(e.Err())
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("want 2 lines, got %d: %q", len(lines), buf.String())
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errFail }

var errFail = &failErr{}

type failErr struct{}

func (*failErr) Error() string { return "boom" }

func TestEmitterStickyError(t *testing.T) {
	e := NewEmitter(NewRegistry(), failWriter{})
	e.Emit(1)
	e.Emit(2)
	if e.Err() == nil || e.n != 0 {
		t.Fatalf("want sticky error and zero count, got Err=%v count=%d", e.Err(), e.n)
	}
}

// BenchmarkDisabledInstruments proves the disabled path (nil registry ⇒
// nil instruments) costs only predictable branches: zero allocations and
// ~sub-ns per call.
func BenchmarkDisabledInstruments(b *testing.B) {
	var r *Registry
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", []float64{1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Add(1)
		c.AddShard(i, 1)
		g.Set(1)
		h.Observe(1)
	}
}

// BenchmarkEnabledCounter measures the enabled hot path: one atomic add,
// zero allocations.
func BenchmarkEnabledCounter(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("c")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.AddShard(i, 1)
	}
}

func BenchmarkEnabledHistogram(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("h", ExpBounds(100, 4, 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i & 0xffff))
	}
}

func TestDisabledZeroAlloc(t *testing.T) {
	var r *Registry
	c := r.Counter("c")
	allocs := testing.AllocsPerRun(100, func() {
		c.Add(1)
		r.Counter("again").Add(1)
	})
	if allocs != 0 {
		t.Fatalf("disabled path allocates: %v allocs/op", allocs)
	}
}
