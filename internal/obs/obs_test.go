package obs

import (
	"bytes"
	"testing"
)

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
	h := r.Histogram("z", []float64{1})
	h.Observe(1)
	if h.Value().Count != 0 {
		t.Fatal("a nil histogram must read zero")
	}
	var s *Snapshot
	s.SetCounter("x", 1)
	s.SetGauge("y", 1)
	if s.Filter("x") != nil {
		t.Fatal("a nil snapshot must read zero")
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
	if r.Histogram("c", []float64{1, 2}) != r.Histogram("c", []float64{9}) {
		t.Fatal("Histogram not memoised")
	}
}

func TestSnapshotAndCollector(t *testing.T) {
	r := NewRegistry()
	r.Histogram("lat", []float64{100}).Observe(42)
	r.AddCollector(func(s *Snapshot) { s.SetCounter("pkts", 7); s.SetGauge("occ", 0.5) })
	r.AddCollector(func(s *Snapshot) {
		s.SetCounter("pulled.count", 11)
		s.SetGauge("pulled.depth", 3)
	})
	s := r.Snapshot(1000)
	if s.TsNs != 1000 {
		t.Fatalf("TsNs = %d", s.TsNs)
	}
	if s.Counters["pkts"] != 7 || s.Counters["pulled.count"] != 11 {
		t.Fatalf("counters wrong: %+v", s.Counters)
	}
	if s.Gauges["occ"] != 0.5 || s.Gauges["pulled.depth"] != 3 {
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
	r.AddCollector(func(s *Snapshot) {
		s.SetCounter("flowcache.reads", 1)
		s.SetCounter("host.flushes", 2)
		s.SetGauge("flowcache.occupancy", 0.1)
	})
	s := r.Snapshot(0).Filter("flowcache.")
	if len(s.Counters) != 1 || s.Counters["flowcache.reads"] != 1 {
		t.Fatalf("filtered counters: %+v", s.Counters)
	}
	if len(s.Gauges) != 1 {
		t.Fatalf("filtered gauges: %+v", s.Gauges)
	}
}

func TestEncodeCanonical(t *testing.T) {
	build := func() []byte {
		r := NewRegistry()
		r.AddCollector(func(s *Snapshot) {
			s.SetCounter("b", 2)
			s.SetCounter("a", 1)
			s.SetGauge("z", 9)
			s.SetGauge("m", -3.5)
		})
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
	h := r.Histogram("n", []float64{1})
	h.Observe(0)
	var buf bytes.Buffer
	e := NewEmitter(r, &buf)
	e.Emit(100)
	h.Observe(0)
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
	h := r.Histogram("h", []float64{1})
	allocs := testing.AllocsPerRun(100, func() {
		h.Observe(1)
		r.Histogram("again", nil).Observe(1)
	})
	if allocs != 0 {
		t.Fatalf("disabled path allocates: %v allocs/op", allocs)
	}
}
