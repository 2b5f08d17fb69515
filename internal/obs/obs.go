// Package obs is SmartWatch's observability layer: a metrics registry of
// sharded counters, gauges and fixed-bucket histograms, plus a periodic
// snapshot emitter (DESIGN.md §10). It exists so the quantities the
// paper's evaluation hinges on — per-tier packet fates, FlowCache
// occupancy and eviction-ring drops, mode-switch churn, sNIC input-buffer
// loss — are visible at runtime instead of only in the end-of-run report.
//
// Two properties shape every API here:
//
//   - Branch-cheap when disabled. Every instrument method is nil-safe:
//     a nil *Registry hands out nil instruments, and a nil instrument's
//     Add/Set/Observe is a single predictable branch — no atomic
//     operations, no allocations, no map lookups on the hot path
//     (BenchmarkDisabledInstruments proves zero cost).
//
//   - Deterministic when enabled. Snapshots are virtual-time stamped and
//     marshal to canonical JSON (sorted keys), so two runs that perform
//     the same virtual-time work emit byte-identical snapshot lines.
//     Which series are deterministic across shard/batch settings is part
//     of each metric's contract, documented in DESIGN.md §10.
//
// Instruments are created up front (at wiring time) and retained by the
// instrumented component; name lookup never happens per packet. Counters
// are cumulative, gauges are last-write-wins instantaneous values, and
// histograms count observations into fixed buckets chosen at creation.
package obs

import (
	"sync"
	"sync/atomic"
)

// Registry owns a process's instruments and the collectors that enrich
// snapshots with pull-based series. The zero value is not usable; a nil
// *Registry is the documented "metrics disabled" state and every method
// tolerates it.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	hists      map[string]*Histogram
	collectors []Collector
	// last caches the most recent snapshot for observers on other
	// goroutines (the expvar endpoint): collectors may read structures
	// that are only safe from the driving goroutine, so concurrent
	// readers get the cached snapshot instead of triggering a collection.
	last atomic.Pointer[Snapshot]
}

// Collector is a pull-based snapshot enricher: it runs inside
// Registry.Snapshot on the caller's goroutine and writes gauges/counters
// directly into the snapshot (e.g. FlowCache occupancy, host store depth).
type Collector func(*Snapshot)

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns (creating on first use) the named counter. A nil
// registry returns a nil counter, whose methods are no-ops.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating on first use) the named gauge. A nil registry
// returns a nil gauge, whose methods are no-ops.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating on first use) the named histogram with the
// given ascending bucket upper bounds; observations land in the first
// bucket whose bound exceeds the value, with one implicit overflow bucket
// at the end. Bounds are fixed at creation — a second call with different
// bounds returns the existing histogram unchanged. A nil registry returns
// a nil histogram, whose methods are no-ops.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// AddCollector registers a pull-based snapshot enricher. Collectors run
// in registration order inside Snapshot. No-op on a nil registry.
func (r *Registry) AddCollector(fn Collector) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, fn)
}

// Snapshot materialises every instrument plus all collector series into
// one virtual-time-stamped snapshot, and caches it for LastSnapshot. It
// must run on the goroutine that owns the pull-based state (the platform
// driver); concurrent observers use LastSnapshot. A nil registry returns
// nil.
func (r *Registry) Snapshot(tsNs int64) *Snapshot {
	if r == nil {
		return nil
	}
	s := &Snapshot{
		TsNs:       tsNs,
		Counters:   map[string]uint64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramValue{},
	}
	r.mu.Lock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Value()
	}
	collectors := r.collectors
	r.mu.Unlock()
	for _, fn := range collectors {
		fn(s)
	}
	r.last.Store(s)
	return s
}

// LastSnapshot returns the most recent Snapshot result (nil before the
// first). Safe from any goroutine — this is what live HTTP observers
// should serve.
func (r *Registry) LastSnapshot() *Snapshot {
	if r == nil {
		return nil
	}
	return r.last.Load()
}
