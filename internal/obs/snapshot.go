package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Snapshot is one virtual-time-stamped materialisation of a Registry.
// encoding/json sorts map keys, so Encode output is canonical: two
// snapshots with equal contents marshal to byte-identical lines.
type Snapshot struct {
	// TsNs is the virtual timestamp the snapshot describes (interval
	// close time), not wall-clock.
	TsNs       int64                     `json:"ts_ns"`
	Counters   map[string]uint64         `json:"counters"`
	Gauges     map[string]float64        `json:"gauges"`
	Histograms map[string]HistogramValue `json:"histograms,omitempty"`
}

// SetCounter writes a counter series (collector convenience).
func (s *Snapshot) SetCounter(name string, v uint64) {
	if s == nil {
		return
	}
	s.Counters[name] = v
}

// SetGauge writes a gauge series (collector convenience).
func (s *Snapshot) SetGauge(name string, v float64) {
	if s == nil {
		return
	}
	s.Gauges[name] = v
}

// Counter returns the named counter series (0 when absent).
func (s *Snapshot) Counter(name string) uint64 {
	if s == nil {
		return 0
	}
	return s.Counters[name]
}

// Gauge returns the named gauge series (0 when absent).
func (s *Snapshot) Gauge(name string) float64 {
	if s == nil {
		return 0
	}
	return s.Gauges[name]
}

// Filter returns a copy holding only the series whose names start with one
// of the given prefixes — used by the determinism tests to compare the
// documented deterministic subset across shard counts.
func (s *Snapshot) Filter(prefixes ...string) *Snapshot {
	if s == nil {
		return nil
	}
	keep := func(name string) bool {
		for _, p := range prefixes {
			if strings.HasPrefix(name, p) {
				return true
			}
		}
		return false
	}
	out := &Snapshot{
		TsNs:       s.TsNs,
		Counters:   map[string]uint64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramValue{},
	}
	for name, v := range s.Counters {
		if keep(name) {
			out.Counters[name] = v
		}
	}
	for name, v := range s.Gauges {
		if keep(name) {
			out.Gauges[name] = v
		}
	}
	for name, v := range s.Histograms {
		if keep(name) {
			out.Histograms[name] = v
		}
	}
	return out
}

// AddPrefixed copies every series of o into s with the given name prefix
// — the cluster runner's metric-tree merge: worker N's final snapshot
// lands under "worker.N." next to the runner's own "cluster.*" series.
// Nil receivers and nil sources are no-ops.
func (s *Snapshot) AddPrefixed(prefix string, o *Snapshot) {
	if s == nil || o == nil {
		return
	}
	for name, v := range o.Counters {
		s.Counters[prefix+name] = v
	}
	for name, v := range o.Gauges {
		s.Gauges[prefix+name] = v
	}
	if len(o.Histograms) > 0 && s.Histograms == nil {
		s.Histograms = map[string]HistogramValue{}
	}
	for name, v := range o.Histograms {
		s.Histograms[prefix+name] = v
	}
}

// DecodeSnapshot parses one JSON snapshot line (the inverse of Encode).
func DecodeSnapshot(line []byte) (*Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(line, &s); err != nil {
		return nil, err
	}
	return &s, nil
}

// Encode writes the snapshot as one canonical JSON line.
func (s *Snapshot) Encode(w io.Writer) error {
	b, err := json.Marshal(s)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// Emitter periodically materialises a registry into JSON lines on a
// writer — one line per Emit call, stamped with the caller's virtual
// timestamp. It is driven from the platform's interval heartbeat, never
// from a wall-clock timer, so output is deterministic.
type Emitter struct {
	reg *Registry
	w   io.Writer
	n   int
	err error
}

// NewEmitter builds an emitter over reg writing to w. Either may be nil,
// yielding a no-op emitter.
func NewEmitter(reg *Registry, w io.Writer) *Emitter {
	return &Emitter{reg: reg, w: w}
}

// Emit snapshots the registry at virtual time tsNs and writes one JSON
// line. The first write error is sticky: later calls become no-ops and
// Err reports it.
func (e *Emitter) Emit(tsNs int64) {
	if e == nil || e.reg == nil || e.w == nil || e.err != nil {
		return
	}
	s := e.reg.Snapshot(tsNs)
	if err := s.Encode(e.w); err != nil {
		e.err = fmt.Errorf("obs: emit snapshot %d: %w", e.n, err)
		return
	}
	e.n++
}

// Err returns the first write error, if any.
func (e *Emitter) Err() error {
	if e == nil {
		return nil
	}
	return e.err
}
