package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"smartwatch/internal/detect"
	"smartwatch/internal/flowcache"
	"smartwatch/internal/packet"
	"smartwatch/internal/snic"
	"smartwatch/internal/stats"
	"smartwatch/internal/tier"
)

// This PR may not edit the program, so every span is recorded from here,
// around calls into each layer's public functions. Layers the benchmark
// can call directly (pcap decode, Session.Ingest, the detectors through
// Config.Detectors, the interval flush through the bus) are timed in the
// traced run itself; layers reachable only through the platform's pull
// chain are timed by replaying the exact packets that reached them
// (replay.go). In-program wall.<layer>_ns tracing is ROADMAP item 4.

// span is one timed interval. Spans of one vector share its id. Layers
// entered once per packet are recorded as one aggregated span per vector:
// Busy is the time inside, Calls how often.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the causing span, -1 for a root
	Vec    int    `json:"vec"`    // -1 outside the vector loop
	Busy   int64  `json:"busy_ns,omitempty"`
	Calls  int    `json:"calls,omitempty"`
}

// sampleEvery: detector calls are timed on one packet in this many, so
// two clock reads per detector do not swamp a ~10 ns OnPacket.
const sampleEvery = 8

// Per-packet flags the tap and the wrappers record for the replays.
const (
	opPin uint8 = 1 << iota
	opUnpin
	opToHost
	opPunted
)

// ctlEvent is one control-plane bus event seen during the traced run,
// with where in the packet order it happened.
type ctlEvent struct {
	kind tier.Kind
	key  packet.FlowKey
	addr packet.Addr
	// hooks marks events a detector raised through its Hooks (applied
	// before the packet's Pin/Unpin reaction) rather than through its
	// Reaction (applied after).
	hooks bool
	// after is the number of datapath packets seen when the event fired;
	// tick >= 0 marks a timer-driven event that fired before the first
	// packet stamped at or after it.
	after int
	tick  int64
}

// eventQueue replays recorded events of some kinds in the order they fired.
type eventQueue struct {
	evs []ctlEvent
}

func (tr *tracer) eventsOf(kinds ...tier.Kind) *eventQueue {
	q := &eventQueue{}
	for _, e := range tr.events {
		if slices.Contains(kinds, e.kind) {
			q.evs = append(q.evs, e)
		}
	}
	return q
}

// tickDue reports whether the next event is a timer-driven one that fired
// at or before ts.
func (q *eventQueue) tickDue(ts int64) bool {
	return len(q.evs) > 0 && q.evs[0].tick >= 0 && q.evs[0].tick <= ts
}

// packetDue reports whether the next event fired while datapath packet
// number after (counting from 1) was being processed; hooksOnly narrows it
// to events raised through detector hooks.
func (q *eventQueue) packetDue(after int, hooksOnly bool) bool {
	return len(q.evs) > 0 && q.evs[0].tick < 0 && q.evs[0].after == after && (q.evs[0].hooks || !hooksOnly)
}

func (q *eventQueue) pop() ctlEvent {
	e := q.evs[0]
	q.evs = q.evs[1:]
	return e
}

type detTiming struct {
	name              string
	sampledNs, tickNs int64
	sampled, calls    int64
}

// tracer holds everything the traced run records. It is written by the
// session's drive goroutine (detector wrappers, bus handlers) while the
// benchmark goroutine is blocked inside Ingest, and read by the benchmark
// goroutine after Ingest returned; the ack hand-off orders the two.
type tracer struct {
	epoch time.Time
	spans []span

	// offered is the input sequence; idx[j] is the position in it of the
	// j-th packet that reached the datapath (found by walking a cursor, so
	// the tap stores 4 bytes per packet instead of a copy).
	offered []packet.Packet
	cursor  int
	lost    bool
	idx     []int32
	ops     []uint8
	extra   []float64
	qdelay  *stats.Quantiles
	events  []ctlEvent
	pins    int64

	// clockNs is what a pair of clock reads costs by itself, taken off
	// every sampled detector call.
	clockNs int64

	sample bool
	inTick bool
	tickTs int64
	dets   []*detTiming
	ticks  int64

	lastTickEnd, lastFlushEnd int64
	intervalNs                int64 // interval bus events: switch close + host flush
	intervals                 int64

	// Totals already turned into per-vector spans.
	prevDet, prevTick, prevIv int64
}

func newTracer(offered []packet.Packet) *tracer {
	tr := &tracer{epoch: time.Now(), qdelay: stats.NewQuantiles(0), offered: offered}
	n := len(offered)
	tr.idx, tr.ops, tr.extra = make([]int32, 0, n), make([]uint8, 0, n), make([]float64, 0, n)
	// Fault the recording arrays in now, not inside the timed region.
	clear(tr.idx[:n])
	clear(tr.ops[:n])
	clear(tr.extra[:n])
	pairs := stats.NewQuantiles(0)
	for i := 0; i < 1000; i++ {
		t0 := tr.now()
		pairs.Add(float64(tr.now() - t0))
	}
	tr.clockNs = int64(pairs.Percentile(50))
	return tr
}

// pkt returns the j-th packet that reached the datapath.
func (tr *tracer) pkt(j int) *packet.Packet { return &tr.offered[tr.idx[j]] }

func (tr *tracer) now() int64 { return time.Since(tr.epoch).Nanoseconds() }

func (tr *tracer) add(s span) int {
	tr.spans = append(tr.spans, s)
	return len(tr.spans) - 1
}

// tap heads the detector chain: it notes every packet that reached the
// datapath (the replays' input) and opens the per-packet record.
type tap struct{ tr *tracer }

func (t tap) Name() string { return "bench-tap" }

func (t tap) OnPacket(p *packet.Packet, rec *flowcache.Record, ctx snic.Ctx) detect.Reaction {
	tr := t.tr
	var op uint8
	if rec == nil {
		op = opPunted
	}
	for tr.cursor < len(tr.offered) && tr.offered[tr.cursor] != *p {
		tr.cursor++
	}
	if tr.cursor == len(tr.offered) {
		tr.lost = true // not a packet we offered; the replays will refuse to run
		tr.cursor = 0
	}
	tr.sample = len(tr.idx)%sampleEvery == 0
	tr.idx = append(tr.idx, int32(tr.cursor))
	tr.cursor++
	tr.ops = append(tr.ops, op)
	tr.extra = append(tr.extra, 0)
	if tr.sample {
		tr.qdelay.Add(ctx.QueueDelayNs)
	}
	return detect.Reaction{}
}

func (t tap) Tick(now int64) {
	t.tr.inTick, t.tr.tickTs = true, now
	t.tr.ticks++
}

func (t tap) Drain() []detect.Alert { return nil }

// tail closes the chain: the end of its Drain is the end of timer work,
// which is where the interval bracket starts.
type tail struct{ tr *tracer }

func (t tail) Name() string { return "bench-tail" }
func (t tail) OnPacket(*packet.Packet, *flowcache.Record, snic.Ctx) detect.Reaction {
	return detect.Reaction{}
}
func (t tail) Tick(int64) {}
func (t tail) Drain() []detect.Alert {
	t.tr.inTick = false
	t.tr.lastTickEnd = t.tr.now()
	return nil
}

// timed decorates one configured detector: it times a sample of OnPacket
// calls and every Tick, and notes the reaction for the replays.
type timed struct {
	inner detect.Detector
	tr    *tracer
	tm    *detTiming
}

func (d *timed) Name() string { return d.inner.Name() }

func (d *timed) OnPacket(p *packet.Packet, rec *flowcache.Record, ctx snic.Ctx) detect.Reaction {
	tr := d.tr
	var r detect.Reaction
	d.tm.calls++
	if tr.sample {
		t0 := tr.now()
		r = d.inner.OnPacket(p, rec, ctx)
		d.tm.sampledNs += max(0, tr.now()-t0-tr.clockNs)
		d.tm.sampled++
	} else {
		r = d.inner.OnPacket(p, rec, ctx)
	}
	i := len(tr.ops) - 1
	tr.extra[i] += r.ExtraCycles
	if r.Pin {
		tr.ops[i] |= opPin
		tr.pins++
	}
	if r.Unpin {
		tr.ops[i] |= opUnpin
	}
	if r.ToHost {
		tr.ops[i] |= opToHost
	}
	return r
}

func (d *timed) Tick(now int64) {
	t0 := d.tr.now()
	d.inner.Tick(now)
	d.tm.tickNs += d.tr.now() - t0
}

func (d *timed) Drain() []detect.Alert { return d.inner.Drain() }

// SetHooks forwards the platform's hooks to detectors that take them
// (core.New looks for this method on each configured detector).
func (d *timed) SetHooks(h detect.Hooks) {
	if hd, ok := d.inner.(interface{ SetHooks(detect.Hooks) }); ok {
		hd.SetHooks(h)
	}
}

// wrapDetectors builds the traced chain: tap, the workload's detectors
// each in a timing decorator, tail.
func (tr *tracer) wrapDetectors(w *workload, scale float64) []detect.Detector {
	out := []detect.Detector{tap{tr}}
	for _, name := range w.detectorList() {
		tm := &detTiming{name: name}
		tr.dets = append(tr.dets, tm)
		out = append(out, &timed{inner: buildDetector(name, scale), tr: tr, tm: tm})
	}
	return append(out, tail{tr})
}

// subscribe records control-plane events and brackets the interval work.
// The platform wired its own subscribers in core.New, so these run last.
func (tr *tracer) subscribe(bus *tier.Bus) {
	record := func(e ctlEvent, origin string) {
		e.hooks = origin == "hooks"
		e.after, e.tick = len(tr.idx), -1
		if tr.inTick {
			e.tick = tr.tickTs
		}
		tr.events = append(tr.events, e)
	}
	bus.Subscribe(tier.KindWhitelist, "bench-trace", func(e tier.Event) {
		ev := e.(tier.WhitelistEvent)
		record(ctlEvent{kind: tier.KindWhitelist, key: ev.Key}, ev.Origin)
	})
	bus.Subscribe(tier.KindUnpin, "bench-trace", func(e tier.Event) {
		ev := e.(tier.UnpinEvent)
		record(ctlEvent{kind: tier.KindUnpin, key: ev.Key}, ev.Origin)
	})
	bus.Subscribe(tier.KindBlacklist, "bench-trace", func(e tier.Event) {
		ev := e.(tier.BlacklistEvent)
		record(ctlEvent{kind: tier.KindBlacklist, addr: ev.Addr}, ev.Origin)
	})
	bus.Subscribe(tier.KindInterval, "bench-trace", func(tier.Event) {
		now := tr.now()
		tr.intervalNs += now - max(tr.lastTickEnd, tr.lastFlushEnd)
		tr.lastFlushEnd = now
		tr.intervals++
	})
}

// detNs estimates total detector OnPacket time from the sampled calls.
func (tr *tracer) detNs() (total int64) {
	for _, d := range tr.dets {
		if d.sampled > 0 {
			total += d.sampledNs * d.calls / d.sampled
		}
	}
	return total
}

func (tr *tracer) tickNs() (total int64) {
	for _, d := range tr.dets {
		total += d.tickNs
	}
	return total
}

// recordVector turns one trip round the drive loop into spans: the vector
// as root, decode and ingest as its children, and under ingest one
// aggregated span per layer timed from inside it since the last vector.
func (ps *pass) recordVector(v0, v1, v2 int64, n int, decoded bool) {
	tr, id := ps.tr, ps.vectors
	root := tr.add(span{Name: "vector", Start: v0, End: v2, Parent: -1, Vec: id, Calls: n})
	if decoded {
		tr.add(span{Name: "pcap.decode", Start: v0, End: v1, Parent: root, Vec: id, Calls: n})
		ps.decodeNs += v1 - v0
	}
	ing := tr.add(span{Name: ps.ingestName, Start: v1, End: v2, Parent: root, Vec: id, Calls: n})
	ps.ingestNs += v2 - v1
	ps.ingestLat.Add(float64(v2 - v1))
	for _, agg := range []struct {
		name string
		cur  int64
		prev *int64
	}{
		{"detect.on_packet", tr.detNs(), &tr.prevDet},
		{"detect.tick", tr.tickNs(), &tr.prevTick},
		{"interval", tr.intervalNs, &tr.prevIv},
	} {
		if agg.cur > *agg.prev {
			tr.add(span{Name: agg.name, Start: v1, End: v2, Parent: ing, Vec: id, Busy: agg.cur - *agg.prev})
			*agg.prev = agg.cur
		}
	}
	ps.vectors++
}

// writeSpans dumps the spans kept in memory, one JSON object per line.
func writeSpans(dir string, w *workload, seed uint64, spans []span) error {
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, seed)))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
