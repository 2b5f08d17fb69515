package snic

import (
	"smartwatch/internal/packet"
	"smartwatch/internal/stats"
)

// Cost is what processing one packet costs on the sNIC, reported by the
// application handler (FlowCache update + any in-line detectors).
type Cost struct {
	// Reads / Writes are abstract memory operations (the FlowCache's
	// Result counts map directly).
	Reads, Writes int
	// ExtraCycles is additional engine work (detector logic).
	ExtraCycles float64
	// Drop marks the packet as consumed without forwarding (e.g. blocked
	// by an IPS verdict); it is costed normally.
	Drop bool
}

// Ctx carries per-packet datapath observations into the handler.
type Ctx struct {
	// QueueDelayNs is the time the packet spent queued before a thread
	// picked it up — the "current timestamp minus MAC ingress timestamp"
	// the microburst detector thresholds on.
	QueueDelayNs float64
	// FlowHash is the packet's FlowKey.Hash if the driver carries it (0: a
	// detector that wants it computes it); Pinned, whether its FlowCache
	// record is pinned. Filled in by the handler, not by the engine.
	FlowHash uint64
	Pinned   bool
}

// Handler is the application logic the simulator charges for: it sees
// every dispatched packet in arrival order and returns its cost.
type Handler func(p *packet.Packet, ctx Ctx) Cost

// Config tunes the simulation.
type Config struct {
	// Profile is the hardware model.
	Profile Profile
	// QueueDropNs bounds per-packet queueing delay; packets that would
	// wait longer are dropped at the input buffer (loss under overload).
	QueueDropNs float64
	// LatencySamples caps the latency reservoir (default 1<<16).
	LatencySamples int
	// Observer, when set, is called after each processed packet with its
	// modelled completion latency — experiments use it to pair latency
	// with per-packet application outcomes (e.g. FlowCache hit vs miss).
	Observer func(p *packet.Packet, latencyNs float64)
}

// DefaultConfig returns a Netronome simulation with a 20 µs input buffer
// (~860 packets at line rate, a typical NIC RX ring depth).
func DefaultConfig() Config {
	return Config{Profile: Netronome(), QueueDropNs: 20e3}
}

// Report summarises one simulation run.
type Report struct {
	Processed, Dropped uint64
	// OfferedMpps / AchievedMpps are packet rates over the trace span.
	OfferedMpps, AchievedMpps float64
	// Latency is the per-packet latency distribution (ns), arrival to
	// completion, for processed packets.
	Latency *stats.Quantiles
	// EngineBusyNs is summed engine occupancy, for utilisation reporting.
	EngineBusyNs float64
	// SpanNs is the trace duration (last completion - first arrival).
	SpanNs float64
}

// Utilization returns mean engine utilisation across PMEs.
func (r Report) Utilization(p Profile) float64 {
	if r.SpanNs == 0 {
		return 0
	}
	return r.EngineBusyNs / (r.SpanNs * float64(p.PMEs))
}

// LossRate returns the dropped fraction.
func (r Report) LossRate() float64 {
	t := r.Processed + r.Dropped
	if t == 0 {
		return 0
	}
	return float64(r.Dropped) / float64(t)
}

// thread is one micro-engine thread: the virtual time it is next free and
// the PME it runs on.
type thread struct {
	free float64
	pme  int
}

// threadRing is the global load balancer's view of the threads: all of them,
// sorted by (free, pme) ascending in a power-of-two ring, so the head is
// always the earliest-available thread with ties toward the lower PME.
// Dispatch pops the head and re-inserts it at its new free time by scanning
// back from the tail. A re-armed thread is nearly always among the latest to
// come free, so the scan moves a handful of slots where a heap sifts the
// full depth on every packet; the worst case is one pass over the profile's
// threads. Threads with equal (free, pme) are interchangeable, so any
// structure that yields the (free, pme) minimum selects the same thread:
// the order is fully deterministic and independent of history
// (DESIGN.md §17).
type threadRing struct {
	slots []thread
	head  int // slot of the earliest-free thread, always < len(slots)
	n     int // threads held
}

func newThreadRing(pmes, threadsPerPME int) threadRing {
	n := pmes * threadsPerPME
	size := 1
	for size < n {
		size <<= 1
	}
	r := threadRing{slots: make([]thread, size), n: n}
	// All free at 0: (free, pme) order is PME order.
	for i := 0; i < n; i++ {
		r.slots[i].pme = i / threadsPerPME
	}
	return r
}

// earliest returns the thread the next packet goes to.
func (r *threadRing) earliest() thread { return r.slots[r.head] }

// rearm moves the earliest thread to its new free time.
func (r *threadRing) rearm(free float64) {
	slots, mask := r.slots, len(r.slots)-1
	pme := slots[r.head].pme
	r.head = (r.head + 1) & mask
	i := r.head + r.n - 1 // the slot past the remaining n-1 threads
	for ; i > r.head; i-- {
		prev := slots[(i-1)&mask]
		if prev.free < free || (prev.free == free && prev.pme <= pme) {
			break
		}
		slots[i&mask] = prev
	}
	slots[i&mask] = thread{free: free, pme: pme}
}

// Engine is the discrete-event sNIC simulator.
type Engine struct {
	cfg        Config
	handler    Handler
	threads    threadRing
	engineFree []float64 // per-PME engine availability
	dispatch   float64   // scatter-gather front-end availability

	// The per-packet cycle model, pre-reduced to nanosecond coefficients in
	// New: one multiply per cost term instead of a cycles->seconds division
	// per packet.
	nsPerCycle, baseNs, readCostNs, writeCostNs float64

	// State of the drive in progress (Begin .. End). rep doubles as
	// LiveCounts' source; it must only be read on the driving goroutine.
	rep               Report
	firstTs, lastDone float64
	started           bool
}

// New builds a simulator; handler must not be nil.
func New(cfg Config, handler Handler) *Engine {
	if handler == nil {
		panic("snic: nil handler")
	}
	if cfg.Profile.PMEs < 1 || cfg.Profile.ThreadsPerPME < 1 {
		panic("snic: profile needs at least one PME thread")
	}
	if cfg.QueueDropNs <= 0 {
		cfg.QueueDropNs = 100e3
	}
	e := &Engine{cfg: cfg, handler: handler}
	e.engineFree = make([]float64, cfg.Profile.PMEs)
	e.threads = newThreadRing(cfg.Profile.PMEs, cfg.Profile.ThreadsPerPME)
	e.nsPerCycle = 1e9 / cfg.Profile.ClockHz
	e.baseNs = cfg.Profile.BaseCycles * e.nsPerCycle
	e.readCostNs = cfg.Profile.CyclesPerRead * e.nsPerCycle
	e.writeCostNs = cfg.Profile.CyclesPerWrite * e.nsPerCycle
	return e
}

// Run replays the stream through the datapath and returns the report: a
// Begin, one Step per packet, an End. The packet handed to Step lives in
// one slot reused across iterations, so the loop does not allocate.
func (e *Engine) Run(s packet.Stream) Report {
	e.Begin()
	var cur packet.Packet
	for p := range s {
		cur = p
		e.Step(&cur)
	}
	return e.End()
}

// Begin opens a drive: a fresh report and latency reservoir. The thread
// ring, the per-PME engines and the dispatch port carry over from earlier
// drives, so a trace split across drives is scheduled as one.
func (e *Engine) Begin() {
	e.rep = Report{Latency: stats.NewQuantiles(e.cfg.LatencySamples)}
	e.firstTs, e.lastDone, e.started = 0, 0, false
}

// Step offers one packet to the datapath, in arrival order. The handler
// (and the observer) see p itself, not a copy, and only for the duration
// of the call: a caller stepping through a vector passes &vec[i]. Step
// does not allocate.
func (e *Engine) Step(p *packet.Packet) {
	queueDropNs := e.cfg.QueueDropNs
	arrival := float64(p.Ts)
	if !e.started {
		e.firstTs, e.started = arrival, true
	}

	// Scatter-gather front end: fixed per-packet service.
	dispatchStart := arrival
	if e.dispatch > dispatchStart {
		dispatchStart = e.dispatch
	}
	if dispatchStart-arrival > queueDropNs {
		e.rep.Dropped++
		return
	}
	e.dispatch = dispatchStart + e.cfg.Profile.DispatchNsPerPkt
	ready := e.dispatch

	// Global load balancer: earliest-available thread.
	next := e.threads.earliest()
	start := ready
	if next.free > start {
		start = next.free
	}
	if start-arrival > queueDropNs {
		// Input buffer overrun: the packet is lost before processing.
		e.rep.Dropped++
		return
	}
	pme := next.pme

	cost := e.handler(p, Ctx{QueueDelayNs: start - arrival})
	engineTime := e.baseNs +
		e.readCostNs*float64(cost.Reads) +
		e.writeCostNs*float64(cost.Writes) +
		cost.ExtraCycles*e.nsPerCycle

	engineStart := start
	if e.engineFree[pme] > engineStart {
		engineStart = e.engineFree[pme]
	}
	engineEnd := engineStart + engineTime
	e.engineFree[pme] = engineEnd
	// The packet's thread additionally waits out its DRAM reads
	// (yielding the engine to sibling threads meanwhile).
	threadEnd := engineEnd + float64(cost.Reads)*e.cfg.Profile.ReadNs

	e.threads.rearm(threadEnd)

	e.rep.Processed++
	e.rep.EngineBusyNs += engineTime
	e.rep.Latency.Add(threadEnd - arrival)
	if e.cfg.Observer != nil {
		e.cfg.Observer(p, threadEnd-arrival)
	}
	if threadEnd > e.lastDone {
		e.lastDone = threadEnd
	}
}

// End closes the drive Begin opened and returns its report.
func (e *Engine) End() Report {
	rep := &e.rep
	rep.SpanNs = e.lastDone - e.firstTs
	if rep.SpanNs > 0 {
		total := float64(rep.Processed + rep.Dropped)
		rep.OfferedMpps = total / rep.SpanNs * 1e3
		rep.AchievedMpps = float64(rep.Processed) / rep.SpanNs * 1e3
	}
	return *rep
}

// LiveCounts reports the progress of the current drive: packets processed
// so far, input-buffer drops, and accumulated engine busy time. During a
// drive it must be called from the driving goroutine (a handler or
// something it invokes synchronously, e.g. an interval metrics collector);
// after End it reports the final totals. It returns zeros before the first
// drive.
func (e *Engine) LiveCounts() (processed, dropped uint64, engineBusyNs float64) {
	return e.rep.Processed, e.rep.Dropped, e.rep.EngineBusyNs
}
