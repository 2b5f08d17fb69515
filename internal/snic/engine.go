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
	// live points at the running Run's report so LiveCounts can surface
	// mid-run progress; valid only on the driving goroutine.
	live *Report
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
	return e
}

// Run replays the stream through the datapath and returns the report.
//
// The inner loop is the simulator's hot path: profile constants are
// hoisted out of the loop, the per-packet cycle model is pre-reduced to
// nanosecond coefficients (one multiply per cost term instead of a
// cycles->seconds division per packet), and the loop performs no
// allocations — the packet copy handed to the handler lives in a single
// stack slot reused across iterations.
func (e *Engine) Run(s packet.Stream) Report {
	prof := e.cfg.Profile
	rep := Report{Latency: stats.NewQuantiles(e.cfg.LatencySamples)}
	e.live = &rep
	var firstTs, lastDone float64
	first := true

	// Hot-path constants, hoisted once per run.
	var (
		queueDropNs = e.cfg.QueueDropNs
		dispatchNs  = prof.DispatchNsPerPkt
		nsPerCycle  = 1e9 / prof.ClockHz
		baseNs      = prof.BaseCycles * nsPerCycle
		readCostNs  = prof.CyclesPerRead * nsPerCycle
		writeCostNs = prof.CyclesPerWrite * nsPerCycle
		readStallNs = prof.ReadNs
		observer    = e.cfg.Observer
		handler     = e.handler
		threads     = &e.threads
		engineFree  = e.engineFree
		latency     = rep.Latency
		cur         packet.Packet
	)
	for p := range s {
		cur = p
		arrival := float64(cur.Ts)
		if first {
			firstTs, first = arrival, false
		}

		// Scatter-gather front end: fixed per-packet service.
		dispatchStart := arrival
		if e.dispatch > dispatchStart {
			dispatchStart = e.dispatch
		}
		if dispatchStart-arrival > queueDropNs {
			rep.Dropped++
			continue
		}
		e.dispatch = dispatchStart + dispatchNs
		ready := e.dispatch

		// Global load balancer: earliest-available thread.
		next := threads.earliest()
		start := ready
		if next.free > start {
			start = next.free
		}
		if start-arrival > queueDropNs {
			// Input buffer overrun: the packet is lost before processing.
			rep.Dropped++
			continue
		}
		pme := next.pme

		cost := handler(&cur, Ctx{QueueDelayNs: start - arrival})
		engineTime := baseNs +
			readCostNs*float64(cost.Reads) +
			writeCostNs*float64(cost.Writes) +
			cost.ExtraCycles*nsPerCycle

		engineStart := start
		if engineFree[pme] > engineStart {
			engineStart = engineFree[pme]
		}
		engineEnd := engineStart + engineTime
		engineFree[pme] = engineEnd
		// The packet's thread additionally waits out its DRAM reads
		// (yielding the engine to sibling threads meanwhile).
		threadEnd := engineEnd + float64(cost.Reads)*readStallNs

		threads.rearm(threadEnd)

		rep.Processed++
		rep.EngineBusyNs += engineTime
		latency.Add(threadEnd - arrival)
		if observer != nil {
			observer(&cur, threadEnd-arrival)
		}
		if threadEnd > lastDone {
			lastDone = threadEnd
		}
	}

	rep.SpanNs = lastDone - firstTs
	if rep.SpanNs > 0 {
		total := float64(rep.Processed + rep.Dropped)
		rep.OfferedMpps = total / rep.SpanNs * 1e3
		rep.AchievedMpps = float64(rep.Processed) / rep.SpanNs * 1e3
	}
	return rep
}

// LiveCounts reports Run progress: packets processed so far, input-buffer
// drops, and accumulated engine busy time. During a Run it must be called
// from the driving goroutine (a handler or something it invokes
// synchronously, e.g. an interval metrics collector); after Run returns it
// reports the final totals. It returns zeros before the first Run.
func (e *Engine) LiveCounts() (processed, dropped uint64, engineBusyNs float64) {
	if e.live == nil {
		return 0, 0, 0
	}
	return e.live.Processed, e.live.Dropped, e.live.EngineBusyNs
}
