// Package cluster scales SmartWatch horizontally (DESIGN.md §14): one
// shared P4 switch steering tier in front of N fully independent
// core.Platform workers, each with its own sNIC engine, FlowCache,
// detectors and host tier, each driven by one goroutine — its feeder,
// which runs the worker's session on its own thread (a session starts no
// goroutine of its own). Packets fan out by consistent hashing over
// the canonical flow key: the router computes FiveTuple.Identity to
// steer, and each worker derives it again for its own stages, since
// handing key and hash over would copy more bytes per packet than the
// second derivation costs (DESIGN.md §17). The per-worker reports fold
// back into one merged cluster report at drain.
//
// A rack of one is the platform itself. With one worker New lifts no
// switch, captures no feedback, starts no feeder, keeps no interval
// heartbeat and merges nothing: the worker runs the template as given,
// and the router hands it its buffers on the caller's goroutine. The rest
// of this comment is about more than one worker.
//
// Determinism is the package's contract, and it is two-sided:
//
//   - Parallel ≡ sequential (oracle A): a parallel cluster drive is
//     byte-identical — floats, latency quantiles, everything — to the
//     same cluster topology driven with Config.Sequential set, where the
//     router feeds each worker synchronously on the caller's goroutine.
//     This holds because each worker sees exactly the same packet
//     subsequence either way, worker-internal results are independent of
//     ingest vector boundaries (the session/batch determinism contract),
//     and all cross-worker interaction — control-event folding into the
//     shared switch, interval closes, the drain barrier — happens at
//     deterministic points in the offered-packet sequence.
//
//   - Cluster ≡ single platform (oracle B): each worker runs one FlowCache
//     and owns the flows whose top log2(Workers) hash bits are its index,
//     so worker i holds exactly island i of one Workers-way sharded
//     platform, and the merged integer surface (packet counts, FlowCache
//     stats, flow log, alerts, switch counters) matches it exactly. Full byte-identity against the
//     single platform is NOT claimed: detector→switch feedback is folded
//     in epochs here but takes effect on the very next packet there, and
//     W independent engines sum floats in a different order than one.
//
// Control-plane feedback (whitelist/blacklist events from worker
// detectors) is folded into the shared switch at deterministic points, one
// epoch behind the packets that raised it. An epoch closes every
// SyncPackets packets steered to a lane (packets the switch forwarded or
// dropped itself do not count). The close hands every partial buffer over
// and then waits only for the buffers issued before the PREVIOUS close —
// which the feeders have had a whole epoch to finish — and folds exactly
// the events those buffers raised: each captured event carries the ordinal
// of the lane buffer whose Ingest published it. Feedback therefore reaches
// the shared switch between one and two epochs after the packet that
// raised it, the lanes are never emptied to apply it, and the folded set
// is still a pure function of the offered-packet prefix; the sequential
// reference applies the identical delay. Interval boundaries and Drain
// wait for everything issued and fold everything captured. Without a
// shared switch there is nothing to fold and no epoch closes.
package cluster

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"smartwatch/internal/core"
	"smartwatch/internal/detect"
	"smartwatch/internal/flowcache"
	"smartwatch/internal/obs"
	"smartwatch/internal/p4switch"
	"smartwatch/internal/packet"
	"smartwatch/internal/tier"
)

// WorkerError is the typed failure the runner surfaces when one worker's
// drive crashes. Unwrap exposes the cause: the worker session's error,
// wrapping core.ErrDriveFailed. Lifecycle misuse (Ingest before Start,
// Start twice, ...) is core.ErrSessionState, as for a session.
type WorkerError struct {
	Worker int
	Err    error
}

func (e *WorkerError) Error() string {
	return fmt.Sprintf("cluster: worker %d: %v", e.Worker, e.Err)
}

func (e *WorkerError) Unwrap() error { return e.Err }

// SteerPolicy selects how the router maps a flow hash to a worker.
type SteerPolicy int

// SteerHash is pure consistent hashing: worker = top log2(Workers) bits of
// the flow hash. Deterministic, so the determinism oracles cover it; it is
// the only policy.
const SteerHash SteerPolicy = 0

// String names the policy ("hash").
func (SteerPolicy) String() string { return "hash" }

// queueDepth is the capacity of each worker's in channel: how many full
// buffers may wait for its feeder. Four keeps the router at most a few
// buffers ahead of each feeder: the backpressure fanout2 measures. A lane
// circulates queueDepth+1 buffers (the router fills one), and free holds
// them all, so the feeder's recycle never blocks.
const queueDepth = 4

// Config assembles a cluster runner.
type Config struct {
	// Workers is the cluster width (power of two; 0 or 1 means one
	// worker, which is the plain Platform it wraps).
	Workers int
	// Worker is the per-worker platform template. At Workers == 1 it is
	// used verbatim (bar Detectors, which come from the factory when one
	// is set). At Workers > 1 the switch tier fields (EnableSwitch,
	// Switch, Queries) configure the cluster's single shared switch and
	// are stripped from the workers; Metrics/MetricsWriter likewise
	// belong to the cluster (Metrics receives the runner's cluster.*
	// series, and each worker gets its own private registry, merged under
	// "worker.N." at drain); and the runner
	// re-derives the capacity split: worker RowBits = RowBits -
	// log2(Workers) and worker eta thresholds divide by Workers, so total
	// cache capacity and switchover behaviour match a single
	// Workers-way sharded platform. The partition is the cluster's: a
	// worker runs one FlowCache, so Shards must be 0 or 1 at Workers > 1.
	// Each worker keeps its own flow log (Platform.KV), so FlowLogAOF must
	// be unset at Workers > 1.
	Worker core.Config
	// Detectors builds one fresh detector set per worker. Required when
	// Workers > 1 and detectors are wanted: live detect.Detector
	// instances hold per-flow state and must never be shared across
	// worker goroutines (New panics if Worker.Detectors is set instead).
	Detectors func() []detect.Detector
	// Steer selects the routing policy (default SteerHash).
	Steer SteerPolicy
	// QueueBatch is the ingress handoff granularity in packets (default
	// 512): the router accumulates this many per worker before pushing
	// the buffer onto the worker's ingress channel.
	QueueBatch int
	// SyncPackets is the control-fold epoch (default 4096): every this
	// many packets steered to a lane the router closes an epoch, folding
	// into the shared switch the worker whitelist/blacklist events raised
	// by the buffers issued before the previous close (package doc).
	SyncPackets int
	// Sequential switches the runner into its reference mode: no feeder
	// goroutines, every batch fed synchronously on the caller's
	// goroutine. The parallel drive must be byte-identical to this —
	// oracle A in the package doc. One worker always runs this way.
	Sequential bool
}

// ctlEvent is one captured worker control event awaiting a fold into the
// shared switch. buf is the ordinal (from 1) of the lane buffer whose
// Ingest published it.
type ctlEvent struct {
	kind tier.Kind
	key  packet.FlowKey
	addr packet.Addr
	buf  uint64
}

// worker is one platform lane: its session, its ingress channels, its
// feeder, and its captured control events.
type worker struct {
	id  int
	pl  *core.Platform
	ses *core.Session

	// in carries full packet buffers router→feeder, and teardown closes it
	// to end the feeder; free recycles drained buffers back.
	in   chan []packet.Packet
	free chan []packet.Packet
	buf  []packet.Packet // router-side: the buffer currently being filled

	// issued is router-local; completed is the feeder's progress. Their
	// equality is the interval/drain barrier. mark is issued as of the last
	// epoch close: completed reaching it is all the next close waits for.
	// The feeder signals progress after every buffer it completes; a
	// barrier re-checks completed after each signal.
	issued    uint64
	mark      uint64
	completed atomic.Uint64
	progress  chan struct{}
	done      chan struct{}

	// failed records the first worker-session error (set once by the
	// feeder, or by the sequential dispatch). The feeder keeps draining
	// and recycling after a failure so router barriers never hang.
	failed atomic.Pointer[error]

	// Observability (atomics: the -serve status endpoint and the metrics
	// collector read them concurrently with the router). routed is the
	// router-local part of pkts not yet published (Runner.publish).
	routed  uint64
	pkts    atomic.Uint64
	hwm     atomic.Int64
	stalls  atomic.Uint64
	waitNs  atomic.Int64
	batches atomic.Uint64
	wakeups atomic.Uint64

	// evMu guards events: appended by bus observers inside the worker
	// session's Ingest (on the feeder goroutine), drained by the router at
	// each fold.
	evMu   sync.Mutex
	events []ctlEvent
}

// addEvent captures one control event, tagged with the buffer being
// ingested: completed counts the buffers already finished and moves only
// after Ingest returns, so inside buffer k's Ingest it reads k-1. An event
// the router publishes through Session.Exec (Runner.Whitelist, Drain's
// clock alignment) runs under the same session lock between two buffers
// and takes the ordinal of the next one; the first is already installed at
// the switch and the second is folded by Drain's full barrier, so when its
// tag comes due changes nothing. Handlers run under the session lock, so
// tags never decrease along events.
func (w *worker) addEvent(e ctlEvent) {
	e.buf = w.completed.Load() + 1
	w.evMu.Lock()
	w.events = append(w.events, e)
	w.evMu.Unlock()
}

// takeEvents removes the events of buffers 1..upTo, in arrival order.
func (w *worker) takeEvents(upTo uint64) []ctlEvent {
	w.evMu.Lock()
	defer w.evMu.Unlock()
	n := 0
	for n < len(w.events) && w.events[n].buf <= upTo {
		n++
	}
	evs := w.events[:n:n]
	w.events = w.events[n:]
	return evs
}

// ingest runs one buffer through the worker's session unless the lane has
// failed already. A drive failure is recorded with its cause: the Ingest
// that hit it returns ErrSessionClosed, and the session's Drain returns
// the panic.
func (w *worker) ingest(b []packet.Packet) {
	if w.failed.Load() != nil {
		return
	}
	if err := w.ses.Ingest(b); err != nil {
		if errors.Is(err, core.ErrSessionClosed) {
			if _, derr := w.ses.Drain(); derr != nil {
				err = derr
			}
		}
		w.fail(err)
	}
}

// fail records the worker's first error.
func (w *worker) fail(err error) {
	e := err
	w.failed.CompareAndSwap(nil, &e)
}

// Runner drives a cluster: one shared steering tier, N worker platforms.
// All lifecycle and ingest calls serialise on an internal mutex (the
// -serve control plane calls Whitelist/Blacklist/Drain concurrently with
// the ingest loop); packet fan-out itself runs on the caller's goroutine.
type Runner struct {
	cfg   Config
	w     int // worker count
	lgW   uint
	shift uint // 64 - lgW; hash >> shift is the owning worker (0 at w=1)
	// sw is the switch the runner answers for: the shared one at w > 1,
	// the worker's own at w == 1 (nil without a switch tier). steer
	// exists only for a shared switch, which the router steers with and
	// folds worker feedback into.
	sw    *p4switch.Switch
	steer *p4switch.SteerStage
	sctx  tier.Context

	workers []*worker

	mu    sync.Mutex
	state core.SessionState
	err   error
	torn  bool

	intervalNs   int64
	nextInterval int64
	maxTs        int64
	sinceSync    int

	// The router counts each vector in nOffered / nDirect / nDropped (and
	// worker.routed) and publish folds them into the atomics their readers
	// load: three LOCK-prefixed adds per packet otherwise.
	nOffered, nDirect, nDropped uint64

	offered  atomic.Uint64
	direct   atomic.Uint64
	dropped  atomic.Uint64
	folds    atomic.Uint64
	foldedEv atomic.Uint64
	mergeNs  atomic.Int64
	// syncWaitNs is the time the router spent blocked at epoch closes,
	// interval closes and the drain barrier.
	syncWaitNs atomic.Int64

	// drained holds the worker reports while merge snapshots the registry,
	// so collect grafts their trees before the snapshot is published (mu
	// held; nil otherwise).
	drained []core.Report

	final Report
}

// New assembles a cluster runner. It panics on structural misconfiguration
// (non-power-of-two width, sharded workers, shared live detectors, a
// shared flow-log writer, too few row bits for the split) exactly as
// core.New and flowcache do.
func New(cfg Config) *Runner {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.Workers&(cfg.Workers-1) != 0 {
		panic(fmt.Sprintf("cluster: Workers must be a power of two, got %d", cfg.Workers))
	}
	if cfg.Worker.Shards > 1 && cfg.Workers > 1 {
		panic(fmt.Sprintf("cluster: a worker runs one FlowCache, got Worker.Shards %d at %d workers", cfg.Worker.Shards, cfg.Workers))
	}
	if cfg.Worker.Detectors != nil && cfg.Workers > 1 && cfg.Detectors == nil {
		panic("cluster: live Worker.Detectors cannot be shared across workers; provide a Detectors factory")
	}
	if cfg.Worker.FlowLogAOF != nil && cfg.Workers > 1 {
		panic("cluster: one Worker.FlowLogAOF cannot take every worker's flow log")
	}
	if cfg.QueueBatch <= 0 {
		cfg.QueueBatch = 512
	}
	if cfg.SyncPackets <= 0 {
		cfg.SyncPackets = 4096
	}
	if cfg.Worker.IntervalNs <= 0 {
		cfg.Worker.IntervalNs = 100e6 // mirror core.New's default
	}

	r := &Runner{
		cfg:        cfg,
		w:          cfg.Workers,
		lgW:        uint(bits.TrailingZeros(uint(cfg.Workers))),
		intervalNs: cfg.Worker.IntervalNs,
	}
	r.shift = 64 - r.lgW
	r.nextInterval = r.intervalNs
	r.workers = make([]*worker, r.w)
	for i := range r.workers {
		w := &worker{id: i, done: make(chan struct{})}
		w.pl = core.New(r.workerConfig(i))
		// Idle until Start, and never replaced: Close reads it at any
		// point of the lifecycle without the runner lock.
		w.ses = w.pl.NewSession()
		r.workers[i] = w
	}
	if r.w == 1 {
		// A rack of one is its worker: it steers with its own switch and
		// closes its own intervals, driven on the caller's goroutine.
		r.sw = r.workers[0].pl.Switch()
		r.nextInterval = math.MaxInt64 // no heartbeat
		r.cfg.Sequential = true        // no feeder
		return r
	}

	if cfg.Worker.EnableSwitch {
		r.steer = p4switch.NewSteerStage(cfg.Worker.Switch, cfg.Worker.Queries)
		r.sw = r.steer.SW
		for _, w := range r.workers {
			// Capture detector feedback for the epoch fold. The handlers
			// run inside Publish, on the goroutine that called the worker
			// session's Ingest (its feeder).
			w.pl.Bus().Subscribe(tier.KindWhitelist, "cluster-uplink", func(e tier.Event) {
				w.addEvent(ctlEvent{kind: tier.KindWhitelist, key: e.(tier.WhitelistEvent).Key})
			})
			w.pl.Bus().Subscribe(tier.KindBlacklist, "cluster-uplink", func(e tier.Event) {
				w.addEvent(ctlEvent{kind: tier.KindBlacklist, addr: e.(tier.BlacklistEvent).Addr})
			})
		}
	}
	cfg.Worker.Metrics.AddCollector(r.collect)
	return r
}

// workerConfig derives worker i's platform config from the template. At
// Workers == 1 the template passes through untouched but for the
// factory's detectors (a 1-worker cluster is a plain Platform); at
// Workers > 1 the switch and the registry move to the cluster, and the
// capacity and switchover split re-derives the single-platform partition.
func (r *Runner) workerConfig(i int) core.Config {
	wc := r.cfg.Worker
	if r.cfg.Detectors != nil {
		wc.Detectors = r.cfg.Detectors()
	}
	if r.w == 1 {
		return wc
	}
	wc.EnableSwitch = false
	wc.Switch = p4switch.Config{}
	wc.Queries = nil
	wc.Metrics = nil
	wc.MetricsWriter = nil
	if r.cfg.Worker.Metrics != nil {
		wc.Metrics = obs.NewRegistry()
	}
	// Capacity split: each worker gets 1/W of the rows, as each shard of
	// a W-shard platform does.
	if wc.Cache.RowBits == 0 {
		wc.Cache = flowcache.DefaultConfig(12)
	}
	rows := wc.Cache.RowBits
	if wc.Cache.RowBits = rows - int(r.lgW); wc.Cache.RowBits < 1 {
		// core.New would read RowBits 0 as its default table.
		panic(fmt.Sprintf("cluster: %d workers leave %d of %d row bits (need >= 1)", r.w, wc.Cache.RowBits, rows))
	}
	// Switchover split: resolve the controller fully, then divide the eta
	// thresholds by W, landing on the W-shard platform's per-shard eta/W
	// bit-exactly (W is a power of two).
	ctl := wc.Controller.Normalized()
	ctl.EtaHigh /= float64(r.w)
	ctl.EtaLow /= float64(r.w)
	wc.Controller = ctl
	return wc
}

// Workers exposes the worker platforms in lane order (tests, the -serve
// control plane's per-worker knobs).
func (r *Runner) Workers() []*core.Platform {
	out := make([]*core.Platform, len(r.workers))
	for i, w := range r.workers {
		out[i] = w.pl
	}
	return out
}

// Switch exposes the switch tier: the shared one, or the one worker's own
// (nil when disabled).
func (r *Runner) Switch() *p4switch.Switch { return r.sw }

// WhitelistEntries reads the switch's whitelist under the runner lock (the
// -serve control plane's GET path; the router mutates the shared switch,
// and drives the one worker, during Ingest, so direct reads would race).
func (r *Runner) WhitelistEntries() []packet.FlowKey {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sw == nil {
		return nil
	}
	return r.sw.WhitelistEntries()
}

// BlacklistEntries reads the switch's drop table under the runner lock.
func (r *Runner) BlacklistEntries() []packet.Addr {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sw == nil {
		return nil
	}
	return r.sw.BlacklistEntries()
}

// State reports the runner lifecycle phase, moving as a session's does: a
// worker failure makes it SessionFailed, and Drain or Close moves it on to
// SessionDone (both return the failure).
func (r *Runner) State() core.SessionState {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state
}

// Ingested reports the packets offered so far. Lock-free (the -serve
// status endpoint polls it while the ingest loop may be stalled).
func (r *Runner) Ingested() uint64 { return r.offered.Load() }

// BusStats sums the workers' control-plane bus traffic.
func (r *Runner) BusStats() tier.BusStats {
	var s tier.BusStats
	for _, w := range r.workers {
		s = s.Add(w.pl.Bus().Stats())
	}
	return s
}

// Snapshots returns each worker's latest metrics snapshot, in lane order
// (entries are nil before a worker's first interval close, so all of them
// before Start, and all of them when Worker.Metrics is unset). At one
// worker its one entry is the registry's own last snapshot. Lock-free.
func (r *Runner) Snapshots() []*obs.Snapshot {
	out := make([]*obs.Snapshot, len(r.workers))
	for i, w := range r.workers {
		out[i] = w.pl.LastSnapshot()
	}
	return out
}

// Start launches the worker sessions and (in parallel mode) the feeder
// goroutines.
func (r *Runner) Start() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.state != core.SessionIdle {
		return core.ErrSessionState
	}
	for _, w := range r.workers {
		if err := w.ses.Start(); err != nil {
			return err
		}
	}
	if !r.cfg.Sequential {
		for _, w := range r.workers {
			w.in = make(chan []packet.Packet, queueDepth)
			w.free = make(chan []packet.Packet, queueDepth+1)
			w.progress = make(chan struct{}, 1)
			for j := 0; j < queueDepth; j++ {
				w.free <- make([]packet.Packet, 0, r.cfg.QueueBatch)
			}
			go r.feeder(w)
		}
	}
	for _, w := range r.workers {
		w.buf = make([]packet.Packet, 0, r.cfg.QueueBatch)
	}
	r.state = core.SessionRunning
	return nil
}

// feeder is one worker's persistent ingress consumer: it receives full
// buffers until teardown closes in, runs each through the worker session
// (Ingest processes the whole vector on this goroutine before it
// returns), recycles the buffer, bumps the completion counter and signals
// progress. After a worker failure it keeps receiving and recycling
// WITHOUT feeding, so the router's barriers and buffer circulation never
// wedge on a dead lane.
func (r *Runner) feeder(w *worker) {
	defer close(w.done)
	for {
		var b []packet.Packet
		var ok bool
		select {
		case b, ok = <-w.in:
		default:
			w.wakeups.Add(1)
			b, ok = <-w.in
		}
		if !ok {
			return
		}
		w.ingest(b)
		w.free <- b[:0]
		w.completed.Add(1)
		select {
		case w.progress <- struct{}{}:
		default: // a signal is pending already
		}
	}
}

// Ingest steers one packet vector across the workers and returns once
// every full handoff buffer is queued (parallel) or processed
// (sequential). The slice may be reused immediately: packets are copied
// into per-worker buffers. Timestamps must be non-decreasing across the
// whole run, as everywhere else.
func (r *Runner) Ingest(batch []packet.Packet) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.state != core.SessionRunning {
		if r.state == core.SessionFailed {
			return r.err
		}
		return core.ErrSessionState
	}
	defer r.publish()
	for i := range batch {
		p := &batch[i]
		// Interval heartbeat for the shared switch: fold all pending
		// feedback, then close, exactly where the single platform's ingest
		// stage fires its interval event — before this packet is steered.
		for p.Ts >= r.nextInterval {
			if err := r.syncLocked(true); err != nil {
				return err
			}
			if r.steer != nil {
				r.sw.CloseInterval(r.steer.Tracker)
			}
			// Live observers (-serve's /metrics) read the registry's last
			// snapshot; without this one they would see none until the merge.
			r.cfg.Worker.Metrics.Snapshot(r.nextInterval)
			r.nextInterval += r.intervalNs
		}
		r.maxTs = p.Ts
		r.nOffered++

		// The steer stage reads and writes these four fields only, so the
		// reused context is re-pointed, not zeroed.
		ctx := &r.sctx
		hash := p.Tuple.Identity(&ctx.Key)
		if r.steer != nil {
			ctx.Pkt, ctx.Hash, ctx.Verdict = p, hash, tier.Continue
			r.steer.Apply(ctx, r.steer.Classify(p))
			switch ctx.Verdict {
			case tier.ForwardDirect:
				r.nDirect++
				continue
			case tier.DropAtSwitch:
				r.nDropped++
				continue
			}
		}

		w := r.workers[hash>>r.shift]
		w.buf = append(w.buf, *p)
		w.routed++
		if len(w.buf) == r.cfg.QueueBatch {
			if err := r.dispatch(w); err != nil {
				return err
			}
		}

		if r.steer == nil {
			continue // nothing to fold into: no epochs
		}
		r.sinceSync++
		if r.sinceSync >= r.cfg.SyncPackets {
			if err := r.syncLocked(false); err != nil {
				return err
			}
		}
	}
	return nil
}

// dispatch hands worker w's current buffer over: synchronously in
// sequential mode, onto the ingress channel otherwise.
func (r *Runner) dispatch(w *worker) error {
	if r.cfg.Sequential {
		w.ingest(w.buf)
		w.buf = w.buf[:0]
		w.issued++
		w.completed.Add(1)
		w.batches.Add(1)
		return r.checkFailures()
	}
	return r.push(w)
}

// push queues w's current buffer onto its ingress channel and takes a
// recycled buffer in its place. Each step tries without blocking first;
// otherwise it counts a stall and times the blocking operation. The router
// blocks rather than yield-spins because spinning keeps its P: with no P to
// spare, the worker it waits for sits queued behind the other one
// (DESIGN.md §14.2). A failed feeder still receives and recycles, so
// neither wait outlives a dead lane.
func (r *Runner) push(w *worker) error {
	select {
	case w.in <- w.buf:
	default:
		w.stalls.Add(1)
		start := time.Now()
		w.in <- w.buf
		addSince(&w.waitNs, start)
	}
	w.issued++
	w.batches.Add(1)
	if d := int64(w.issued - w.completed.Load()); d > w.hwm.Load() {
		w.hwm.Store(d)
	}
	select {
	case w.buf = <-w.free:
	default:
		w.stalls.Add(1)
		start := time.Now()
		w.buf = <-w.free
		addSince(&w.waitNs, start)
	}
	return r.checkFailures()
}

// addSince adds the time since start to ns. Only the slow paths call it,
// so the fast path never reads the clock.
func addSince(ns *atomic.Int64, start time.Time) {
	ns.Add(int64(time.Since(start)))
}

// syncLocked closes one control epoch: flush every partial buffer, wait
// until each lane has completed what had been issued by the previous close
// (full: everything issued — interval boundaries and Drain), fold the
// feedback those buffers raised into the shared switch, and move the
// marks. Which buffers exist at a close, and so the folded event set, is a
// pure function of the offered-packet prefix; that keeps parallel and
// sequential drives byte-identical, and the sequential drive, whose
// buffers are all complete already, folds by the same marks.
func (r *Runner) syncLocked(full bool) error {
	r.publish()
	for _, w := range r.workers {
		if len(w.buf) > 0 {
			if err := r.dispatch(w); err != nil {
				return err
			}
		}
	}
	for _, w := range r.workers {
		if full {
			w.mark = w.issued
		}
		if w.completed.Load() < w.mark {
			start := time.Now()
			for w.completed.Load() < w.mark {
				<-w.progress
			}
			addSince(&r.syncWaitNs, start)
		}
	}
	if err := r.checkFailures(); err != nil {
		return err
	}
	r.fold(full)
	for _, w := range r.workers {
		w.mark = w.issued
	}
	r.sinceSync = 0
	return nil
}

// publish folds the router-local tallies into the atomics. It runs before
// every sync and on every return from Ingest, so Ingested, collect and the
// merge — which run between vectors or after a barrier — read exact
// counts.
func (r *Runner) publish() {
	r.offered.Add(r.nOffered)
	r.direct.Add(r.nDirect)
	r.dropped.Add(r.nDropped)
	r.nOffered, r.nDirect, r.nDropped = 0, 0, 0
	for _, w := range r.workers {
		w.pkts.Add(w.routed)
		w.routed = 0
	}
}

// fold applies to the shared switch the control events captured from each
// lane's buffers up to its mark (all: every captured event), in worker-lane
// order, each lane's events in arrival order.
func (r *Runner) fold(all bool) {
	if r.steer == nil {
		return
	}
	for _, w := range r.workers {
		upTo := w.mark
		if all {
			upTo = ^uint64(0)
		}
		for _, e := range w.takeEvents(upTo) {
			switch e.kind {
			case tier.KindWhitelist:
				_ = r.sw.Whitelist(e.key) // full table only costs the fast path
			case tier.KindBlacklist:
				r.sw.Blacklist(e.addr)
			}
			r.foldedEv.Add(1)
		}
	}
	r.folds.Add(1)
}

// checkFailures surfaces the lowest-lane worker failure as the run error.
func (r *Runner) checkFailures() error {
	for _, w := range r.workers {
		if ep := w.failed.Load(); ep != nil {
			return r.failRun(&WorkerError{Worker: w.id, Err: *ep})
		}
	}
	return nil
}

// failRun records the first run error and flips the state (mu held).
func (r *Runner) failRun(err error) error {
	if r.err == nil {
		r.err = err
		r.state = core.SessionFailed
	}
	return r.err
}

// Whitelist installs a benign-flow entry at the shared switch and has the
// owning worker release its pinned record — the -serve operator path. The
// switch install holds outside the drive; the release runs only while the
// drive does. Without a shared switch it is the owning session's, which
// does both and refuses outside its drive, as Blacklist's does.
func (r *Runner) Whitelist(k packet.FlowKey) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	w := r.workers[k.Hash()>>r.shift]
	if r.steer == nil {
		return w.ses.Whitelist(k)
	}
	if err := r.sw.Whitelist(k); err != nil {
		return err
	}
	if r.state == core.SessionRunning && w.failed.Load() == nil {
		return w.ses.Whitelist(k)
	}
	return nil
}

// Blacklist installs a drop rule for the source at the shared switch.
// Without one it is the session's: one worker's installs at its own
// switch, and a worker without a switch refuses with core.ErrNoSwitch.
func (r *Runner) Blacklist(a packet.Addr) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.steer == nil {
		return r.workers[0].ses.Blacklist(a)
	}
	r.sw.Blacklist(a)
	return nil
}

// Drain flushes every partial buffer, folds the final control epoch,
// closes the shared switch's last interval, aligns every worker's virtual
// clock to the global maximum timestamp, drains the workers and merges
// their reports. The clock alignment is what makes the merged flow log
// exact: a worker whose last packet predates the global maximum would
// otherwise close fewer intervals than its peers.
func (r *Runner) Drain() (Report, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch r.state {
	case core.SessionDone:
		return r.final, r.err
	case core.SessionFailed:
		return r.endFailed()
	case core.SessionRunning:
	default:
		return Report{}, core.ErrSessionState
	}
	r.state = core.SessionDraining

	if r.syncLocked(true) != nil {
		return r.endFailed()
	}
	if r.steer != nil {
		r.sw.CloseInterval(r.steer.Tracker) // the final interval close, as the
		// single platform's end-of-drive maybeTick fires it
	}
	maxTs := r.maxTs
	for _, w := range r.workers {
		if w.failed.Load() == nil {
			_ = w.ses.Exec(func(pl *core.Platform) { pl.AdvanceClock(maxTs) })
		}
	}
	reps := make([]core.Report, len(r.workers))
	var werr error
	for _, w := range r.workers {
		rep, err := w.ses.Drain()
		if err != nil && werr == nil {
			werr = &WorkerError{Worker: w.id, Err: err}
		}
		reps[w.id] = rep
	}
	// Detector Drain inside the worker tail may have published feedback;
	// fold it so the switch's final tables are complete.
	r.fold(true)
	r.teardownLocked()
	if werr != nil {
		r.failRun(werr)
		return r.endFailed()
	}
	r.final = r.report(reps)
	r.state = core.SessionDone
	return r.final, nil
}

// endFailed tears a failed run down and moves it to SessionDone, keeping
// its error (mu held): the Failed → Done step a session's Drain takes.
func (r *Runner) endFailed() (Report, error) {
	r.teardownLocked()
	r.state = core.SessionDone
	return Report{}, r.err
}

// teardownLocked closes every in channel, which ends the feeders, then
// waits for each feeder and closes its worker session.
func (r *Runner) teardownLocked() {
	if r.torn {
		return
	}
	r.torn = true
	for _, w := range r.workers {
		if w.in != nil { // nil in sequential mode and before Start
			close(w.in)
		}
	}
	for _, w := range r.workers {
		if w.in != nil {
			<-w.done
		}
		_ = w.ses.Close()
	}
}

// Close tears the runner down and leaves it SessionDone. A cleanly running
// runner is drained first (the polite SIGTERM path); a failed one returns
// the failure. Idempotent.
func (r *Runner) Close() error {
	r.mu.Lock()
	if r.state == core.SessionRunning {
		r.mu.Unlock()
		_, _ = r.Drain() // a drain failure is recorded in r.err
		r.mu.Lock()
	}
	defer r.mu.Unlock()
	r.teardownLocked()
	r.state = core.SessionDone
	return r.err
}

// Run is the one-shot convenience: Start, feed the stream in recycled
// vectors, Drain. Mirrors Platform.Run.
func (r *Runner) Run(s packet.Stream) (Report, error) {
	if err := r.Start(); err != nil {
		return Report{}, err
	}
	for b := range packet.BufferedBatches(s, r.cfg.QueueBatch) {
		if err := r.Ingest(b); err != nil {
			return Report{}, err
		}
	}
	return r.Drain()
}

// collect is the runner's obs collector: the cluster.* series, and in the
// merge's final snapshot each drained worker's tree under "worker.N.".
// It runs inside Registry.Snapshot, before the snapshot is published, so
// no reader of LastSnapshot sees a map being written.
func (r *Runner) collect(s *obs.Snapshot) {
	for i := range r.drained {
		s.AddPrefixed(fmt.Sprintf("worker.%d.", i), r.drained[i].Metrics)
	}
	s.SetCounter("cluster.steer.offered", r.offered.Load())
	s.SetCounter("cluster.steer.direct", r.direct.Load())
	s.SetCounter("cluster.steer.dropped", r.dropped.Load())
	s.SetCounter("cluster.sync.folds", r.folds.Load())
	s.SetCounter("cluster.sync.events", r.foldedEv.Load())
	s.SetCounter("cluster.sync.wait_ns", uint64(r.syncWaitNs.Load()))
	s.SetGauge("cluster.workers", float64(r.w))
	s.SetGauge("cluster.merge.ns", float64(r.mergeNs.Load()))
	for _, w := range r.workers {
		p := fmt.Sprintf("cluster.worker.%d.", w.id)
		s.SetCounter(p+"packets", w.pkts.Load())
		s.SetCounter(p+"ingress.stalls", w.stalls.Load())
		s.SetCounter(p+"ingress.wait_ns", uint64(w.waitNs.Load()))
		s.SetCounter(p+"ingress.batches", w.batches.Load())
		s.SetCounter(p+"ingress.wakeups", w.wakeups.Load())
		s.SetGauge(p+"ingress.hwm", float64(w.hwm.Load()))
	}
}
