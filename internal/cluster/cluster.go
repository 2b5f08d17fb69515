// Package cluster scales SmartWatch horizontally (DESIGN.md §14): one
// shared P4 switch steering tier in front of N fully independent
// core.Platform workers, each with its own sNIC engine, FlowCache,
// detectors and host tier, each driven by one goroutine — its feeder,
// which runs the worker's session on its own thread (a session starts no
// goroutine of its own). Packets fan out by consistent hashing over
// the canonical flow key — the same hash the workers need anyway, so the
// cluster adds no hashing — and the per-worker reports fold back into one
// merged cluster report at drain.
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
//   - Cluster ≡ single platform (oracle B): with ShardHashOffsetBits the
//     (worker, worker-shard) pair consumes exactly the top
//     log2(Workers·Shards) hash bits, so the cluster forms the same flow
//     islands as one Workers·Shards-way sharded platform and the merged
//     integer surface (packet counts, FlowCache stats, flow log, alerts,
//     switch counters) matches it exactly. Full byte-identity against the
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
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"smartwatch/internal/container"
	"smartwatch/internal/core"
	"smartwatch/internal/detect"
	"smartwatch/internal/flowcache"
	"smartwatch/internal/obs"
	"smartwatch/internal/p4switch"
	"smartwatch/internal/packet"
	"smartwatch/internal/tier"
)

// ErrWorkerStalled is wrapped by the WorkerError the runner returns when
// a worker's ingress ring stays full past StallTimeout.
var ErrWorkerStalled = errors.New("cluster: worker ingress stalled")

// ErrRunnerState is returned for lifecycle misuse (Ingest before Start,
// Start twice, Drain on a failed runner's report, ...).
var ErrRunnerState = errors.New("cluster: runner in wrong state")

// WorkerError is the typed failure the runner surfaces when one worker
// stalls or its drive crashes. Unwrap exposes the cause: ErrWorkerStalled
// for a stall, the worker session's error (wrapping core.ErrDriveFailed)
// for a crash.
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

const (
	// SteerHash is pure consistent hashing: worker = top log2(Workers)
	// bits of the flow hash. Deterministic; the only policy the
	// determinism oracles cover.
	SteerHash SteerPolicy = iota
	// SteerLoad considers the hash owner and its ring successor and picks
	// whichever has the shallower ingress queue. Load-adaptive and
	// schedule-dependent — flow affinity (and so per-flow detector state)
	// may split across two workers, and runs are NOT reproducible.
	// Excluded from the determinism oracles by construction.
	SteerLoad
)

// String names the policy ("hash", "load").
func (p SteerPolicy) String() string {
	if p == SteerLoad {
		return "load"
	}
	return "hash"
}

// ParseSteerPolicy is String's inverse (the -steer flag).
func ParseSteerPolicy(s string) (SteerPolicy, error) {
	switch s {
	case "hash", "":
		return SteerHash, nil
	case "load":
		return SteerLoad, nil
	}
	return 0, fmt.Errorf("cluster: unknown steer policy %q (want hash or load)", s)
}

// queueDepth is the number of ingress batch buffers in circulation per
// worker (one filling at the router, up to two queued, one draining at
// the feeder). Power of two: it sizes the SPSC rings exactly.
const queueDepth = 4

// spinPasses matches the flowcache pool's parking protocol: yield-and-
// recheck passes before committing to a wake channel.
const spinPasses = 8

// Config assembles a cluster runner.
type Config struct {
	// Workers is the cluster width (power of two; 0 or 1 means one
	// worker, which behaves exactly like the plain Platform it wraps).
	Workers int
	// Worker is the per-worker platform template. The switch tier fields
	// (EnableSwitch, Switch, Queries) configure the cluster's single
	// shared switch and are stripped from the workers; Metrics/
	// MetricsWriter likewise belong to the cluster (each worker gets its
	// own private registry when set, merged under "worker.N." at drain).
	// At Workers > 1 the runner re-derives the capacity split: worker
	// RowBits = RowBits - log2(Workers) and worker eta thresholds divide
	// by Workers, so total cache capacity and switchover behaviour match
	// a single Workers·Shards-way sharded platform. At Workers == 1 the
	// template is used verbatim.
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
	// the buffer onto the worker's ring.
	QueueBatch int
	// SyncPackets is the control-fold epoch (default 4096): every this
	// many packets steered to a lane the router closes an epoch, folding
	// into the shared switch the worker whitelist/blacklist events raised
	// by the buffers issued before the previous close (package doc).
	SyncPackets int
	// StallTimeout bounds how long the router waits on a full ingress
	// ring before declaring the worker stalled (0 = wait forever, which
	// keeps the drive fully deterministic). Under SteerHash a stall
	// surfaces as a WorkerError; under SteerLoad the batch is re-steered
	// to the ring successor first.
	StallTimeout time.Duration
	// Sequential switches the runner into its reference mode: no feeder
	// goroutines, every batch fed synchronously on the caller's
	// goroutine. The parallel drive must be byte-identical to this —
	// oracle A in the package doc.
	Sequential bool
	// Metrics, when set, receives the runner's cluster.* series and, at
	// drain, every worker's final metric tree under "worker.N.".
	Metrics *obs.Registry
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

// worker is one platform lane: its session, its ingress rings, its
// feeder, and its captured control events.
type worker struct {
	id  int
	pl  *core.Platform
	ses *core.Session

	// in carries full packet buffers router→feeder; free recycles
	// drained buffers back. SPSC: the router is the only producer, the
	// feeder the only consumer (and vice versa for free).
	in   *container.SPSC[[]packet.Packet]
	free *container.SPSC[[]packet.Packet]
	buf  []packet.Packet // router-side: the buffer currently being filled

	// issued is router-local; completed is the feeder's progress. Their
	// equality is the interval/drain barrier. mark is issued as of the last
	// epoch close: completed reaching it is all the next close waits for.
	issued    uint64
	mark      uint64
	completed atomic.Uint64

	sleeping atomic.Bool
	wake     chan struct{}
	done     chan struct{}

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

	// evMu guards events: appended by bus subscribers inside the worker
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
	cfg     Config
	w       int // worker count
	lgW     uint
	shift   uint // 64 - lgW; hash >> shift is the owning worker (0 at w=1)
	sw      *p4switch.Switch
	tracker *p4switch.Tracker
	steer   *p4switch.SteerStage
	sctx    tier.Context

	workers []*worker

	mu    sync.Mutex
	state core.SessionState
	err   error
	torn  bool

	stop atomic.Bool
	// Router parking for every wait on a feeder — full ring, empty free
	// ring, fold/drain barrier (mirrors the flowcache pool's protocol).
	routerWaiting atomic.Bool
	routerWake    chan struct{}

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
	resteers atomic.Uint64
	folds    atomic.Uint64
	foldedEv atomic.Uint64
	mergeNs  atomic.Int64
	// syncWaitNs is the time the router spent blocked at epoch closes,
	// interval closes and the drain barrier.
	syncWaitNs atomic.Int64

	final Report
}

// New assembles a cluster runner. It panics on structural misconfiguration
// (non-power-of-two width, shared live detectors, too few row bits for the
// split) exactly as core.New and flowcache do.
func New(cfg Config) *Runner {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.Workers&(cfg.Workers-1) != 0 {
		panic(fmt.Sprintf("cluster: Workers must be a power of two, got %d", cfg.Workers))
	}
	if cfg.Worker.Detectors != nil && cfg.Workers > 1 && cfg.Detectors == nil {
		panic("cluster: live Worker.Detectors cannot be shared across workers; provide a Detectors factory")
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
		routerWake: make(chan struct{}, 1),
		intervalNs: cfg.Worker.IntervalNs,
	}
	r.shift = 64 - r.lgW
	r.nextInterval = r.intervalNs

	if cfg.Worker.EnableSwitch {
		swCfg := cfg.Worker.Switch
		if swCfg.SRAMBytes == 0 {
			swCfg = p4switch.DefaultConfig()
		}
		r.sw = p4switch.New(swCfg)
		if len(cfg.Worker.Queries) > 0 {
			if err := r.sw.InstallQueries(cfg.Worker.Queries); err != nil {
				panic(err)
			}
		}
		r.tracker = p4switch.NewTracker(cfg.Worker.Queries, 0)
		r.steer = &p4switch.SteerStage{SW: r.sw, Tracker: r.tracker}
	}

	r.workers = make([]*worker, r.w)
	for i := range r.workers {
		w := &worker{id: i, wake: make(chan struct{}, 1), done: make(chan struct{})}
		w.pl = core.New(r.workerConfig(i))
		// Idle until Start, and never replaced: Snapshots and Close read it
		// at any point of the lifecycle without the runner lock.
		w.ses = w.pl.NewSession()
		if r.sw != nil {
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
		r.workers[i] = w
	}

	if cfg.Metrics != nil {
		cfg.Metrics.AddCollector(r.collect)
	}
	return r
}

// workerConfig derives worker i's platform config from the template. At
// Workers == 1 the template passes through untouched (a 1-worker cluster
// is byte-compatible with a plain Platform); at Workers > 1 the capacity
// and switchover split re-derives the single-platform partition.
func (r *Runner) workerConfig(i int) core.Config {
	wc := r.cfg.Worker
	wc.EnableSwitch = false
	wc.Switch = p4switch.Config{}
	wc.Queries = nil
	wc.Metrics = nil
	wc.MetricsWriter = nil
	if r.cfg.Worker.Metrics != nil || r.cfg.Metrics != nil {
		wc.Metrics = obs.NewRegistry()
	}
	if r.cfg.Detectors != nil {
		wc.Detectors = r.cfg.Detectors()
	}
	if r.w == 1 {
		return wc
	}
	// Capacity split: each worker gets 1/W of the rows; worker-internal
	// shard selection moves log2(W) bits down so (worker, shard) together
	// consume the hash's top bits — the single-platform flow islands.
	if wc.Cache.RowBits == 0 {
		wc.Cache = flowcache.DefaultConfig(12)
	}
	wc.Cache.RowBits -= int(r.lgW)
	wc.ShardHashOffsetBits = int(r.lgW)
	// Switchover split: resolve the controller fully, then pre-divide the
	// eta thresholds by W; each worker's Sharded divides by its shard
	// count again, landing on the single platform's per-shard eta/(W·S)
	// bit-exactly (both divisors are powers of two).
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

// Switch exposes the shared switch tier (nil when disabled).
func (r *Runner) Switch() *p4switch.Switch { return r.sw }

// WhitelistEntries reads the shared switch's whitelist under the runner
// lock (the -serve control plane's GET path; the router mutates the
// switch during Ingest, so direct reads would race).
func (r *Runner) WhitelistEntries() []packet.FlowKey {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sw == nil {
		return nil
	}
	return r.sw.WhitelistEntries()
}

// BlacklistEntries reads the shared switch's drop table under the runner
// lock.
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
// SessionDone (Err keeps the failure).
func (r *Runner) State() core.SessionState {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state
}

// Err returns the first worker failure (nil while healthy).
func (r *Runner) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
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

// Snapshots returns each worker's latest interval-boundary snapshot, in
// lane order (entries are nil before a worker's first interval close, so
// all of them before Start).
func (r *Runner) Snapshots() []*core.IntervalSnapshot {
	out := make([]*core.IntervalSnapshot, len(r.workers))
	for i, w := range r.workers {
		out[i] = w.ses.Snapshot()
	}
	return out
}

// Start launches the worker sessions and (in parallel mode) the feeder
// goroutines.
func (r *Runner) Start() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.state != core.SessionIdle {
		return ErrRunnerState
	}
	for _, w := range r.workers {
		if err := w.ses.Start(); err != nil {
			return err
		}
	}
	if !r.cfg.Sequential {
		for _, w := range r.workers {
			w.in = container.NewSPSC[[]packet.Packet](queueDepth)
			w.free = container.NewSPSC[[]packet.Packet](queueDepth)
			for j := 0; j < queueDepth; j++ {
				w.free.TryPush(make([]packet.Packet, 0, r.cfg.QueueBatch))
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

// feeder is one worker's persistent ingress consumer: it pops full
// buffers from the ring, runs them through the worker session (Ingest
// processes the whole vector on this goroutine before it returns),
// recycles the buffer and bumps the completion counter.
// After a worker failure it keeps popping and recycling WITHOUT feeding,
// so the router's barriers and buffer circulation never wedge on a dead
// lane.
func (r *Runner) feeder(w *worker) {
	defer close(w.done)
	for {
		b, ok := w.in.TryPop()
		if !ok {
			if r.stop.Load() {
				return
			}
			parked := false
			for pass := 0; pass < spinPasses; pass++ {
				runtime.Gosched()
				if b, ok = w.in.TryPop(); ok {
					break
				}
				if r.stop.Load() {
					return
				}
			}
			if !ok {
				w.sleeping.Store(true)
				if b, ok = w.in.TryPop(); !ok && !r.stop.Load() {
					<-w.wake
					parked = true
				}
				w.sleeping.Store(false)
				if !ok {
					if parked {
						w.wakeups.Add(1)
					}
					continue
				}
			}
		}
		if w.failed.Load() == nil {
			if err := w.ses.Ingest(b); err != nil {
				if errors.Is(err, core.ErrSessionClosed) {
					// The drive died; surface the underlying cause.
					if _, derr := w.ses.Drain(); derr != nil {
						err = derr
					}
				}
				w.fail(err)
			}
		}
		// Capacity matches the steady-state circulation; a full ring only
		// happens when popFree starvation minted an extra buffer, and then
		// dropping the surplus here restores the original census.
		w.free.TryPush(b[:0])
		w.completed.Add(1)
		if r.routerWaiting.Load() {
			select {
			case r.routerWake <- struct{}{}:
			default:
			}
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
		return ErrRunnerState
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
			if r.sw != nil {
				r.sw.CloseInterval(r.tracker)
			}
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
			r.steer.HandleKeyed(ctx)
			switch ctx.Verdict {
			case tier.ForwardDirect:
				r.nDirect++
				continue
			case tier.DropAtSwitch:
				r.nDropped++
				continue
			}
		}

		wi := 0
		if r.lgW > 0 {
			wi = int(hash >> r.shift)
			if r.cfg.Steer == SteerLoad {
				wi = r.leastLoaded(wi)
			}
		}
		w := r.workers[wi]
		w.buf = append(w.buf, *p)
		w.routed++
		if len(w.buf) == r.cfg.QueueBatch {
			if err := r.dispatch(w); err != nil {
				return err
			}
		}

		if r.sw == nil {
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

// leastLoaded picks between the hash owner and its ring successor by
// ingress depth (queued batches plus the partial buffer). Ties keep the
// owner, preserving affinity when load is balanced.
//
// A saturated lane (full ring + held batch, empty buffer) shows depth
// (queueDepth+1)·QueueBatch, while the router — which resumes steering
// only after popFree's completion rendezvous — can never observe a live
// lane deeper than queueDepth·QueueBatch + (QueueBatch-1): one packet
// less. A wedged worker is therefore routed around entirely once
// saturated; the stall re-steer in push only fires for dispatches that
// bypass this choice (partial-buffer flushes) or when every candidate
// lane is saturated at once.
func (r *Runner) leastLoaded(owner int) int {
	alt := (owner + 1) & (r.w - 1)
	wo, wa := r.workers[owner], r.workers[alt]
	lo := int(wo.issued-wo.completed.Load())*r.cfg.QueueBatch + len(wo.buf)
	la := int(wa.issued-wa.completed.Load())*r.cfg.QueueBatch + len(wa.buf)
	if la < lo {
		return alt
	}
	return owner
}

// dispatch hands worker w's current buffer over: synchronously in
// sequential mode, onto the ingress ring otherwise.
func (r *Runner) dispatch(w *worker) error {
	if r.cfg.Sequential {
		if w.failed.Load() == nil {
			if err := w.ses.Ingest(w.buf); err != nil {
				w.fail(err)
			}
		}
		w.buf = w.buf[:0]
		w.issued++
		w.completed.Add(1)
		w.batches.Add(1)
		return r.checkFailures()
	}
	return r.push(w, w.buf, w)
}

// push queues buf onto target's ingress ring, stalling (spin-then-park,
// see await) while the ring is full. A stall past StallTimeout either
// re-steers the buffer to the ring successor (SteerLoad) or fails the run
// (SteerHash). owner is the worker whose buffer slot gets the recycled
// replacement.
func (r *Runner) push(target *worker, buf []packet.Packet, owner *worker) error {
	if !target.in.TryPush(buf) {
		target.stalls.Add(1)
		if !r.timedAwait(&target.waitNs, func() bool { return target.in.TryPush(buf) }, r.stallDeadline()) {
			if r.cfg.Steer == SteerLoad {
				alt := r.workers[(target.id+1)&(r.w-1)]
				if alt != target && alt != owner {
					r.resteers.Add(1)
					return r.push(alt, buf, owner)
				}
			}
			return r.failRun(&WorkerError{Worker: target.id, Err: ErrWorkerStalled})
		}
	}
	target.issued++
	target.batches.Add(1)
	if d := int64(target.issued - target.completed.Load()); d > target.hwm.Load() {
		target.hwm.Store(d)
	}
	if target.sleeping.Load() {
		select {
		case target.wake <- struct{}{}:
		default:
		}
	}
	owner.buf = r.popFree(owner)
	return r.checkFailures()
}

// popFree takes a recycled buffer from the owner's free ring, stalling
// until the feeder returns one. A failed feeder still recycles, but a
// WEDGED one (alive, blocked mid-Ingest) does not — so with a
// StallTimeout configured the wait is bounded and starvation allocates a
// replacement buffer instead of deadlocking the router. The allocation
// is bounded too: the wedged lane's ring is full by then, so its next
// dispatch takes the typed-error (hash) or divert (load) path rather
// than coming back here.
func (r *Runner) popFree(w *worker) []packet.Packet {
	b, ok := w.free.TryPop()
	if !ok {
		w.stalls.Add(1)
		if !r.timedAwait(&w.waitNs, func() bool { b, ok = w.free.TryPop(); return ok }, r.stallDeadline()) {
			return make([]packet.Packet, 0, r.cfg.QueueBatch)
		}
	}
	return b
}

// stallDeadline is when a stall starting now gives up (zero = never).
func (r *Runner) stallDeadline() time.Time {
	if r.cfg.StallTimeout > 0 {
		return time.Now().Add(r.cfg.StallTimeout)
	}
	return time.Time{}
}

// await blocks the router until cond holds: spinPasses yield-and-recheck
// passes, then parked on routerWake, which a feeder signals after every
// batch it completes. (Ring space frees a little earlier, at the feeder's
// pop, but the push that wanted it needs that batch's recycled buffer
// next anyway.) The router parks rather than yield-spins because spinning
// keeps its P: with no P to spare, the worker it waits for sits queued
// behind the other one, the wait lasts as long as the scheduler's
// placement makes it, and the cycles burnt are taken from the very work
// being waited for. Past a non-zero deadline await gives up and reports
// false — a wedged feeder never signals.
func (r *Runner) await(cond func() bool, deadline time.Time) bool {
	for pass := 0; pass < spinPasses; pass++ {
		runtime.Gosched()
		if cond() {
			return true
		}
	}
	var expired <-chan time.Time
	if !deadline.IsZero() {
		t := time.NewTimer(time.Until(deadline))
		defer t.Stop()
		expired = t.C
	}
	for {
		r.routerWaiting.Store(true)
		if cond() {
			r.routerWaiting.Store(false)
			return true
		}
		select {
		case <-r.routerWake: // possibly stale: cond is rechecked
			r.routerWaiting.Store(false)
		case <-expired:
			r.routerWaiting.Store(false)
			return cond()
		}
	}
}

// timedAwait is await with the time it blocked added to ns. Only the slow
// paths come here, so the fast path never reads the clock.
func (r *Runner) timedAwait(ns *atomic.Int64, cond func() bool, deadline time.Time) bool {
	start := time.Now()
	ok := r.await(cond, deadline)
	ns.Add(int64(time.Since(start)))
	return ok
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
			r.timedAwait(&r.syncWaitNs, func() bool { return w.completed.Load() >= w.mark }, time.Time{})
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
	if r.sw == nil {
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

// Whitelist installs a benign-flow entry at the shared switch and
// releases the owning worker's pinned record — the -serve operator path.
func (r *Runner) Whitelist(k packet.FlowKey) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sw != nil {
		if err := r.sw.Whitelist(k); err != nil {
			return err
		}
	}
	wi := 0
	if r.lgW > 0 {
		wi = int(k.Hash() >> r.shift)
	}
	w := r.workers[wi]
	if r.state == core.SessionRunning && w.failed.Load() == nil {
		return w.ses.Whitelist(k)
	}
	return nil
}

// Blacklist installs a drop rule for the source at the shared switch
// (core.ErrNoSwitch without one, as for a session).
func (r *Runner) Blacklist(a packet.Addr) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sw == nil {
		return core.ErrNoSwitch
	}
	r.sw.Blacklist(a)
	return nil
}

// Report returns the merged report once the runner has drained (zero
// Report, false before) — the engine-level view of Drain's cached Report.
func (r *Runner) Report() (core.Report, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.final.Merged, r.state == core.SessionDone
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
		return Report{}, ErrRunnerState
	}
	r.state = core.SessionDraining

	if r.syncLocked(true) != nil {
		return r.endFailed()
	}
	if r.sw != nil {
		r.sw.CloseInterval(r.tracker) // the final interval close, as the
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
	r.teardownLocked(-1)
	if werr != nil {
		r.failRun(werr)
		return r.endFailed()
	}
	r.final = r.merge(reps)
	r.state = core.SessionDone
	return r.final, nil
}

// endFailed tears a failed run down and moves it to SessionDone, keeping
// its error (mu held): the Failed → Done step a session's Drain takes.
func (r *Runner) endFailed() (Report, error) {
	r.teardownLocked(r.stalledLane())
	r.state = core.SessionDone
	return Report{}, r.err
}

// teardownLocked stops the feeders and releases the worker platforms'
// background goroutines. skipWorker (-1 for none) names a lane whose
// feeder may be wedged inside a stalled session — it is not waited for
// (it exits on its own once the stall clears; a permanently stalled
// engine needs a process restart, and the runner's job is only to
// surface the typed error without wedging the router).
func (r *Runner) teardownLocked(skipWorker int) {
	if r.torn {
		return
	}
	r.torn = true
	r.stop.Store(true)
	if !r.cfg.Sequential {
		for _, w := range r.workers {
			select {
			case w.wake <- struct{}{}:
			default:
			}
		}
		for _, w := range r.workers {
			if w.id == skipWorker {
				continue
			}
			if w.in != nil {
				<-w.done
			}
		}
	}
	for _, w := range r.workers {
		if w.id == skipWorker {
			continue
		}
		_ = w.ses.Close()
	}
}

// Close tears the runner down and leaves it SessionDone. A cleanly running
// runner is drained first (the polite SIGTERM path); a failed one skips
// the lane named in its stall error and returns the failure. Idempotent.
func (r *Runner) Close() error {
	r.mu.Lock()
	if r.state == core.SessionRunning {
		r.mu.Unlock()
		_, _ = r.Drain() // a drain failure is recorded in r.err
		r.mu.Lock()
	}
	defer r.mu.Unlock()
	r.teardownLocked(r.stalledLane())
	r.state = core.SessionDone
	return r.err
}

// stalledLane extracts the stalled worker's lane from the run error (-1
// when the failure was not a stall).
func (r *Runner) stalledLane() int {
	var we *WorkerError
	if errors.As(r.err, &we) && errors.Is(we.Err, ErrWorkerStalled) {
		return we.Worker
	}
	return -1
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

// collect is the runner's obs collector: the cluster.* series.
func (r *Runner) collect(s *obs.Snapshot) {
	s.SetCounter("cluster.steer.offered", r.offered.Load())
	s.SetCounter("cluster.steer.direct", r.direct.Load())
	s.SetCounter("cluster.steer.dropped", r.dropped.Load())
	s.SetCounter("cluster.steer.resteers", r.resteers.Load())
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
