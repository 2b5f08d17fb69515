// Session is the lifecycle-managed streaming drive (DESIGN.md §12): the
// conversion of the one-shot batch harness into the continuously running
// IPS the paper describes. A Session owns one pass of a Platform's run
// loop and splits it into explicit phases:
//
//	Start   — launch the drive goroutine; the (already constructed)
//	          engine and pipelines begin pulling from the ingest channel.
//	Ingest  — hand one packet vector to the drive. The call returns only
//	          after the vector is fully processed, so the caller may
//	          recycle the slice (packet.BufferedBatches feeds it
//	          directly) and gets natural backpressure.
//	Snapshot — read the latest interval-boundary report delta (captured
//	          by the drive at every interval close; lock-free for
//	          observers on any goroutine).
//	Drain   — close ingestion, run the final interval close and the
//	          lossless flow-log flush, and return the end-of-session
//	          Report — exactly the tail the old one-shot Run performed.
//	Close   — idempotent teardown (drains first if still running).
//
// Everything stateful runs on the single drive goroutine: the engine
// pulls the tier filters, the filters pull the session's vector stream,
// and that stream is the only place that touches the ingest and control
// channels. Control closures submitted with Exec therefore run at packet
// boundaries with no packet in flight anywhere — the operator plane
// needs no locks around platform state, and a session that receives no
// Exec calls is observationally identical to the pre-session drive
// (Platform.Run is a thin wrapper over a Session and stays byte-exact).
package core

import (
	"errors"
	"fmt"
	"iter"
	"sync"
	"sync/atomic"

	"smartwatch/internal/flowcache"
	"smartwatch/internal/obs"
	"smartwatch/internal/packet"
)

// ErrSessionClosed is returned by Ingest/Exec/Drain once the session's
// drive has finished (after Drain or Close).
var ErrSessionClosed = errors.New("core: session closed")

// ErrSessionState is returned for calls outside their lifecycle phase
// (Ingest before Start, Start twice, ...).
var ErrSessionState = errors.New("core: session in wrong state")

// ErrSessionActive is returned by Start when the platform already has a
// running session (a platform drives at most one at a time).
var ErrSessionActive = errors.New("core: platform already has an active session")

// ErrDriveFailed wraps a panic that escaped the drive goroutine (a
// crashing detector, a corrupted stage). The session converts it into an
// error instead of killing the process: Ingest/Exec callers get
// ErrSessionClosed, Drain returns the wrapped panic, and the cluster
// runner surfaces it as a typed per-worker failure without deadlocking
// its ingress backpressure.
var ErrDriveFailed = errors.New("core: session drive failed")

// SessionState is the lifecycle phase of a Session.
type SessionState int32

// Session lifecycle phases.
const (
	// SessionIdle: constructed, not yet started.
	SessionIdle SessionState = iota
	// SessionRunning: drive goroutine live, accepting Ingest/Exec.
	SessionRunning
	// SessionDraining: ingestion closed, final flush in progress.
	SessionDraining
	// SessionDone: final report delivered; only Snapshot/Report work.
	SessionDone
)

// String names the state.
func (s SessionState) String() string {
	switch s {
	case SessionIdle:
		return "idle"
	case SessionRunning:
		return "running"
	case SessionDraining:
		return "draining"
	case SessionDone:
		return "done"
	default:
		return "unknown"
	}
}

// IntervalSnapshot is the per-interval report delta the drive captures at
// every interval close — the live operator view of a running session.
// Cumulative fields cover the whole session so far; the *Delta twins cover
// just the interval that closed. Metrics is the observability registry's
// snapshot for the same interval (nil when metrics are disabled).
type IntervalSnapshot struct {
	// Seq counts interval closes from 1; TsNs is the close timestamp.
	Seq  uint64 `json:"seq"`
	TsNs int64  `json:"ts_ns"`

	Counts      Counts `json:"counts"`
	CountsDelta Counts `json:"counts_delta"`

	Cache      flowcache.Stats `json:"cache"`
	CacheDelta flowcache.Stats `json:"cache_delta"`

	// Alerts / AlertsDelta count detector alerts raised.
	Alerts      int `json:"alerts"`
	AlertsDelta int `json:"alerts_delta"`

	// Switchovers counts FlowCache mode flips across all shards.
	Switchovers uint64 `json:"switchovers"`

	// SNICProcessed / SNICDropped are the engine's live datapath totals.
	SNICProcessed uint64 `json:"snic_processed"`
	SNICDropped   uint64 `json:"snic_dropped"`

	Metrics *obs.Snapshot `json:"metrics,omitempty"`
}

// ctlOp is one control closure queued for the drive goroutine.
type ctlOp struct {
	fn   func(*Platform)
	done chan struct{}
}

// Session is one lifecycle-managed streaming pass over a Platform. Create
// with Platform.NewSession; a Platform runs at most one session at a time
// (sequential sessions continue from the platform's accumulated state,
// exactly as sequential Run calls always have).
type Session struct {
	pl *Platform

	mu    sync.Mutex
	state SessionState

	// ioMu serialises Ingest bodies against Drain's close(in), so a send
	// can never race the close.
	ioMu sync.Mutex

	in  chan []packet.Packet
	ack chan struct{}
	ctl chan ctlOp
	// finished closes when the drive goroutine stops servicing in/ctl;
	// it unblocks stragglers so no caller can hang on a dead session.
	finished chan struct{}
	result   chan Report

	final Report
	// driveErr records a recovered drive-goroutine panic; written before
	// finished closes, read by Drain after the result arrives.
	driveErr error
	snap     atomic.Pointer[IntervalSnapshot]
	ingested atomic.Uint64

	// previous-interval baselines for delta computation (drive-goroutine
	// only).
	prevCounts Counts
	prevCache  flowcache.Stats
	prevAlerts int
}

// NewSession returns an idle session over the platform. Call Start to
// launch the drive.
func (pl *Platform) NewSession() *Session {
	return &Session{
		pl:       pl,
		in:       make(chan []packet.Packet),
		ack:      make(chan struct{}),
		ctl:      make(chan ctlOp),
		finished: make(chan struct{}),
		result:   make(chan Report, 1),
	}
}

// State reports the session's lifecycle phase.
func (s *Session) State() SessionState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// Ingested reports the total packets offered via Ingest so far.
func (s *Session) Ingested() uint64 { return s.ingested.Load() }

// Start launches the drive goroutine. It fails if the session was already
// started or the platform has another active session.
func (s *Session) Start() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != SessionIdle {
		return ErrSessionState
	}
	if !s.pl.sessionBusy.CompareAndSwap(false, true) {
		return ErrSessionActive
	}
	s.pl.session = s
	s.state = SessionRunning
	go s.drive()
	return nil
}

// Ingest hands one packet vector to the drive and returns once it has been
// fully processed (the slice may be reused immediately — recycled
// packet.BufferedBatches vectors feed it directly). Timestamps must be
// non-decreasing across the whole session, as everywhere else.
func (s *Session) Ingest(batch []packet.Packet) error {
	if len(batch) == 0 {
		return nil
	}
	if st := s.State(); st != SessionRunning {
		if st == SessionIdle {
			return ErrSessionState
		}
		return ErrSessionClosed
	}
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	select {
	case s.in <- batch:
	case <-s.finished:
		return ErrSessionClosed
	}
	select {
	case <-s.ack:
	case <-s.finished:
		return ErrSessionClosed
	}
	s.ingested.Add(uint64(len(batch)))
	return nil
}

// IngestStream drains a whole stream through Ingest in vectors of chunk
// packets (the one-shot Run wrapper; chunk < 1 selects a default that is a
// multiple of the configured BatchSize).
func (s *Session) IngestStream(src packet.Stream, chunk int) error {
	if chunk < 1 {
		chunk = 512
		if bs := s.pl.cfg.BatchSize; bs > 1 {
			// Round up to a BatchSize multiple so the batched drive's
			// re-chunker subslices without ever copying into its carry.
			chunk = ((chunk + bs - 1) / bs) * bs
		}
	}
	for b := range packet.BufferedBatches(src, chunk) {
		if err := s.Ingest(b); err != nil {
			return err
		}
	}
	return nil
}

// Exec runs fn on the drive goroutine at the next packet boundary (between
// ingest vectors, or immediately when ingestion is idle) and returns after
// fn completes. This is the operator plane's safe point: no packet is in
// flight anywhere in the pipeline while fn runs, so fn may publish bus
// events, reprogram the switch, or read any platform state without
// additional locking.
func (s *Session) Exec(fn func(*Platform)) error {
	if st := s.State(); st == SessionIdle {
		return ErrSessionState
	}
	op := ctlOp{fn: fn, done: make(chan struct{})}
	select {
	case s.ctl <- op:
		select {
		case <-op.done:
			return nil
		case <-s.finished:
			// The drive stopped (or crashed inside fn) before signalling
			// completion. Prefer the completion signal if it raced in.
			select {
			case <-op.done:
				return nil
			default:
			}
			return ErrSessionClosed
		}
	case <-s.finished:
		return ErrSessionClosed
	}
}

// Snapshot returns the most recent interval-boundary delta snapshot (nil
// before the first interval close). Safe from any goroutine.
func (s *Session) Snapshot() *IntervalSnapshot { return s.snap.Load() }

// Drain closes ingestion, waits for the drive to run the final interval
// close and the lossless flow-log flush, and returns the final Report —
// the exact tail sequence of the pre-session one-shot Run. When a
// flow-log flush failed the Report is complete and the error is its
// FlowLogErr.
func (s *Session) Drain() (Report, error) {
	s.mu.Lock()
	switch s.state {
	case SessionIdle:
		s.mu.Unlock()
		return Report{}, ErrSessionState
	case SessionDraining:
		s.mu.Unlock()
		return Report{}, ErrSessionState
	case SessionDone:
		rep := s.final
		s.mu.Unlock()
		return rep, rep.FlowLogErr
	}
	s.state = SessionDraining
	s.mu.Unlock()
	return s.finishDrain()
}

// finishDrain runs the drain for the one caller that moved the session
// Running -> Draining under s.mu.
func (s *Session) finishDrain() (Report, error) {
	s.ioMu.Lock()
	close(s.in)
	s.ioMu.Unlock()

	rep := <-s.result
	err := s.driveErr // written before finished closed; result receive orders the read
	if err == nil {
		err = rep.FlowLogErr
	}

	s.mu.Lock()
	s.final = rep
	s.state = SessionDone
	s.mu.Unlock()

	s.pl.session = nil
	s.pl.sessionBusy.Store(false)
	return rep, err
}

// Report returns the final report after Drain (zero Report, false before).
func (s *Session) Report() (Report, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != SessionDone {
		return Report{}, false
	}
	return s.final, true
}

// Close tears the session down. A running session is drained first (the
// final flush still happens — Close is the polite SIGTERM path); a drained
// or idle session just transitions to Done. Either way the platform's
// lazily started background workers (prep worker, shard worker pool) are
// released — a closed session leaves no goroutines behind; they restart
// lazily if the platform drives again. Idempotent, and safe to call
// concurrently with itself and with Drain: one caller drains and returns
// the drain's error, the rest wait for the final flush and return nil.
func (s *Session) Close() error {
	// Decide under s.mu, so of several concurrent Closes (SIGTERM,
	// /control/drain, a deferred cleanup) exactly one claims the drain.
	s.mu.Lock()
	st := s.state
	switch st {
	case SessionRunning:
		s.state = SessionDraining
	case SessionIdle:
		s.state = SessionDone
	}
	s.mu.Unlock()

	var err error
	switch st {
	case SessionRunning:
		_, err = s.finishDrain()
	case SessionDraining:
		// Another caller owns the drain and reports its error; wait until
		// the drive has run the final flush.
		<-s.finished
	}
	s.pl.ReleaseWorkers()
	return err
}

// drive is the session's only worker: it feeds the platform's filter
// chain (and through it the sNIC engine) from the ingest channel and
// services control closures whenever no vector is mid-flight. A panic
// anywhere in the drive (a crashing detector, a corrupted stage) is
// converted into ErrDriveFailed instead of killing the process: without
// the recover, Ingest callers — a cluster feeder, the -serve ingest loop
// — would block forever on a session whose drive goroutine is gone.
func (s *Session) drive() {
	var rep Report
	defer func() {
		if r := recover(); r != nil {
			s.driveErr = fmt.Errorf("%w: %v", ErrDriveFailed, r)
		}
		// From here no ingest or control work is accepted; unblock
		// stragglers.
		close(s.finished)
		s.result <- rep
	}()
	rep = s.pl.driveBatches(s.vectors())
}

// vectors adapts the ingest/control channels into the vector sequence the
// platform filters consume. It runs entirely on the drive goroutine (the
// engine's pull chain), which is what makes Exec closures safe.
func (s *Session) vectors() iter.Seq[[]packet.Packet] {
	return func(yield func([]packet.Packet) bool) {
		for {
			select {
			case op := <-s.ctl:
				op.fn(s.pl)
				close(op.done)
			case b, ok := <-s.in:
				if !ok {
					return
				}
				more := yield(b)
				s.ack <- struct{}{}
				if !more {
					return
				}
			}
		}
	}
}

// captureSnapshot records the interval-boundary delta; called from
// endInterval on the drive goroutine after every interval subscriber
// (host flush, metrics emit) has run.
func (s *Session) captureSnapshot(ts int64, seq uint64) {
	counts := s.pl.counts.snapshot()
	cache := s.pl.cache.Stats()
	alerts := len(s.pl.alerts)
	snap := &IntervalSnapshot{
		Seq: seq, TsNs: ts,
		Counts: counts, CountsDelta: counts.Sub(s.prevCounts),
		Cache: cache, CacheDelta: cache.Sub(s.prevCache),
		Alerts: alerts, AlertsDelta: alerts - s.prevAlerts,
		Switchovers: s.pl.cache.Switchovers(),
	}
	snap.SNICProcessed, snap.SNICDropped, _ = s.pl.engine.LiveCounts()
	if s.pl.metrics != nil {
		snap.Metrics = s.pl.metrics.LastSnapshot()
	}
	s.prevCounts, s.prevCache, s.prevAlerts = counts, cache, alerts
	s.snap.Store(snap)
}

// Sub returns the field-wise difference c - prev (interval deltas).
func (c Counts) Sub(prev Counts) Counts {
	return Counts{
		Total:           c.Total - prev.Total,
		ForwardedDirect: c.ForwardedDirect - prev.ForwardedDirect,
		DroppedAtSwitch: c.DroppedAtSwitch - prev.DroppedAtSwitch,
		ToSNIC:          c.ToSNIC - prev.ToSNIC,
		ToHost:          c.ToHost - prev.ToHost,
		Blocked:         c.Blocked - prev.Blocked,
		Intervals:       c.Intervals - prev.Intervals,
	}
}
