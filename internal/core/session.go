// Session is the lifecycle-managed streaming drive (DESIGN.md §12): the
// conversion of the one-shot batch harness into the continuously running
// IPS the paper describes. A Session owns one pass of a Platform's run
// loop and splits it into explicit phases:
//
//	Start   — open the drive (the already constructed engine begins a
//	          fresh report). Starts no goroutine.
//	Ingest  — run one packet vector through the platform, to completion,
//	          on the caller's goroutine. When the call returns the caller
//	          may recycle the slice (packet.BufferedBatches feeds it
//	          directly); backpressure is the call itself.
//	Snapshot — read the latest interval-boundary report delta (captured
//	          at every interval close; lock-free for observers on any
//	          goroutine).
//	Drain   — run the final interval close and the lossless flow-log
//	          flush, and return the end-of-session Report — exactly the
//	          tail the old one-shot Run performed.
//	Close   — idempotent teardown (drains first if still running).
//
// There is no drive goroutine: the paper's sNIC runs each packet to
// completion on one PME thread, and so does this — packet vector to flow
// log on the goroutine that called Ingest. Everything stateful runs under
// the session mutex, so control closures submitted with Exec land between
// vectors with no packet in flight anywhere — the operator plane needs no
// locks around platform state, and a session that receives no Exec calls
// is observationally identical to the pre-session drive (Platform.Run is
// a thin wrapper over a Session and stays byte-exact).
package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"smartwatch/internal/flowcache"
	"smartwatch/internal/obs"
	"smartwatch/internal/packet"
	"smartwatch/internal/tier"
)

// ErrSessionClosed is returned by Ingest/Exec once the session's drive has
// finished (after Drain or Close) or failed.
var ErrSessionClosed = errors.New("core: session closed")

// ErrSessionState is returned for calls outside their lifecycle phase
// (Ingest before Start, Start twice, ...).
var ErrSessionState = errors.New("core: session in wrong state")

// ErrSessionActive is returned by Start when the platform already has a
// running session (a platform drives at most one at a time).
var ErrSessionActive = errors.New("core: platform already has an active session")

// ErrDriveFailed wraps a panic that escaped the datapath (a crashing
// detector, a corrupted stage). The session recovers it on the calling
// goroutine instead of letting it kill the process: that Ingest/Exec and
// every later one get ErrSessionClosed, Drain returns the wrapped panic,
// and the cluster runner surfaces it as a typed per-worker failure.
var ErrDriveFailed = errors.New("core: session drive failed")

// ErrNoSwitch is returned for an operator blacklist on an engine without a
// switch tier: there is no table to install the drop rule in.
var ErrNoSwitch = errors.New("core: switch tier disabled")

// operatorOrigin tags the bus events an operator's Whitelist / Blacklist
// publishes.
const operatorOrigin = "control"

// SessionState is the lifecycle phase of a Session.
type SessionState int32

// Session lifecycle phases.
const (
	// SessionIdle: constructed, not yet started.
	SessionIdle SessionState = iota
	// SessionRunning: drive open, accepting Ingest/Exec.
	SessionRunning
	// SessionDraining: ingestion closed, final flush in progress.
	SessionDraining
	// SessionDone: final report delivered; only Snapshot/Report work.
	SessionDone
	// SessionFailed: a panic escaped the datapath; the drive takes no more
	// work and Drain or Close moves it to SessionDone (a cluster runner
	// whose worker failed does the same).
	SessionFailed
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
	case SessionFailed:
		return "failed"
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

// Session is one lifecycle-managed streaming pass over a Platform. Create
// with Platform.NewSession; a Platform runs at most one session at a time
// (sequential sessions continue from the platform's accumulated state,
// exactly as sequential Run calls always have).
type Session struct {
	pl *Platform

	// mu serialises the datapath and the lifecycle: the bodies of Start,
	// Ingest, Exec, Drain and Close run under it on their caller's
	// goroutine, so at most one of them touches the platform at a time.
	mu sync.Mutex
	// state is written under mu; atomic so State never waits for a vector.
	state atomic.Int32
	final Report
	// driveErr records a panic recovered from the datapath (the state
	// moves to SessionFailed): the session accepts no more work and Drain
	// skips the final flush.
	driveErr error

	snap     atomic.Pointer[IntervalSnapshot]
	ingested atomic.Uint64

	// previous-interval baselines for delta computation (under mu).
	prevCounts Counts
	prevCache  flowcache.Stats
	prevAlerts int
}

// NewSession returns an idle session over the platform. Call Start to
// open the drive.
func (pl *Platform) NewSession() *Session { return &Session{pl: pl} }

// State reports the session's lifecycle phase. Safe from any goroutine,
// including inside an Exec closure.
func (s *Session) State() SessionState { return SessionState(s.state.Load()) }

// Ingested reports the total packets offered via Ingest so far.
func (s *Session) Ingested() uint64 { return s.ingested.Load() }

// Start opens the drive. It fails if the session was already started or
// the platform has another active session.
func (s *Session) Start() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.State() != SessionIdle {
		return ErrSessionState
	}
	if !s.pl.sessionBusy.CompareAndSwap(false, true) {
		return ErrSessionActive
	}
	s.pl.session = s
	s.pl.beginDrive()
	s.state.Store(int32(SessionRunning))
	return nil
}

// admit reports whether the session takes datapath work. Called under mu.
func (s *Session) admit() error {
	switch s.State() {
	case SessionRunning:
		return nil
	case SessionIdle:
		return ErrSessionState
	}
	return ErrSessionClosed
}

// protect runs one step of the drive and reports whether it completed. A
// panic in it (a crashing detector, a corrupted stage) is recovered into
// driveErr and SessionFailed: the platform may be half-updated, so the
// session takes no more work, but the caller — a cluster feeder, the
// smartwatch ingest loop — gets an error instead of a dead process.
func (s *Session) protect(step func()) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			s.driveErr = fmt.Errorf("%w: %v", ErrDriveFailed, r)
			s.state.Store(int32(SessionFailed))
		}
	}()
	step()
	return true
}

// Ingest runs one packet vector through the platform on the caller's
// goroutine and returns once it has been fully processed (the slice may be
// reused immediately — recycled packet.BufferedBatches vectors feed it
// directly). Concurrent callers are serialised. Timestamps must be
// non-decreasing across the whole session, as everywhere else.
func (s *Session) Ingest(batch []packet.Packet) error {
	if len(batch) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.admit(); err != nil {
		return err
	}
	if !s.protect(func() { s.pl.ingestVector(batch) }) {
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
			// Round up to a BatchSize multiple so the drive consumes every
			// vector in place without ever copying into its carry.
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

// Exec runs fn under the session lock, between ingest vectors (or
// immediately when ingestion is idle), and returns after fn completes.
// This is the operator plane's safe point: no packet is in flight anywhere
// on the packet path while fn runs, so fn may publish bus events, reprogram
// the switch, or read any platform state without additional locking. fn
// must not call back into the session's Ingest, Exec, Drain or Close.
func (s *Session) Exec(fn func(*Platform)) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.admit(); err != nil {
		return err
	}
	if !s.protect(func() { fn(s.pl) }) {
		return ErrSessionClosed
	}
	return nil
}

// Snapshot returns the most recent interval-boundary delta snapshot (nil
// before the first interval close). Safe from any goroutine.
func (s *Session) Snapshot() *IntervalSnapshot { return s.snap.Load() }

// Snapshots is Snapshot as a one-lane list, the shape a cluster runner
// reports per worker. Safe from any goroutine.
func (s *Session) Snapshots() []*IntervalSnapshot { return []*IntervalSnapshot{s.Snapshot()} }

// BusStats reports the platform's control-plane bus traffic.
func (s *Session) BusStats() tier.BusStats { return s.pl.bus.Stats() }

// Whitelist publishes an operator whitelist for k on the bus at the
// session's safe point: the switch installs the entry and the FlowCache
// releases any pin, exactly as for a detector-raised whitelist.
func (s *Session) Whitelist(k packet.FlowKey) error {
	return s.Exec(func(pl *Platform) {
		pl.bus.Publish(tier.WhitelistEvent{Key: k, Origin: operatorOrigin})
	})
}

// Blacklist publishes an operator drop rule for source a on the bus at
// the session's safe point. It fails with ErrNoSwitch when the platform
// has no switch tier to install the rule in.
func (s *Session) Blacklist(a packet.Addr) error {
	if s.pl.sw == nil {
		return ErrNoSwitch
	}
	return s.Exec(func(pl *Platform) {
		pl.bus.Publish(tier.BlacklistEvent{Addr: a, Origin: operatorOrigin})
	})
}

// WhitelistEntries reads the switch whitelist between vectors (nil
// without a switch tier). Works in every lifecycle phase.
func (s *Session) WhitelistEntries() []packet.FlowKey {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pl.sw == nil {
		return nil
	}
	return s.pl.sw.WhitelistEntries()
}

// BlacklistEntries reads the switch drop table between vectors (nil
// without a switch tier). Works in every lifecycle phase.
func (s *Session) BlacklistEntries() []packet.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pl.sw == nil {
		return nil
	}
	return s.pl.sw.BlacklistEntries()
}

// Drain closes ingestion, runs the final interval close and the lossless
// flow-log flush, and returns the final Report — the exact tail sequence
// of the pre-session one-shot Run. When a flow-log flush failed the Report
// is complete and the error is its FlowLogErr; when the drive failed the
// Report is empty and the error wraps ErrDriveFailed. Drain on a drained
// session returns the same pair again.
func (s *Session) Drain() (Report, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.drain()
}

// drain is Drain under mu.
func (s *Session) drain() (Report, error) {
	switch s.State() {
	case SessionIdle:
		return Report{}, ErrSessionState
	case SessionRunning:
		s.state.Store(int32(SessionDraining))
		s.protect(func() { s.final = s.pl.endDrive() })
		fallthrough
	case SessionFailed:
		s.state.Store(int32(SessionDone))
		s.pl.session = nil
		s.pl.sessionBusy.Store(false)
	}
	if s.driveErr != nil {
		return s.final, s.driveErr
	}
	return s.final, s.final.FlowLogErr
}

// Report returns the final report after Drain (zero Report, false before).
func (s *Session) Report() (Report, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.State() != SessionDone {
		return Report{}, false
	}
	return s.final, true
}

// Close tears the session down. A running session is drained first (the
// final flush still happens — Close is the polite SIGTERM path); a drained
// or idle session just transitions to Done. The session started no
// goroutine, so there is nothing else to stop. Idempotent, and safe to
// call concurrently with itself and with Drain: one caller drains and
// returns the drain's error, the rest wait for the final flush and return
// nil.
func (s *Session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch s.State() {
	case SessionRunning, SessionFailed:
		_, err := s.drain()
		return err
	case SessionIdle:
		s.state.Store(int32(SessionDone))
	}
	return nil
}

// captureSnapshot records the interval-boundary delta; called from
// endInterval (so under mu) after every interval subscriber (host flush,
// metrics emit) has run.
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
