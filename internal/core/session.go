// Session is the lifecycle-managed streaming drive (DESIGN.md §13.1): the
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

	"smartwatch/internal/packet"
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

// operatorOrigin tags the events an operator's Whitelist / Blacklist
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
	// SessionDone: final report delivered; Drain returns it again, and
	// Ingest / Exec get ErrSessionClosed.
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
}

// NewSession returns an idle session over the platform. Call Start to
// open the drive.
func (pl *Platform) NewSession() *Session { return &Session{pl: pl} }

// State reports the session's lifecycle phase. Safe from any goroutine,
// including inside an Exec closure.
func (s *Session) State() SessionState { return SessionState(s.state.Load()) }

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
	s.pl.engine.Begin()
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
	return nil
}

// Exec runs fn under the session lock, between ingest vectors (or
// immediately when ingestion is idle), and returns after fn completes.
// This is the operator plane's safe point: no packet is in flight anywhere
// on the packet path while fn runs, so fn may run control actions, reprogram
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

// Whitelist runs an operator whitelist for k at the session's safe point:
// the switch installs the entry and the FlowCache releases any pin,
// exactly as for a detector-raised whitelist.
func (s *Session) Whitelist(k packet.FlowKey) error {
	return s.Exec(func(pl *Platform) { pl.whitelist(k, operatorOrigin) })
}

// Blacklist runs an operator drop rule for source a at the session's safe
// point. It fails with ErrNoSwitch when the platform has no switch tier to
// install the rule in.
func (s *Session) Blacklist(a packet.Addr) error {
	if s.pl.sw == nil {
		return ErrNoSwitch
	}
	return s.Exec(func(pl *Platform) { pl.blacklist(a, operatorOrigin) })
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
		s.pl.sessionBusy.Store(false)
	}
	if s.driveErr != nil {
		return s.final, s.driveErr
	}
	return s.final, s.final.FlowLogErr
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
