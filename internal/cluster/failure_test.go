package cluster

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"smartwatch/internal/core"
	"smartwatch/internal/detect"
	"smartwatch/internal/flowcache"
	"smartwatch/internal/packet"
	"smartwatch/internal/snic"
	"smartwatch/internal/trace"
)

// crashDetector panics after `after` packets — a corrupted in-line
// detector taking its worker's drive down mid-run.
type crashDetector struct {
	n, after int
}

func (d *crashDetector) Name() string { return "crash-injector" }
func (d *crashDetector) OnPacket(p *packet.Packet, rec *flowcache.Record, ctx snic.Ctx) detect.Reaction {
	d.n++
	if d.n > d.after {
		panic("crash-injector: boom")
	}
	return detect.Reaction{}
}
func (d *crashDetector) Tick(int64)            {}
func (d *crashDetector) Drain() []detect.Alert { return nil }

// stallDetector wedges its worker's drive: the first instance (across
// the whole cluster) to see a packet parks on the shared gate until the
// test closes it. Other lanes run at full speed.
type stallDetector struct {
	gate    chan struct{}
	wedged  *atomic.Bool
	blocked bool
}

func (d *stallDetector) Name() string { return "stall-injector" }
func (d *stallDetector) OnPacket(p *packet.Packet, rec *flowcache.Record, ctx snic.Ctx) detect.Reaction {
	if !d.blocked && d.wedged.CompareAndSwap(false, true) {
		d.blocked = true // this lane took the wedge; block exactly once
		<-d.gate
	}
	return detect.Reaction{}
}
func (d *stallDetector) Tick(int64)            {}
func (d *stallDetector) Drain() []detect.Alert { return nil }

func failureStream() packet.Stream {
	return trace.NewWorkload(trace.WorkloadConfig{
		Seed: 31, Flows: 200, PacketRate: 1e6, Duration: 1e15, // effectively unbounded
	}).Stream()
}

// feedUntilError pushes batches until the runner reports a failure (or
// the budget runs out, which fails the test).
func feedUntilError(t *testing.T, r *Runner, budget int) error {
	t.Helper()
	n := 0
	for b := range packet.BufferedBatches(failureStream(), 256) {
		if err := r.Ingest(b); err != nil {
			return err
		}
		n += len(b)
		if n > budget {
			t.Fatalf("no failure surfaced after %d packets", n)
		}
	}
	return nil
}

// TestClusterWorkerCrashSurfacesTypedError: a drive panic on one lane
// must surface as a WorkerError wrapping core.ErrDriveFailed — promptly,
// with no ingress deadlock — and teardown must stay clean.
func TestClusterWorkerCrashSurfacesTypedError(t *testing.T) {
	r := New(Config{
		Workers: 2,
		Worker:  core.Config{IntervalNs: 50e6, BatchSize: 64},
		Detectors: func() []detect.Detector {
			return []detect.Detector{&crashDetector{after: 500}}
		},
		QueueBatch:  128,
		SyncPackets: 512,
	})
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	err := feedUntilError(t, r, 1<<22)
	var we *WorkerError
	if !errors.As(err, &we) {
		t.Fatalf("error is %v, want *WorkerError", err)
	}
	if !errors.Is(err, core.ErrDriveFailed) {
		t.Errorf("error %v does not wrap core.ErrDriveFailed", err)
	}
	if r.State() != core.SessionFailed {
		t.Errorf("state = %v, want failed", r.State())
	}
	if _, derr := r.Drain(); !errors.Is(derr, core.ErrDriveFailed) {
		t.Errorf("Drain after failure = %v, want the recorded error", derr)
	}
	if r.State() != core.SessionDone {
		t.Errorf("state after Drain = %v, want done (as a failed session's)", r.State())
	}
	if cerr := r.Close(); !errors.Is(cerr, core.ErrDriveFailed) {
		t.Errorf("Close after failure = %v, want the recorded error", cerr)
	}
}

// TestClusterWorkerStallSurfacesTypedError: under the hash policy a
// wedged drive keeps receiving its hash share until its ring fills; the
// router must then turn the stall into ErrWorkerStalled after
// StallTimeout instead of deadlocking.
func TestClusterWorkerStallSurfacesTypedError(t *testing.T) {
	gate := make(chan struct{})
	var wedged atomic.Bool
	r := New(Config{
		Workers: 2,
		Worker:  core.Config{IntervalNs: 1e15, BatchSize: 64},
		Detectors: func() []detect.Detector {
			return []detect.Detector{&stallDetector{gate: gate, wedged: &wedged}}
		},
		QueueBatch:   128,
		SyncPackets:  1 << 30, // no folds: a fold barrier would (correctly) wait forever
		StallTimeout: 20 * time.Millisecond,
	})
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	err := feedUntilError(t, r, 1<<22)
	var we *WorkerError
	if !errors.As(err, &we) {
		t.Fatalf("error is %v, want *WorkerError", err)
	}
	if !errors.Is(err, ErrWorkerStalled) {
		t.Errorf("error %v does not wrap ErrWorkerStalled", err)
	}
	close(gate) // unwedge so teardown can reap the healthy feeder
	if cerr := r.Close(); !errors.Is(cerr, ErrWorkerStalled) {
		t.Errorf("Close after stall = %v, want the recorded error", cerr)
	}
	if r.State() != core.SessionDone {
		t.Errorf("state after Close = %v, want done", r.State())
	}
}

// TestClusterLoadSteerRoutesAroundWedgedWorker: the same single-lane
// wedge that kills a hash-policy run (see the stall test above) must NOT
// kill a load-policy run. Once the wedged lane saturates, its depth
// ((queueDepth+1)·QueueBatch) permanently exceeds anything the router
// can observe on a live lane, so leastLoaded diverts its entire hash
// share to the successor and the run completes with no error, no stall
// re-steer, and no packet loss.
func TestClusterLoadSteerRoutesAroundWedgedWorker(t *testing.T) {
	gate := make(chan struct{})
	var wedged atomic.Bool
	r := New(Config{
		Workers: 2,
		Worker:  core.Config{IntervalNs: 1e15, BatchSize: 64},
		Detectors: func() []detect.Detector {
			return []detect.Detector{&stallDetector{gate: gate, wedged: &wedged}}
		},
		Steer:        SteerLoad,
		QueueBatch:   128,
		SyncPackets:  1 << 30,
		StallTimeout: 20 * time.Millisecond,
	})
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	var offered uint64
	n := 0
	for b := range packet.BufferedBatches(failureStream(), 256) {
		if err := r.Ingest(b); err != nil {
			t.Fatalf("ingest under load steer failed: %v", err)
		}
		offered += uint64(len(b))
		if n++; n >= 120 { // ~30k packets, far past lane saturation
			break
		}
	}
	close(gate) // release the wedged lane so the drain barrier completes
	rep, err := r.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Merged.Counts.Total != offered {
		t.Errorf("merged total %d, want %d offered", rep.Merged.Counts.Total, offered)
	}
	var steered, processed uint64
	for _, c := range rep.Steer.PerWorker {
		steered += c
	}
	for i := range rep.Workers {
		processed += rep.Workers[i].Counts.Total
	}
	if steered != offered {
		t.Errorf("steered %d, want %d", steered, offered)
	}
	if processed != offered {
		t.Errorf("workers processed %d, want %d (no packet may vanish)", processed, offered)
	}
	// The wedged lane froze at exactly its saturation depth; everything
	// else landed on the live lane via leastLoaded, not via stall
	// diversion.
	if rep.Steer.Resteers != 0 {
		t.Errorf("resteers = %d, want 0 (diversion should happen at steering time)", rep.Steer.Resteers)
	}
	// The wedged lane can hold at most its saturation depth (full ring +
	// held batch + one partial buffer); everything beyond that must have
	// been diverted at steering time.
	sat := uint64((queueDepth+1)*128) + 127
	if got := min64(rep.Steer.PerWorker); got > sat {
		t.Errorf("wedged lane received %d packets, want <= saturation depth %d", got, sat)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

func min64(xs []uint64) uint64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// TestClusterPushResteersOnFullRing is the white-box mechanism test for
// the stall re-steer: force a dispatch onto a saturated ring (something
// leastLoaded avoids organically — see its comment) and assert the
// buffer diverts to the ring successor after StallTimeout with every
// packet intact. Also exercises popFree's starvation escape: the wedged
// lane's free list is empty, so the router must mint replacement buffers
// instead of deadlocking.
func TestClusterPushResteersOnFullRing(t *testing.T) {
	gate := make(chan struct{})
	var wedged atomic.Bool
	r := New(Config{
		Workers: 2,
		Worker:  core.Config{IntervalNs: 1e15, BatchSize: 64},
		Detectors: func() []detect.Detector {
			return []detect.Detector{&stallDetector{gate: gate, wedged: &wedged}}
		},
		Steer:        SteerLoad,
		QueueBatch:   128,
		SyncPackets:  1 << 30,
		StallTimeout: 10 * time.Millisecond,
	})
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	var pkts []packet.Packet
	for b := range packet.BufferedBatches(failureStream(), 128) {
		pkts = append(pkts, b...)
		if len(pkts) >= 6*128 {
			break
		}
	}

	r.mu.Lock()
	w0 := r.workers[0]
	// Saturate lane 0: the feeder pops the first batch and wedges on its
	// first packet; four more fill the ring. The fifth popFree finds the
	// free list starved (the wedged feeder recycles nothing) and must
	// time out into a fresh allocation rather than spin forever.
	for i := 0; i < queueDepth+1; i++ {
		w0.buf = append(w0.buf, pkts[i*128:(i+1)*128]...)
		if err := r.dispatch(w0); err != nil {
			r.mu.Unlock()
			t.Fatalf("saturating dispatch %d failed: %v", i, err)
		}
	}
	// The forced dispatch: lane 0's ring is full and its feeder wedged,
	// so this must stall out and divert to lane 1 — no error, no loss.
	w0.buf = append(w0.buf, pkts[5*128:6*128]...)
	err := r.dispatch(w0)
	r.mu.Unlock()
	if err != nil {
		t.Fatalf("dispatch onto full ring = %v, want re-steer", err)
	}
	if got := r.resteers.Load(); got != 1 {
		t.Errorf("resteers = %d, want 1", got)
	}

	close(gate)
	rep, derr := r.Drain()
	if derr != nil {
		t.Fatal(derr)
	}
	var processed uint64
	for i := range rep.Workers {
		processed += rep.Workers[i].Counts.Total
	}
	if processed != 6*128 {
		t.Errorf("workers processed %d, want %d (diverted batch must not vanish)", processed, 6*128)
	}
	if rep.Workers[1].Counts.Total < 128 {
		t.Errorf("successor lane processed %d, want >= the diverted 128", rep.Workers[1].Counts.Total)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAwaitParksUntilSignalledOrDeadline pins the router's one wait
// primitive: it parks (no busy loop) until a feeder-style signal makes
// the condition true, tolerates a stale wake token, and with a deadline
// gives up once nothing signals.
func TestAwaitParksUntilSignalledOrDeadline(t *testing.T) {
	r := New(Config{Workers: 2, Worker: core.Config{IntervalNs: 1e15}})
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	var done atomic.Bool
	var polls int
	r.routerWake <- struct{}{} // stale token from an earlier wait
	go func() {
		time.Sleep(20 * time.Millisecond)
		done.Store(true)
		if r.routerWaiting.Load() { // the feeder's completion signal
			r.routerWake <- struct{}{}
		}
	}()
	if !r.await(func() bool { polls++; return done.Load() }, time.Time{}) {
		t.Fatal("await without a deadline reported failure")
	}
	// spinPasses polls, one per park attempt (stale token, real wake) and
	// the final recheck — not one per scheduler yield for 20 ms.
	if polls > spinPasses+4 {
		t.Errorf("condition polled %d times: await spun instead of parking", polls)
	}

	start := time.Now()
	if r.await(func() bool { return false }, start.Add(10*time.Millisecond)) {
		t.Error("await reported success for a condition that never held")
	}
	if d := time.Since(start); d < 10*time.Millisecond || d > 2*time.Second {
		t.Errorf("await gave up after %v, want about the 10ms deadline", d)
	}
	if r.routerWaiting.Load() {
		t.Error("routerWaiting left set after await returned")
	}
}
