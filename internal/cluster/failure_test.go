package cluster

import (
	"errors"
	"runtime"
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

// TestClusterWorkerStallSurfacesTypedError: a wedged drive keeps
// receiving its hash share until its in channel fills; the router must then turn
// the stall into ErrWorkerStalled after StallTimeout instead of
// deadlocking. On the way, popFree finds the wedged lane's free list
// starved and must mint a replacement buffer rather than wait forever.
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

// TestRunnerReleasesFeeders: however a parallel run ends — a clean
// Drain, Close on a running runner, a worker crash, a stall once the
// wedged worker is released — its feeder goroutines exit. Teardown ends
// a feeder by closing its in channel; without that, teardown waits on
// the healthy feeders forever.
func TestRunnerReleasesFeeders(t *testing.T) {
	healthy := Config{
		Workers:     2,
		Worker:      core.Config{IntervalNs: 50e6, BatchSize: 64},
		QueueBatch:  128,
		SyncPackets: 512,
	}
	crash := healthy
	crash.Detectors = func() []detect.Detector {
		return []detect.Detector{&crashDetector{after: 500}}
	}
	gate := make(chan struct{})
	var wedged atomic.Bool
	stall := healthy
	stall.Worker.IntervalNs = 1e15
	stall.SyncPackets = 1 << 30
	stall.StallTimeout = 20 * time.Millisecond
	stall.Detectors = func() []detect.Detector {
		return []detect.Detector{&stallDetector{gate: gate, wedged: &wedged}}
	}
	feed := func(t *testing.T, r *Runner) {
		n := 0
		for b := range packet.BufferedBatches(failureStream(), 256) {
			if err := r.Ingest(b); err != nil {
				t.Fatal(err)
			}
			if n += len(b); n >= 20000 {
				return
			}
		}
	}
	fail := func(t *testing.T, r *Runner) {
		var we *WorkerError
		if err := feedUntilError(t, r, 1<<22); !errors.As(err, &we) {
			t.Fatalf("error is %v, want *WorkerError", err)
		}
	}
	for _, tc := range []struct {
		name string
		cfg  Config
		feed func(*testing.T, *Runner)
		end  func(*Runner)
	}{
		{"drain", healthy, feed, func(r *Runner) { r.Drain() }},
		{"close-running", healthy, feed, func(r *Runner) { r.Close() }},
		{"crash", crash, fail, func(r *Runner) { r.Drain() }},
		{"stall", stall, fail, func(r *Runner) { r.Close(); close(gate) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			r := New(tc.cfg)
			if err := r.Start(); err != nil {
				t.Fatal(err)
			}
			tc.feed(t, r)
			ended := make(chan struct{})
			go func() { defer close(ended); tc.end(r) }()
			deadline := time.After(30 * time.Second)
			select {
			case <-ended:
			case <-deadline:
				t.Fatal("teardown did not return")
			}
			for runtime.NumGoroutine() > before {
				select {
				case <-deadline:
					t.Fatalf("%d goroutines after teardown, %d before New", runtime.NumGoroutine(), before)
				case <-time.After(time.Millisecond):
				}
			}
		})
	}
}
