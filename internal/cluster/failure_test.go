package cluster

import (
	"errors"
	"runtime"
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

// keyOnLane returns a flow key that r steers to the given lane.
func keyOnLane(r *Runner, lane int) packet.FlowKey {
	for port := uint16(1); ; port++ {
		k := packet.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: port, DstPort: 4, Proto: packet.ProtoTCP}.Canonical()
		if int(k.Hash()>>r.shift) == lane {
			return k
		}
	}
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
	// Without a shared switch a whitelist is the owning session's call:
	// the crashed lane's refuses, and after Drain every lane's does.
	if err := r.Whitelist(keyOnLane(r, we.Worker)); !errors.Is(err, core.ErrSessionClosed) {
		t.Errorf("Whitelist on the failed lane = %v, want %v", err, core.ErrSessionClosed)
	}
	if _, derr := r.Drain(); !errors.Is(derr, core.ErrDriveFailed) {
		t.Errorf("Drain after failure = %v, want the recorded error", derr)
	}
	for lane := range r.workers {
		if err := r.Whitelist(keyOnLane(r, lane)); !errors.Is(err, core.ErrSessionClosed) {
			t.Errorf("Whitelist on lane %d after Drain = %v, want %v", lane, err, core.ErrSessionClosed)
		}
	}
	if r.State() != core.SessionDone {
		t.Errorf("state after Drain = %v, want done (as a failed session's)", r.State())
	}
	if cerr := r.Close(); !errors.Is(cerr, core.ErrDriveFailed) {
		t.Errorf("Close after failure = %v, want the recorded error", cerr)
	}
}

// TestRunnerReleasesFeeders: however a parallel run ends — a clean
// Drain, Close on a running runner, a worker crash — its feeder
// goroutines exit. Teardown ends
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
