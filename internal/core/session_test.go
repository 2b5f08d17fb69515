package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"smartwatch/internal/detect"
	"smartwatch/internal/flowcache"
	"smartwatch/internal/host"
	"smartwatch/internal/obs"
	"smartwatch/internal/p4switch"
	"smartwatch/internal/packet"
	"smartwatch/internal/snic"
	"smartwatch/internal/stats"
	"smartwatch/internal/tier"
	"smartwatch/internal/trace"
)

// sessionIngest drives a collected trace through a session in vectors of
// chunk packets and drains, failing the test on any lifecycle error.
func sessionIngest(t *testing.T, pl *Platform, pkts []packet.Packet, chunk int) Report {
	t.Helper()
	ses := pl.NewSession()
	if err := ses.Start(); err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < len(pkts); lo += chunk {
		hi := lo + chunk
		if hi > len(pkts) {
			hi = len(pkts)
		}
		if err := ses.Ingest(pkts[lo:hi]); err != nil {
			t.Fatalf("Ingest[%d:%d]: %v", lo, hi, err)
		}
	}
	rep, err := ses.Drain()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestChunkedIngestMatchesRun extends the PR 3 determinism sweep to the
// session path (ISSUE 7 satellite): the same trace driven as one stream
// through Run and as N Ingest chunks through a Session must produce
// byte-identical final Reports, flow logs and metrics snapshot streams at
// every BatchSize × Shards combination. Chunk sizes are chosen to be
// misaligned with every batch size so vectors end in short chunks, plus
// chunk=1 (one Ingest round-trip per packet).
func TestChunkedIngestMatchesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full-platform sweep; session lifecycle covered by -short tests")
	}
	pkts := packet.Collect(mixedStream())
	for _, shards := range []int{1, 4} {
		for _, batch := range []int{1, 64} {
			mk := func() (*Platform, *bytes.Buffer) {
				var buf bytes.Buffer
				cfg := fullConfig(shards)
				cfg.BatchSize = batch
				cfg.Metrics = obs.NewRegistry()
				cfg.MetricsWriter = &buf
				return New(cfg), &buf
			}
			base, baseBuf := mk()
			baseRep := base.Run(mixedStream())
			want := canonicalDump(base, baseRep) + kvDump(base)

			for _, chunk := range []int{1, 509, 4096} {
				pl, buf := mk()
				rep := sessionIngest(t, pl, pkts, chunk)
				if got := canonicalDump(pl, rep) + kvDump(pl); got != want {
					t.Errorf("shards=%d batch=%d chunk=%d: session diverged from Run:\n%s",
						shards, batch, chunk, firstDiffLine(want, got))
				}
				if !bytes.Equal(baseBuf.Bytes(), buf.Bytes()) {
					t.Errorf("shards=%d batch=%d chunk=%d: metrics lines diverged:\n%s",
						shards, batch, chunk, firstDiffLine(baseBuf.String(), buf.String()))
				}
			}
		}
	}
}

// splitAtIntervalCrossings cuts the trace at the first packet whose
// timestamp reaches each boundary, so a segment ends exactly where the
// one-shot drive would close the interval anyway.
func splitAtIntervalCrossings(pkts []packet.Packet, boundaries ...int64) [][]packet.Packet {
	var segs [][]packet.Packet
	lo := 0
	for _, b := range boundaries {
		hi := lo
		for hi < len(pkts) && pkts[hi].Ts < b {
			hi++
		}
		segs = append(segs, pkts[lo:hi])
		lo = hi
	}
	return append(segs, pkts[lo:])
}

// TestSegmentedRunMatchesOneShot is the engine-hoist golden (ISSUE 7
// satellite): snic.New moved from Platform.Run into New, so the engine's
// thread-scheduler and dispatch state persist across drives and a trace split
// into sequential Run calls reproduces the one-shot drive's datapath
// exactly. The proof is per-packet: an SNIC observer records every
// (timestamp, modelled latency) pair, and the segmented trace must equal
// the one-shot trace float-for-float — any reconstructed engine state
// (idle dispatch port, cold thread ring) would shift the very first
// latencies of a later segment. Segments are split at interval-boundary
// crossings, where the per-Run drive tail (forced interval close + final
// flow-log flush) performs exactly the interval work the one-shot drive
// performs at the same virtual time; the flow log legitimately gains the
// per-segment final-flush snapshots (documented Run semantics), so the
// comparison covers the datapath trace, counts and alerts, not the KV.
func TestSegmentedRunMatchesOneShot(t *testing.T) {
	if testing.Short() {
		t.Skip("full-platform golden; engine persistence covered by session tests in -short runs")
	}
	pkts := packet.Collect(mixedStream())

	type obsPoint struct {
		ts  int64
		lat float64
	}
	mk := func(sink *[]obsPoint) *Platform {
		cfg := fullConfig(1)
		cfg.SNIC = snic.DefaultConfig()
		cfg.SNIC.Observer = func(p *packet.Packet, latencyNs float64) {
			*sink = append(*sink, obsPoint{p.Ts, latencyNs})
		}
		return New(cfg)
	}

	var oneTrace []obsPoint
	one := mk(&oneTrace)
	oneRep := one.Run(packet.StreamOf(pkts))

	var segTrace []obsPoint
	seg := mk(&segTrace)
	var lastRep Report
	var segProcessed, segDropped uint64
	segs := splitAtIntervalCrossings(pkts, 100e6, 200e6, 300e6)
	if len(segs) != 4 {
		t.Fatalf("expected 4 segments, got %d", len(segs))
	}
	for i, s := range segs {
		if len(s) == 0 {
			t.Fatalf("segment %d empty; split boundaries outside trace span", i)
		}
		lastRep = seg.Run(packet.StreamOf(s))
		segProcessed += lastRep.SNIC.Processed
		segDropped += lastRep.SNIC.Dropped
	}

	if len(segTrace) != len(oneTrace) {
		t.Fatalf("observer trace lengths: segmented %d, one-shot %d", len(segTrace), len(oneTrace))
	}
	for i := range oneTrace {
		if segTrace[i] != oneTrace[i] {
			t.Fatalf("datapath diverged at packet %d: segmented (ts=%d lat=%v), one-shot (ts=%d lat=%v)",
				i, segTrace[i].ts, segTrace[i].lat, oneTrace[i].ts, oneTrace[i].lat)
		}
	}
	if segProcessed != oneRep.SNIC.Processed || segDropped != oneRep.SNIC.Dropped {
		t.Errorf("engine totals: segmented processed=%d dropped=%d, one-shot processed=%d dropped=%d",
			segProcessed, segDropped, oneRep.SNIC.Processed, oneRep.SNIC.Dropped)
	}
	// Counts are cumulative platform state and must line up exactly,
	// including the interval count: the forced close at each segment tail
	// happens at the same boundary the one-shot drive closes at.
	if lastRep.Counts != oneRep.Counts {
		t.Errorf("counts diverged:\nsegmented %+v\n one-shot %+v", lastRep.Counts, oneRep.Counts)
	}
	if len(lastRep.Alerts) != len(oneRep.Alerts) {
		t.Fatalf("alert counts: segmented %d, one-shot %d", len(lastRep.Alerts), len(oneRep.Alerts))
	}
	for i := range oneRep.Alerts {
		if lastRep.Alerts[i].String() != oneRep.Alerts[i].String() {
			t.Errorf("alert[%d] differs: %s vs %s", i, lastRep.Alerts[i], oneRep.Alerts[i])
		}
	}
	if oneRep.SNIC.Processed == 0 || len(oneTrace) == 0 {
		t.Fatal("workload produced no processed packets; golden vacuous")
	}
}

// smallWorkload is a fast stream for lifecycle tests (~100k packets).
func smallWorkload() packet.Stream {
	return trace.NewWorkload(trace.WorkloadConfig{
		Seed: 21, Flows: 200, PacketRate: 1e6, Duration: 1e8,
	}).Stream()
}

func TestSessionLifecycle(t *testing.T) {
	pl := New(Config{IntervalNs: 20e6})
	ses := pl.NewSession()

	if got := ses.State(); got != SessionIdle {
		t.Fatalf("new session state = %v", got)
	}
	if err := ses.Ingest([]packet.Packet{{}}); err != ErrSessionState {
		t.Fatalf("Ingest before Start = %v, want ErrSessionState", err)
	}
	if err := ses.Exec(func(*Platform) {}); err != ErrSessionState {
		t.Fatalf("Exec before Start = %v, want ErrSessionState", err)
	}
	if _, err := ses.Drain(); err != ErrSessionState {
		t.Fatalf("Drain before Start = %v, want ErrSessionState", err)
	}
	if _, ok := ses.Report(); ok {
		t.Fatal("Report before drain should be absent")
	}

	if err := ses.Start(); err != nil {
		t.Fatal(err)
	}
	if got := ses.State(); got != SessionRunning {
		t.Fatalf("state after Start = %v", got)
	}
	if err := ses.Start(); err != ErrSessionState {
		t.Fatalf("second Start = %v, want ErrSessionState", err)
	}
	// One platform drives at most one session at a time.
	other := pl.NewSession()
	if err := other.Start(); err != ErrSessionActive {
		t.Fatalf("concurrent session Start = %v, want ErrSessionActive", err)
	}

	if snap := ses.Snapshot(); snap != nil {
		t.Fatalf("Snapshot before any interval close = %+v, want nil", snap)
	}
	if err := ses.IngestStream(smallWorkload(), 0); err != nil {
		t.Fatal(err)
	}
	if ses.Ingested() == 0 {
		t.Fatal("Ingested() did not advance")
	}
	snap := ses.Snapshot()
	if snap == nil || snap.Seq == 0 {
		t.Fatalf("no interval snapshot after a 5-interval trace: %+v", snap)
	}
	if snap.TsNs%20e6 != 0 {
		t.Errorf("snapshot ts %d not an interval boundary", snap.TsNs)
	}
	if snap.Counts.Total < snap.CountsDelta.Total {
		t.Errorf("cumulative %d < delta %d", snap.Counts.Total, snap.CountsDelta.Total)
	}

	rep, err := ses.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if got := ses.State(); got != SessionDone {
		t.Fatalf("state after Drain = %v", got)
	}
	if rep.Counts.Total != ses.Ingested() {
		t.Errorf("report total %d != ingested %d", rep.Counts.Total, ses.Ingested())
	}
	// The drain tail closes the final interval; the snapshot reflects it.
	final := ses.Snapshot()
	if final == nil || final.Seq < snap.Seq {
		t.Errorf("final snapshot seq %v regressed from %d", final, snap.Seq)
	}
	if rep2, ok := ses.Report(); !ok || rep2.Counts != rep.Counts {
		t.Errorf("Report() after drain = (%+v, %v)", rep2.Counts, ok)
	}
	// Drain on a done session returns the cached report.
	if rep3, err := ses.Drain(); err != nil || rep3.Counts != rep.Counts {
		t.Errorf("second Drain = (%+v, %v)", rep3.Counts, err)
	}
	if err := ses.Ingest([]packet.Packet{{}}); err != ErrSessionClosed {
		t.Fatalf("Ingest after Drain = %v, want ErrSessionClosed", err)
	}
	if err := ses.Exec(func(*Platform) {}); err != ErrSessionClosed {
		t.Fatalf("Exec after Drain = %v, want ErrSessionClosed", err)
	}
	if err := ses.Close(); err != nil {
		t.Fatalf("Close after Drain = %v", err)
	}

	// The platform is free again: a new session continues from accumulated
	// state, exactly as sequential Run calls do.
	next := pl.NewSession()
	if err := next.Start(); err != nil {
		t.Fatalf("session after drain: %v", err)
	}
	if err := next.Close(); err != nil {
		t.Fatal(err)
	}

	// Closing an idle session retires it without running.
	idle := pl.NewSession()
	if err := idle.Close(); err != nil {
		t.Fatal(err)
	}
	if err := idle.Start(); err != ErrSessionState {
		t.Fatalf("Start after Close = %v, want ErrSessionState", err)
	}
}

// TestSessionExecSafePoint: control closures run at packet boundaries on
// the drive goroutine and may run control actions — the operator plane's
// whitelist install path.
func TestSessionExecSafePoint(t *testing.T) {
	cfg := fullConfig(1)
	pl := New(cfg)
	ses := pl.NewSession()
	if err := ses.Start(); err != nil {
		t.Fatal(err)
	}
	key := packet.FiveTuple{
		SrcIP: packet.MustParseAddr("10.0.0.1"), SrcPort: 2000,
		DstIP: packet.MustParseAddr("10.0.0.2"), DstPort: 80,
		Proto: packet.ProtoTCP,
	}.Canonical()
	if err := ses.Exec(func(pl *Platform) {
		pl.Whitelist(key)
	}); err != nil {
		t.Fatal(err)
	}
	var entries []packet.FlowKey
	if err := ses.Exec(func(pl *Platform) {
		entries = pl.Switch().WhitelistEntries()
	}); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range entries {
		if e == key {
			found = true
		}
	}
	if !found {
		t.Fatalf("whitelist entry %v not installed via Exec; entries=%v", key, entries)
	}
	// The whitelisted flow now takes the switch fast path.
	if err := ses.IngestStream(smallWorkload(), 0); err != nil {
		t.Fatal(err)
	}
	rep, err := ses.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Events.PublishedFor(tier.KindWhitelist) == 0 {
		t.Error("whitelist publish not accounted on the bus")
	}
}

// TestExecSeesEveryIngestedPacket: an Exec after an Ingest runs after
// every packet of that Ingest, also when the vector does not divide into
// BatchSize chunks — the cluster's pre-drain AdvanceClock relies on it.
func TestExecSeesEveryIngestedPacket(t *testing.T) {
	pl := New(Config{BatchSize: 64})
	ses := pl.NewSession()
	if err := ses.Start(); err != nil {
		t.Fatal(err)
	}
	pkts := make([]packet.Packet, 100)
	for i := range pkts {
		pkts[i] = packet.Packet{Ts: int64(i) * 1e3, Size: 64,
			Tuple: packet.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: uint16(i), DstPort: 80, Proto: packet.ProtoTCP}}
	}
	if err := ses.Ingest(pkts); err != nil {
		t.Fatal(err)
	}
	var total uint64
	if err := ses.Exec(func(pl *Platform) { total = pl.counts.snapshot().Total }); err != nil {
		t.Fatal(err)
	}
	if total != 100 {
		t.Errorf("Counts.Total inside Exec = %d, want 100", total)
	}
}

// TestSessionConcurrentObservers pins the advertised concurrency
// contract under the race detector: Snapshot/State/Ingested from any
// goroutine, Exec interleaved with a live ingest, then a drain racing a
// straggler Ingest.
func TestSessionConcurrentObservers(t *testing.T) {
	pl := New(Config{IntervalNs: 10e6, Shards: 2, BatchSize: 16})
	ses := pl.NewSession()
	if err := ses.Start(); err != nil {
		t.Fatal(err)
	}
	pkts := packet.Collect(smallWorkload())

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // passive observers
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = ses.State()
			_ = ses.Ingested()
			if s := ses.Snapshot(); s != nil && s.Seq == 0 {
				t.Error("published snapshot with zero seq")
			}
		}
	}()
	go func() { // control plane
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			var total uint64
			err := ses.Exec(func(pl *Platform) { total = pl.counts.total.Load() })
			if err == ErrSessionClosed {
				return
			}
			if err != nil {
				t.Errorf("Exec #%d: %v", i, err)
				return
			}
			if total > uint64(len(pkts)) {
				t.Errorf("Exec observed impossible total %d", total)
				return
			}
		}
	}()

	for lo := 0; lo < len(pkts); lo += 777 {
		hi := lo + 777
		if hi > len(pkts) {
			hi = len(pkts)
		}
		if err := ses.Ingest(pkts[lo:hi]); err != nil {
			t.Fatalf("Ingest: %v", err)
		}
	}
	rep, err := ses.Drain()
	if err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if rep.Counts.Total != uint64(len(pkts)) {
		t.Errorf("total %d, want %d", rep.Counts.Total, len(pkts))
	}
	// Stragglers against the drained session fail cleanly, never hang.
	if err := ses.Ingest(pkts[:1]); err != ErrSessionClosed {
		t.Errorf("straggler Ingest = %v, want ErrSessionClosed", err)
	}
}

// TestSessionIngestStreamChunkAlignment: the default chunk rounds up to a
// BatchSize multiple so the batched drive's re-chunker subslices without
// copying; behaviour (not just performance) must be identical either way.
func TestSessionIngestStreamChunkAlignment(t *testing.T) {
	for _, chunk := range []int{0, 100} { // 0 = default (BatchSize-aligned), 100 = misaligned
		pl := New(Config{IntervalNs: 20e6, BatchSize: 96})
		ses := pl.NewSession()
		if err := ses.Start(); err != nil {
			t.Fatal(err)
		}
		if err := ses.IngestStream(smallWorkload(), chunk); err != nil {
			t.Fatal(err)
		}
		rep, err := ses.Drain()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Counts.Total != rep.Counts.ToSNIC || rep.Counts.Total == 0 {
			t.Errorf("chunk=%d: counts %+v", chunk, rep.Counts)
		}
		if rep.Counts.Total != ses.Ingested() {
			t.Errorf("chunk=%d: total %d != ingested %d", chunk, rep.Counts.Total, ses.Ingested())
		}
	}
}

// brokenLog fails its n-th Write and every one after.
type brokenLog struct{ n, calls int }

var errBrokenLog = errors.New("flow log device gone")

func (w *brokenLog) Write(p []byte) (int, error) {
	w.calls++
	if w.calls >= w.n {
		return 0, errBrokenLog
	}
	return len(p), nil
}

// A failing flow-log writer must not be swallowed: the drive completes,
// the Report is whole — the one the legacy wiring gave for a healthy log
// (legacy_flowlog.golden: canonicalDump only, the flow log of this tiny
// table is every flow in every interval) — and Drain / Run hand the failure
// back.
func TestFlowLogWriteFailureSurfaces(t *testing.T) {
	w := trace.NewWorkload(trace.WorkloadConfig{Seed: 5, Flows: 300, PacketRate: 1e6, Duration: 2e8})
	pkts := packet.Collect(w.Stream())
	cfg := Config{IntervalNs: 20e6}
	cfg.Cache = flowcache.DefaultConfig(4) // tiny table: every interval evicts into the log
	pl := New(cfg)
	healthy := pl.Run(packet.StreamOf(pkts))
	if healthy.FlowLogErr != nil {
		t.Fatalf("healthy run reported %v", healthy.FlowLogErr)
	}
	want := golden(t, "legacy_flowlog.golden")

	cfg.KVLog = host.NewKVStore(&brokenLog{n: 3})
	pl = New(cfg)
	ses := pl.NewSession()
	if err := ses.Start(); err != nil {
		t.Fatal(err)
	}
	if err := ses.Ingest(pkts); err != nil {
		t.Fatal(err)
	}
	rep, err := ses.Drain()
	if !errors.Is(err, errBrokenLog) {
		t.Fatalf("Drain error = %v, want it to wrap %v", err, errBrokenLog)
	}
	for name, r := range map[string]Report{"healthy": healthy, "failing": rep} {
		if got := canonicalDump(pl, r); got != want {
			t.Errorf("%s log: report diverged from legacy golden:\n%s", name, firstDiffLine(want, got))
		}
	}
	if _, again := ses.Drain(); !errors.Is(again, errBrokenLog) {
		t.Errorf("second Drain error = %v", again)
	}

	cfg.KVLog = host.NewKVStore(&brokenLog{n: 3})
	if rep := New(cfg).Run(packet.StreamOf(pkts)); !errors.Is(rep.FlowLogErr, errBrokenLog) {
		t.Errorf("Run's FlowLogErr = %v", rep.FlowLogErr)
	}
}

// establishedVector is n TCP data packets (ACK only — no SYN, so nothing
// schedules a wheel entry or opens a half-open probe) over flows distinct
// flows, 100 ns apart (10 Mpps: the sNIC keeps up) starting at ts.
func establishedVector(n, flows int, ts int64) []packet.Packet {
	pkts := make([]packet.Packet, n)
	for i := range pkts {
		fl := i % flows
		pkts[i] = packet.Packet{
			Ts: ts + int64(i)*100,
			Tuple: packet.FiveTuple{
				SrcIP: packet.Addr(0x0a000000 + fl), DstIP: packet.Addr(0x0a010000 + fl*7),
				SrcPort: uint16(20000 + fl), DstPort: 22, Proto: packet.ProtoTCP,
			},
			Size: 200, Flags: packet.FlagACK,
		}
	}
	return pkts
}

// steerEstablished installs the steer entry that sends establishedVector's
// destinations (10.1/16, port 22) through the sNIC, from the session's
// safe point. Without it the switch forwards them all directly.
func steerEstablished(t *testing.T, ses *Session) {
	t.Helper()
	err := ses.Exec(func(pl *Platform) {
		fk := p4switch.FiredKey{Query: "ssh-conns", Key: packet.MustParseAddr("10.1.0.0"), PrefixBits: 16}
		if err := pl.Switch().Steer(fk); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// pushConfigs are the two shapes of the one drive: 64-packet chunks and a
// chunk of one.
func pushConfigs() map[string]Config {
	batch64 := fullConfig(1)
	batch64.BatchSize = 64
	return map[string]Config{"batch64": batch64, "batch1": fullConfig(1)}
}

// TestSessionStartsNoGoroutine: the session drives the platform on its
// caller's goroutine — Start, Ingest, Exec and Drain leave the process's
// goroutine count where it was, at four shards as at one — and the
// platform refuses to Close under a live session. At one shard the drive
// ends where the legacy wiring ended the same session.
func TestSessionStartsNoGoroutine(t *testing.T) {
	want := golden(t, "legacy_session.golden")
	cfgs := pushConfigs()
	shards4 := fullConfig(4)
	shards4.BatchSize = 64
	cfgs["shards4"] = shards4
	for name, cfg := range cfgs {
		pl := New(cfg)
		vec := establishedVector(4096, 300, 1e6)
		before := runtime.NumGoroutine()
		check := func(when string) {
			t.Helper()
			// <=: a goroutine left over from an earlier test may still exit.
			if n := runtime.NumGoroutine(); n > before {
				t.Errorf("%s: %d goroutines %s, %d before Start", name, n, when, before)
			}
		}
		ses := pl.NewSession()
		if err := ses.Start(); err != nil {
			t.Fatal(err)
		}
		check("after Start")
		steerEstablished(t, ses)
		for lo := 0; lo < len(vec); lo += 500 {
			if err := ses.Ingest(vec[lo:min(lo+500, len(vec))]); err != nil {
				t.Fatal(err)
			}
			check("after Ingest")
		}
		if err := ses.Exec(func(*Platform) { check("inside Exec") }); err != nil {
			t.Fatal(err)
		}
		if err := pl.Close(); err != ErrSessionActive {
			t.Errorf("%s: Platform.Close under a live session = %v, want ErrSessionActive", name, err)
		}
		rep, err := ses.Drain()
		if err != nil {
			t.Fatal(err)
		}
		check("after Drain")
		if rep.Counts.Total != uint64(len(vec)) || rep.Counts.ToSNIC != rep.Counts.Total || rep.SNIC.Processed != rep.Counts.ToSNIC {
			t.Errorf("%s: report %+v / snic %d+%d after %d packets", name, rep.Counts, rep.SNIC.Processed, rep.SNIC.Dropped, len(vec))
		}
		if got := canonicalDump(pl, rep) + kvDump(pl); name != "shards4" && got != want {
			t.Errorf("%s: session diverged from legacy golden:\n%s", name, firstDiffLine(want, got))
		}
		if err := ses.Close(); err != nil {
			t.Fatal(err)
		}
		if err := pl.Close(); err != nil {
			t.Errorf("%s: Platform.Close after the session = %v", name, err)
		}
	}
}

// bomb panics on its after-th packet.
type bomb struct{ after, seen int }

func (d *bomb) Name() string { return "bomb" }
func (d *bomb) OnPacket(*packet.Packet, *flowcache.Record, snic.Ctx) detect.Reaction {
	if d.seen++; d.seen == d.after {
		panic("bomb: boom")
	}
	return detect.Reaction{}
}
func (d *bomb) Tick(int64)            {}
func (d *bomb) Drain() []detect.Alert { return nil }

// TestSessionPanicSurfacesOnCaller: a detector that panics mid-vector
// takes down neither the process nor the caller. The Ingest that hit it
// and every later Ingest/Exec return ErrSessionClosed, Drain (and a second
// Drain, and Close) return the panic wrapped in ErrDriveFailed, nothing
// blocks, and the platform is free for a new session afterwards. A panic
// inside an Exec closure is handled the same way.
func TestSessionPanicSurfacesOnCaller(t *testing.T) {
	vec := establishedVector(2048, 100, 1e6)
	for name, cfg := range pushConfigs() {
		cfg.EnableSwitch = false // every packet reaches the detector
		cfg.Detectors = []detect.Detector{&bomb{after: 1500}}
		pl := New(cfg)
		ses := pl.NewSession()
		if err := ses.Start(); err != nil {
			t.Fatal(err)
		}
		if err := ses.Ingest(vec[:1024]); err != nil {
			t.Fatalf("%s: Ingest before the bomb: %v", name, err)
		}
		if err := ses.Ingest(vec[1024:]); err != ErrSessionClosed {
			t.Fatalf("%s: Ingest that hit the bomb = %v, want ErrSessionClosed", name, err)
		}
		if got := ses.State(); got != SessionFailed {
			t.Errorf("%s: state after the bomb = %v, want failed", name, got)
		}
		if err := ses.Ingest(vec[:1]); err != ErrSessionClosed {
			t.Errorf("%s: Ingest after the bomb = %v, want ErrSessionClosed", name, err)
		}
		if err := ses.Exec(func(*Platform) { t.Errorf("%s: Exec closure ran on a failed session", name) }); err != ErrSessionClosed {
			t.Errorf("%s: Exec after the bomb = %v, want ErrSessionClosed", name, err)
		}
		if got := ses.Ingested(); got != 1024 {
			t.Errorf("%s: Ingested() = %d, want the 1024 packets of the completed vector", name, got)
		}
		for i := 0; i < 2; i++ {
			if _, err := ses.Drain(); !errors.Is(err, ErrDriveFailed) || !strings.Contains(err.Error(), "boom") {
				t.Errorf("%s: Drain #%d = %v, want ErrDriveFailed carrying the panic", name, i+1, err)
			}
		}
		if got := ses.State(); got != SessionDone {
			t.Errorf("%s: state after Drain = %v", name, got)
		}
		if err := ses.Close(); err != nil {
			t.Errorf("%s: Close after Drain = %v", name, err)
		}
		next := pl.NewSession()
		if err := next.Start(); err != nil {
			t.Errorf("%s: platform not released by the failed session: %v", name, err)
		}
	}

	pl := New(Config{IntervalNs: 20e6})
	ses := pl.NewSession()
	if err := ses.Start(); err != nil {
		t.Fatal(err)
	}
	if err := ses.Exec(func(*Platform) { panic("operator: boom") }); err != ErrSessionClosed {
		t.Errorf("Exec whose closure panicked = %v, want ErrSessionClosed", err)
	}
	if err := ses.Close(); !errors.Is(err, ErrDriveFailed) {
		t.Errorf("Close after a panicking Exec = %v, want ErrDriveFailed", err)
	}
}

// TestSessionIngestExecCloseRace: Ingest, Exec (and the operator
// Whitelist / Blacklist and table dumps beside it), Snapshot/State and
// Close from four goroutines at once, Close landing mid-stream. Run under -race
// (make race runs it 20 times). Every call returns; calls that lose to
// Close get ErrSessionClosed; the report accounts for exactly the vectors
// whose Ingest succeeded; no Exec closure ever sees a vector half done.
func TestSessionIngestExecCloseRace(t *testing.T) {
	cfg := fullConfig(2)
	cfg.BatchSize = 64
	cfg.IntervalNs = 1e6
	pl := New(cfg)
	ses := pl.NewSession()
	if err := ses.Start(); err != nil {
		t.Fatal(err)
	}
	const vecLen, vectors = 256, 400
	pkts := establishedVector(vecLen*vectors, 500, 1e5)
	for i := range pkts {
		pkts[i].Ts = 1e5 + int64(i)*50 // cross an interval every ~78 vectors
	}

	var wg sync.WaitGroup
	var accepted atomic.Uint64
	closeAt := make(chan struct{})
	wg.Add(4)
	go func() { // ingest
		defer wg.Done()
		for v := 0; v < vectors; v++ {
			if v == vectors/2 {
				close(closeAt)
			}
			switch err := ses.Ingest(pkts[v*vecLen : (v+1)*vecLen]); err {
			case nil:
				accepted.Add(vecLen)
			case ErrSessionClosed:
				return
			default:
				t.Errorf("Ingest vector %d: %v", v, err)
				return
			}
		}
	}()
	go func() { // control plane
		defer wg.Done()
		for {
			var total uint64
			err := ses.Exec(func(pl *Platform) { total = pl.counts.total.Load() })
			if err == ErrSessionClosed {
				return
			}
			if err != nil {
				t.Errorf("Exec: %v", err)
				return
			}
			// The carry holds back at most BatchSize-1 packets of a vector;
			// vecLen is a BatchSize multiple, so it stays empty here.
			if total%vecLen != 0 {
				t.Errorf("Exec saw %d packets counted: a vector was in flight", total)
				return
			}
			// Neither touches the traffic: no packet comes from or
			// belongs to them.
			for _, err := range []error{ses.Whitelist(wlKey()), ses.Blacklist(packet.MustParseAddr("203.0.113.9"))} {
				if err != nil && err != ErrSessionClosed {
					t.Errorf("operator update: %v", err)
					return
				}
			}
			_, _ = ses.WhitelistEntries(), ses.BlacklistEntries()
		}
	}()
	go func() { // observers
		defer wg.Done()
		for ses.State() != SessionDone {
			if s := ses.Snapshot(); s != nil && s.Seq == 0 {
				t.Error("published snapshot with zero seq")
				return
			}
			_, _, _ = ses.Ingested(), ses.BusStats(), ses.Snapshots()
			runtime.Gosched()
		}
	}()
	go func() { // SIGTERM
		defer wg.Done()
		<-closeAt
		if err := ses.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	wg.Wait()

	rep, ok := ses.Report()
	if !ok {
		t.Fatal("no report after Close")
	}
	if rep.Counts.Total != accepted.Load() || ses.Ingested() != accepted.Load() {
		t.Errorf("report total %d, Ingested() %d, accepted by Ingest %d", rep.Counts.Total, ses.Ingested(), accepted.Load())
	}
	if accepted.Load() < vecLen*vectors/2 {
		t.Errorf("only %d packets accepted before Close; it was released after %d", accepted.Load(), vecLen*vectors/2)
	}
}

// TestSessionStepDoesNotAllocate: off the SYN path a steady-state vector
// costs no allocation from Ingest to the FlowCache and back — no closure
// for the recover guard, no boxed packet on the way into the engine, no
// context vector — with the switch and a detector in the path, at
// 64-packet chunks and a chunk of one.
func TestSessionStepDoesNotAllocate(t *testing.T) {
	for name, cfg := range pushConfigs() {
		cfg.IntervalNs = 1e15 // no interval close inside the measured vectors
		pl := New(cfg)
		ses := pl.NewSession()
		if err := ses.Start(); err != nil {
			t.Fatal(err)
		}
		steerEstablished(t, ses)
		vec := establishedVector(500, 120, 1e6) // 500: the carry path is in the loop
		ingest := func() {
			if err := ses.Ingest(vec); err != nil {
				t.Fatal(err)
			}
			for i := range vec {
				vec[i].Ts += int64(len(vec)) * 100
			}
		}
		for i := 0; i < 10; i++ { // insert the flows, size the carry
			ingest()
		}
		if avg := testing.AllocsPerRun(50, ingest); avg != 0 {
			t.Errorf("%s: %.2f allocations per steady-state vector, want 0", name, avg)
		}
		rep, err := ses.Drain()
		if err != nil {
			t.Fatal(err)
		}
		if rep.SNIC.Processed != rep.Counts.Total || rep.Cache.Misses > 120 {
			t.Errorf("%s: %d of %d packets processed on the sNIC, %d FlowCache misses: not the steady state", name, rep.SNIC.Processed, rep.Counts.Total, rep.Cache.Misses)
		}
	}
}

// hostileCapture is the arrival pattern snic's TestEngineHostileTime feeds
// the engine — duplicates, small steps, backwards steps, a zero, a negative
// and one far-future timestamp (a corrupt record: ~292 years on) with a
// return from it — as packets of a few hundred flows.
func hostileCapture() []packet.Packet {
	rng := stats.NewRand(99)
	var pkts []packet.Packet
	add := func(ts int64) {
		n := len(pkts)
		pkts = append(pkts, packet.Packet{Ts: ts, Size: 64, Tuple: packet.FiveTuple{
			SrcIP: packet.Addr(0x0a000001 + n%300), DstIP: 0x0a800001, SrcPort: uint16(1024 + n%300), DstPort: 443, Proto: packet.ProtoTCP}})
	}
	ts := int64(50_000)
	for i := 0; i < 60_000; i++ {
		switch {
		case i%1000 < 300: // duplicates
		case i%1000 < 320: // backwards, up to 2 µs
			ts -= rng.Int64N(2_000)
		case i == 20_500 || i == 20_501: // zero and negative
			add(int64(20_500 - i))
			continue
		case i == 40_700:
			add(math.MaxInt64 - 1)
			continue
		default:
			ts += rng.Int64N(200)
		}
		add(ts)
	}
	return pkts
}

// TestSessionHostileTime: Session -> Platform has a hostile-time contract
// like the engine's, the interval stamps' and the wheel's. One far-future
// timestamp used to cost maybeTick 2^63 / TickNs iterations inside
// Session.Ingest; now every drive geometry finishes the capture, runs the
// timers once at the jump, counts it in core.time_jumps and every
// timestamp behind the clock in core.time_regressions — the same numbers
// at every batch size, the ones the legacy wiring counted
// (legacy_hostile_time.golden) — while a gap of a few hundred ticks is
// still walked tick by tick.
func TestSessionHostileTime(t *testing.T) {
	pkts := hostileCapture()
	var wantRegress uint64
	clock := int64(math.MinInt64)
	for i := range pkts {
		if pkts[i].Ts < clock {
			wantRegress++
		}
		clock = max(clock, pkts[i].Ts)
	}
	want := golden(t, "legacy_hostile_time.golden")
	for _, cfg := range []Config{{BatchSize: 1}, {BatchSize: 64}, {BatchSize: 64, Shards: 4}} {
		cfg.TickNs, cfg.IntervalNs = 1e3, 1e4
		pl := New(cfg)
		done := make(chan Report, 1)
		go func() { done <- sessionIngest(t, pl, pkts, 500) }()
		var rep Report
		select {
		case rep = <-done:
		case <-time.After(60 * time.Second):
			t.Fatalf("%+v: still ticking toward a far-future timestamp after 60 s", cfg)
		}
		jumps, regresses := pl.counts.timeJumps.Load(), pl.counts.timeRegressions.Load()
		if rep.Counts.Total != uint64(len(pkts)) || jumps != 1 || regresses != wantRegress {
			t.Errorf("%+v: %d of %d packets, %d jumps (want 1), %d regressions (want %d)",
				cfg, rep.Counts.Total, len(pkts), jumps, regresses, wantRegress)
		}
		if got := fmt.Sprintf("counts %+v\njumps %d regressions %d\n", rep.Counts, jumps, regresses); got != want {
			t.Errorf("%+v: diverged from legacy golden:\n%s", cfg, firstDiffLine(want, got))
		}
	}

	// 300 intervals of silence is a gap, not a jump: every one closes.
	pl := New(Config{TickNs: 1e3, IntervalNs: 1e4})
	rep := sessionIngest(t, pl, []packet.Packet{{Ts: 5, Size: 64}, {Ts: 5 + 300e4, Size: 64}}, 1)
	if rep.Counts.Intervals < 300 || pl.counts.timeJumps.Load() != 0 {
		t.Errorf("a 300-interval gap closed %d intervals with %d jumps", rep.Counts.Intervals, pl.counts.timeJumps.Load())
	}
}
