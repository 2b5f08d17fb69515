package host

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"smartwatch/internal/flowcache"
	"smartwatch/internal/packet"
	"smartwatch/internal/stats"
)

func hkey(i int) packet.FlowKey {
	return packet.FiveTuple{
		SrcIP: packet.Addr(i + 1), DstIP: packet.Addr(i + 1000),
		SrcPort: uint16(i), DstPort: 22, Proto: packet.ProtoTCP,
	}.Canonical()
}

func TestBloomBasics(t *testing.T) {
	b := NewBloom(1000, 0.01)
	for i := uint64(0); i < 500; i++ {
		b.Add(packet.Hash64(i))
	}
	for i := uint64(0); i < 500; i++ {
		if !b.Contains(packet.Hash64(i)) {
			t.Fatalf("false negative for %d", i)
		}
	}
	fp := 0
	probes := 10000
	for i := uint64(10_000); i < uint64(10_000+probes); i++ {
		if b.Contains(packet.Hash64(i)) {
			fp++
		}
	}
	if rate := float64(fp) / float64(probes); rate > 0.05 {
		t.Errorf("false positive rate %.3f too high", rate)
	}
	b.Reset()
	if b.Contains(packet.Hash64(1)) && b.Contains(packet.Hash64(2)) && b.Contains(packet.Hash64(3)) {
		t.Error("reset filter still matches everything")
	}
}

func TestBloomDegenerateParams(t *testing.T) {
	b := NewBloom(0, 5) // silly inputs must still work
	b.Add(7)
	if !b.Contains(7) {
		t.Error("membership lost")
	}
}

func TestTimingWheelExpiry(t *testing.T) {
	w := NewTimingWheel[string](16, 100) // 1.6 µs horizon
	w.Schedule(1, 250, "a")
	w.Schedule(2, 950, "b")
	out := w.Advance(300)
	if len(out) != 1 || out[0].Payload != "a" {
		t.Fatalf("advance(300) = %+v", out)
	}
	out = w.Advance(1000)
	if len(out) != 1 || out[0].Payload != "b" {
		t.Fatalf("advance(1000) = %+v", out)
	}
	if w.Len() != 0 {
		t.Errorf("len = %d", w.Len())
	}
}

func TestTimingWheelMultiRound(t *testing.T) {
	w := NewTimingWheel[string](4, 100) // 400 ns/revolution
	w.Schedule(1, 950, "far")           // needs 2+ revolutions
	if out := w.Advance(800); len(out) != 0 {
		t.Fatalf("fired early: %+v", out)
	}
	out := w.Advance(1000)
	if len(out) != 1 || out[0].Payload != "far" {
		t.Fatalf("multi-round entry = %+v", out)
	}
}

func TestTimingWheelCancelAndScan(t *testing.T) {
	w := NewTimingWheel[string](8, 100)
	w.Schedule(42, 500, "x")
	w.Schedule(42, 700, "y")
	w.Schedule(7, 600, "z")
	found := w.Scan(func(k uint64, _ string) bool { return k == 42 })
	if len(found) != 2 {
		t.Fatalf("scan found %d", len(found))
	}
	if n := w.Cancel(42); n != 2 {
		t.Fatalf("cancelled %d", n)
	}
	out := w.Advance(1000)
	if len(out) != 1 || out[0].Payload != "z" {
		t.Fatalf("after cancel: %+v", out)
	}
	if w.ScanCost() == 0 {
		t.Error("scan cost not accounted")
	}
}

func TestTimingWheelPastDeadline(t *testing.T) {
	w := NewTimingWheel[string](8, 100)
	w.Advance(1000)
	w.Schedule(1, 50, "past") // already expired
	out := w.Advance(1100)
	if len(out) != 1 {
		t.Fatalf("past deadline not fired: %+v", out)
	}
}

// Property: every scheduled entry fires exactly once, never before its
// deadline's tick and never lost, for arbitrary schedules.
func TestTimingWheelConservationProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRand(seed)
		w := NewTimingWheel[int](8+rng.IntN(24), int64(50+rng.IntN(200)))
		n := 200
		deadlines := map[uint64]int64{}
		for i := 0; i < n; i++ {
			d := int64(rng.IntN(20000))
			w.Schedule(uint64(i), d, i)
			deadlines[uint64(i)] = d
		}
		fired := map[uint64]int64{}
		for now := int64(0); now <= 40000; now += int64(100 + rng.IntN(400)) {
			for _, e := range w.Advance(now) {
				if _, dup := fired[e.Key]; dup {
					return false // double fire
				}
				// Must not fire before its deadline's tick boundary.
				if now < deadlines[e.Key]-w.tickNs {
					return false
				}
				fired[e.Key] = now
			}
		}
		return len(fired) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestFlowStoreAggregation(t *testing.T) {
	fs := NewFlowStore(CostModel{RecordNs: 100, PacketNs: 1000})
	k := hkey(1)
	fs.Ingest(flowcache.Record{Key: k, Pkts: 10, Bytes: 1000, FirstTs: 100, LastTs: 200, State: 1, StateTs: 150})
	fs.Ingest(flowcache.Record{Key: k, Pkts: 5, Bytes: 500, FirstTs: 50, LastTs: 400, State: 2, StateTs: 300})
	hr, ok := fs.Get(k)
	if !ok {
		t.Fatal("missing aggregate")
	}
	if hr.Pkts != 15 || hr.Bytes != 1500 {
		t.Errorf("counters = %d/%d", hr.Pkts, hr.Bytes)
	}
	if hr.FirstTs != 50 || hr.LastTs != 400 {
		t.Errorf("timestamps = %d/%d", hr.FirstTs, hr.LastTs)
	}
	if hr.State != 2 {
		t.Errorf("state = %d, want most recent", hr.State)
	}
	if hr.Exports != 2 {
		t.Errorf("exports = %d", hr.Exports)
	}
	if fs.CPUNs() != 200 {
		t.Errorf("cpu = %f", fs.CPUNs())
	}
	fs.ChargePacket()
	if fs.CPUNs() != 1200 {
		t.Errorf("cpu after packet = %f", fs.CPUNs())
	}
}

// TestFlowStoreEntriesAreSlabbed: new flows cost the store at most one
// allocation per entryChunk of them beyond what its index, dirty list and
// chunk directory cost any owner (measured on a twin store whose chunks
// are all one shared chunk), and the entries a full chunk leaves behind
// stay where the index and dirty point.
func TestFlowStoreEntriesAreSlabbed(t *testing.T) {
	const n = 64 * entryChunk
	var fs, twin *FlowStore
	got := testing.AllocsPerRun(3, func() {
		fs = NewFlowStore(DefaultCostModel())
		for i := 0; i < n; i++ {
			fs.Ingest(flowcache.Record{Key: hkey(i), Pkts: 1, Bytes: uint64(i)})
		}
	})
	var shared [entryChunk]flowEntry
	control := testing.AllocsPerRun(3, func() {
		twin = NewFlowStore(DefaultCostModel())
		for i := 0; i < n; i++ {
			if i%entryChunk == 0 {
				twin.chunks = append(twin.chunks, &shared)
			}
			twin.flows.add(hkey(i).Hash(), i)
			twin.dirty = append(twin.dirty, &shared[i%entryChunk])
		}
	})
	if got-control > n/entryChunk {
		t.Errorf("%d new flows: %.0f allocations, index, dirty list and chunk directory alone %.0f: want at most %d more", n, got, control, n/entryChunk)
	}
	seen := 0
	fs.takeDirty(func(hr HostRecord) {
		if want, _ := fs.Get(hr.Key); hr != want || hr.Bytes != uint64(seen) || hr.Key != hkey(seen) {
			t.Fatalf("dirty entry %d = %+v, store holds %+v", seen, hr, want)
		}
		seen++
	})
	if seen != n || fs.Len() != n {
		t.Errorf("%d dirty entries, %d flows, want %d", seen, fs.Len(), n)
	}
}

func TestFlowStoreDrainRings(t *testing.T) {
	rings := []*flowcache.Ring{flowcache.NewRing(16), flowcache.NewRing(16)}
	rings[0].Push(flowcache.Record{Key: hkey(1), Pkts: 3})
	rings[0].Push(flowcache.Record{Key: hkey(2), Pkts: 4})
	rings[1].Push(flowcache.Record{Key: hkey(1), Pkts: 2})
	fs := NewFlowStore(DefaultCostModel())
	if n := fs.DrainRings(rings); n != 3 {
		t.Fatalf("drained %d", n)
	}
	hr, _ := fs.Get(hkey(1))
	if hr.Pkts != 5 {
		t.Errorf("merged pkts = %d", hr.Pkts)
	}
	if fs.Len() != 2 {
		t.Errorf("flows = %d", fs.Len())
	}
}

func TestKVStoreFlushAndScan(t *testing.T) {
	fs := NewFlowStore(DefaultCostModel())
	fs.Ingest(flowcache.Record{Key: hkey(1), Pkts: 7})
	fs.Ingest(flowcache.Record{Key: hkey(2), Pkts: 9})
	kv := NewKVStore(nil)
	if err := kv.FlushInterval(5_000_000_000, fs); err != nil {
		t.Fatal(err)
	}
	if got := kv.Intervals(); len(got) != 1 || got[0] != 5_000_000_000 {
		t.Fatalf("intervals = %v", got)
	}
	hr, ok := kv.Get(5_000_000_000, hkey(1))
	if !ok || hr.Pkts != 7 {
		t.Errorf("get = %+v %v", hr, ok)
	}
	n := 0
	kv.Scan(5_000_000_000, func(HostRecord) bool { n++; return true })
	if n != 2 || kv.Writes() != 2 {
		t.Errorf("scan=%d writes=%d", n, kv.Writes())
	}
}

func TestKVStoreAOFRoundTrip(t *testing.T) {
	var aof bytes.Buffer
	kv := NewKVStore(&aof)
	fs := NewFlowStore(DefaultCostModel())
	fs.Ingest(flowcache.Record{Key: hkey(3), Pkts: 11, Bytes: 1100, FirstTs: 1, LastTs: 2, State: 5, StateTs: 9})
	if err := kv.FlushInterval(42, fs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRecords(&aof)
	if err != nil {
		t.Fatal(err)
	}
	recs := got[42]
	if len(recs) != 1 {
		t.Fatalf("records = %+v", got)
	}
	r := recs[0]
	if r.Key != hkey(3) || r.Pkts != 11 || r.State != 5 || r.Exports != 1 {
		t.Errorf("round trip = %+v", r)
	}
}

// fakeNF records calls.
type fakeNF struct {
	name    string
	verdict Verdict
	pkts    int
	ticks   int
}

func (f *fakeNF) Name() string                        { return f.name }
func (f *fakeNF) HandlePacket(*packet.Packet) Verdict { f.pkts++; return f.verdict }
func (f *fakeNF) Tick(int64)                          { f.ticks++ }

func TestPortsRouting(t *testing.T) {
	fs := NewFlowStore(DefaultCostModel())
	ps := NewPorts(fs)
	ssh := &fakeNF{name: "ssh", verdict: Block}
	all := &fakeNF{name: "all", verdict: Pass}
	if err := ps.Attach(22, ssh); err != nil {
		t.Fatal(err)
	}
	if err := ps.Attach(0, all); err != nil {
		t.Fatal(err)
	}
	if err := ps.Attach(22, &fakeNF{name: "dup"}); err == nil {
		t.Error("duplicate port accepted")
	}

	p := packet.Packet{Tuple: packet.FiveTuple{DstPort: 22, Proto: packet.ProtoTCP}}
	if v := ps.Deliver(&p); v != Block {
		t.Errorf("verdict = %v", v)
	}
	rev := packet.Packet{Tuple: packet.FiveTuple{SrcPort: 22, Proto: packet.ProtoTCP}}
	ps.Deliver(&rev) // reverse direction routes to the same NF
	other := packet.Packet{Tuple: packet.FiveTuple{DstPort: 9999}}
	if v := ps.Deliver(&other); v != Pass {
		t.Errorf("catch-all verdict = %v", v)
	}
	if ssh.pkts != 2 || all.pkts != 1 {
		t.Errorf("routing counts: ssh=%d all=%d", ssh.pkts, all.pkts)
	}
	st := ps.Stats()
	if st["ssh"].Blocked != 2 || st["ssh"].Packets != 2 {
		t.Errorf("stats = %+v", st["ssh"])
	}
	if fs.CPUNs() == 0 {
		t.Error("host CPU not charged for NF packets")
	}
	ps.Tick(100)
	if ssh.ticks != 1 || all.ticks != 1 {
		t.Errorf("ticks: ssh=%d all=%d", ssh.ticks, all.ticks)
	}
}

// failingWriter fails its n-th Write and every one after.
type failingWriter struct {
	n, calls int
}

var errLogFull = errors.New("log device full")

func (w *failingWriter) Write(p []byte) (int, error) {
	w.calls++
	if w.calls >= w.n {
		return 0, errLogFull
	}
	return len(p), nil
}

func TestFlusherKeepsFlushErrors(t *testing.T) {
	fs := NewFlowStore(DefaultCostModel())
	f := &Flusher{Store: fs, Ports: NewPorts(fs), KV: NewKVStore(&failingWriter{n: 3})}
	for ts := int64(1); ts <= 5; ts++ {
		fs.Ingest(flowcache.Record{Key: hkey(int(ts)), Pkts: 1})
		f.OnInterval(ts)
		if ts == 2 && f.Err() != nil {
			t.Fatalf("error before the writer failed: %v", f.Err())
		}
	}
	fs.Ingest(flowcache.Record{Key: hkey(6), Pkts: 1})
	f.FinalFlush(6, func(func(flowcache.Record) bool) {})
	err := f.Err()
	if !errors.Is(err, errLogFull) {
		t.Fatalf("Err = %v, want it to wrap %v", err, errLogFull)
	}
	if f.flushErrs != 4 { // intervals 3, 4, 5 and the final flush
		t.Errorf("failed flushes = %d, want 4", f.flushErrs)
	}
	// The in-memory log is still complete.
	if n := len(scanMap(t, f.KV, 6)); n != 6 {
		t.Errorf("in-memory view holds %d flows after the writer failed, want 6", n)
	}
	if f.Stats() != (FlusherStats{Flushes: 5}) {
		t.Errorf("stats = %+v", f.Stats())
	}
}

// An NF attached on several ports is one function: one tick per interval,
// in attach order.
func TestPortsTickOncePerNF(t *testing.T) {
	ps := NewPorts(nil)
	a, b := &fakeNF{name: "a"}, &fakeNF{name: "b"}
	for port, nf := range map[uint16]NF{80: a, 8080: a, 443: b} {
		if err := ps.Attach(port, nf); err != nil {
			t.Fatal(err)
		}
	}
	if err := ps.Attach(0, a); err != nil {
		t.Fatal(err)
	}
	if err := ps.Attach(0, b); err == nil {
		t.Error("second catch-all accepted")
	}
	ps.Tick(1)
	ps.Tick(2)
	if a.ticks != 2 || b.ticks != 2 {
		t.Errorf("ticks after two intervals: a=%d b=%d, want 2 each", a.ticks, b.ticks)
	}
	if allocs := testing.AllocsPerRun(100, func() { ps.Tick(3) }); allocs != 0 {
		t.Errorf("Tick allocates %v times per interval", allocs)
	}
}
