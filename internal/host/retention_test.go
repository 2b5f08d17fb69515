package host

import (
	"bytes"
	"runtime"
	"testing"

	"smartwatch/internal/flowcache"
	"smartwatch/internal/packet"
)

func retKey(i int) packet.FlowKey {
	return packet.FlowKey{
		LoIP: packet.AddrFrom4(10, 0, 0, byte(i)), HiIP: packet.AddrFrom4(10, 0, 1, 1),
		LoPort: uint16(1000 + i), HiPort: 80, Proto: packet.ProtoTCP,
	}
}

func TestKVStoreRetentionEvictsOldest(t *testing.T) {
	var aof bytes.Buffer
	fs := NewFlowStore(CostModel{})
	kv := NewKVStore(fs, &aof)
	kv.SetRetention(3)
	for i := 0; i < 6; i++ {
		fs.Ingest(flowcache.Record{Key: retKey(i), Pkts: 1, Bytes: 100, FirstTs: int64(i) * 1000, LastTs: int64(i) * 1000})
		if err := kv.FlushInterval(int64(i+1) * 1e6); err != nil {
			t.Fatal(err)
		}
	}
	got := kv.Intervals()
	if len(got) != 3 {
		t.Fatalf("resident intervals = %d, want 3", len(got))
	}
	if got[0] != 4e6 || got[2] != 6e6 {
		t.Fatalf("wrong intervals survived: %v", got)
	}
	if kv.DroppedIntervals() != 3 {
		t.Fatalf("dropped = %d, want 3", kv.DroppedIntervals())
	}
	// The AOF still holds every interval ever flushed.
	recs, err := ReadRecords(&aof)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 6 {
		t.Fatalf("AOF intervals = %d, want 6", len(recs))
	}
}

func TestKVStoreZeroRetentionUnbounded(t *testing.T) {
	fs := NewFlowStore(CostModel{})
	kv := NewKVStore(fs, nil)
	for i := 0; i < 10; i++ {
		fs.Ingest(flowcache.Record{Key: retKey(i), Pkts: 1, Bytes: 100, FirstTs: int64(i) * 1000, LastTs: int64(i) * 1000})
		if err := kv.FlushInterval(int64(i+1) * 1e6); err != nil {
			t.Fatal(err)
		}
	}
	if len(kv.Intervals()) != 10 {
		t.Fatalf("unbounded store evicted: %d intervals", len(kv.Intervals()))
	}
}

// Under retention the flow log's memory is steady-state: once retention + 1
// intervals have been flushed, each new interval reuses the storage of the
// one retention folds away, so flushing a fixed dirty set allocates nothing.
func TestKVFlushUnderRetentionDoesNotAllocate(t *testing.T) {
	const retention, dirty = 8, 300
	fs := NewFlowStore(CostModel{})
	kv := NewKVStore(fs, nil)
	kv.SetRetention(retention)
	ts := int64(0)
	interval := func() {
		ts++
		for i := range dirty {
			fs.Ingest(flowcache.Record{Key: hkey(i), Pkts: 1, Bytes: 100, FirstTs: ts, LastTs: ts})
		}
		if err := kv.FlushInterval(ts); err != nil {
			t.Fatal(err)
		}
	}
	for range retention + 1 {
		interval()
	}
	if n := testing.AllocsPerRun(20, interval); n != 0 {
		t.Errorf("flushing %d dirty flows under retention %d: %.1f allocations per interval, want 0", dirty, retention, n)
	}
	if got := kv.Intervals(); len(got) != retention || got[retention-1] != ts {
		t.Fatalf("resident intervals %v, want the newest %d up to %d", got, retention, ts)
	}
	if hr, ok := scanMap(t, kv, ts)[hkey(dirty-1)]; !ok || hr.Pkts != uint64(ts) {
		t.Fatalf("Scan(%d) holds %+v %v, want %d pkts", ts, hr, ok, ts)
	}
}

// TestKVFlushClimbingDirtySetAllocatesLogarithmically: a dirty set that
// climbs from 1 to 300 flows over 80 intervals under retention 8, so every
// new interval outgrows the ones folding away, costs the flow log a
// logarithmic number of allocations, not one or two per interval. The
// mallocs are counted around the whole climb: testing.AllocsPerRun would
// warm up on it and measure one interval at its top.
func TestKVFlushClimbingDirtySetAllocatesLogarithmically(t *testing.T) {
	const retention, intervals, top, budget = 8, 80, 300, 16
	fs := NewFlowStore(CostModel{})
	kv := NewKVStore(fs, nil)
	kv.SetRetention(retention)
	fs.Reserve(top)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for ts := int64(1); ts <= intervals; ts++ {
		dirty := 1 + int(ts-1)*(top-1)/(intervals-1)
		for i := range dirty {
			fs.Ingest(flowcache.Record{Key: hkey(i), Pkts: 1, Bytes: 100, FirstTs: ts, LastTs: ts})
		}
		if err := kv.FlushInterval(ts); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n > budget {
		t.Errorf("a dirty set climbing to %d flows over %d intervals under retention %d: %d allocations, want at most %d", top, intervals, retention, n, budget)
	}
	if got := scanMap(t, kv, intervals); len(got) != top || got[hkey(0)].Pkts != intervals || got[hkey(top-1)].Pkts != 1 {
		t.Fatalf("view as of the last interval: %d flows, want %d with flow 0 at %d pkts", len(got), top, intervals)
	}
}

// TestKVScanDoesNotAllocate: Scan tells a shadowed version by its link to
// the flow's next newer one, so reading every resident interval of a log
// with a base under it builds no set of the flows it has emitted.
func TestKVScanDoesNotAllocate(t *testing.T) {
	const retention, flows = 4, 600
	fs := NewFlowStore(CostModel{})
	kv := NewKVStore(fs, nil)
	kv.SetRetention(retention)
	for ts := int64(1); ts <= 12; ts++ {
		for i := range flows {
			if i%int(ts) == 0 {
				fs.Ingest(flowcache.Record{Key: hkey(i), Pkts: 1, Bytes: 100, FirstTs: ts, LastTs: ts})
			}
		}
		if err := kv.FlushInterval(ts); err != nil {
			t.Fatal(err)
		}
	}
	ivs := kv.Intervals()
	if len(ivs) != retention || len(kv.base) != flows {
		t.Fatalf("%d resident intervals over a base of %d flows, want %d over %d", len(ivs), len(kv.base), retention, flows)
	}
	visited := 0
	count := func(HostRecord) bool { visited++; return true }
	if n := testing.AllocsPerRun(10, func() {
		for _, ts := range ivs {
			kv.Scan(ts, count)
		}
	}); n != 0 {
		t.Errorf("Scan of %d resident intervals: %.1f allocations, want 0", len(ivs), n)
	}
	if want := 11 * retention * flows; visited != want {
		t.Fatalf("Scan visited %d records over 11 passes, want %d", visited, want)
	}
}
