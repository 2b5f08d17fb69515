package host

import (
	"bytes"
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
	kv := NewKVStore(&aof)
	kv.SetRetention(3)
	fs := NewFlowStore(CostModel{})
	for i := 0; i < 6; i++ {
		fs.Ingest(flowcache.Record{Key: retKey(i), Pkts: 1, Bytes: 100, FirstTs: int64(i) * 1000, LastTs: int64(i) * 1000})
		if err := kv.FlushInterval(int64(i+1)*1e6, fs); err != nil {
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
	kv := NewKVStore(nil)
	fs := NewFlowStore(CostModel{})
	for i := 0; i < 10; i++ {
		fs.Ingest(flowcache.Record{Key: retKey(i), Pkts: 1, Bytes: 100, FirstTs: int64(i) * 1000, LastTs: int64(i) * 1000})
		if err := kv.FlushInterval(int64(i+1)*1e6, fs); err != nil {
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
	kv := NewKVStore(nil)
	kv.SetRetention(retention)
	fs := NewFlowStore(CostModel{})
	ts := int64(0)
	interval := func() {
		ts++
		for i := range dirty {
			fs.Ingest(flowcache.Record{Key: hkey(i), Pkts: 1, Bytes: 100, FirstTs: ts, LastTs: ts})
		}
		if err := kv.FlushInterval(ts, fs); err != nil {
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
	if hr, ok := kv.Get(ts, hkey(dirty-1)); !ok || hr.Pkts != uint64(ts) {
		t.Fatalf("Get(%d) = %+v %v, want %d pkts", ts, hr, ok, ts)
	}
}
