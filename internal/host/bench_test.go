package host

import (
	"cmp"
	"slices"
	"testing"

	"smartwatch/internal/flowcache"
	"smartwatch/internal/packet"
	"smartwatch/internal/stats"
)

func BenchmarkTimingWheelScheduleAdvance(b *testing.B) {
	w := NewTimingWheel[int](256, 1e6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts := int64(i) * 1000
		w.Schedule(uint64(i), ts+2e9, i)
		w.Advance(ts)
	}
}

func BenchmarkBloomAddContains(b *testing.B) {
	f := NewBloom(1<<20, 0.01)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := packet.Hash64(uint64(i))
		f.Add(h)
		f.Contains(h)
	}
}

func BenchmarkFlowStoreIngest(b *testing.B) {
	fs := NewFlowStore(DefaultCostModel())
	rng := stats.NewRand(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs.Ingest(flowcache.Record{Key: hkey(rng.IntN(100000)), Pkts: 1, Bytes: 64})
	}
}

// The end-of-run export at the size of the benchmark's manyflows: 150 k
// flows the host has never seen, in the row order Cache.Snapshot of a
// RowBits-18 table delivers them, ingested into a fresh store and flushed
// into a fresh flow log.
func BenchmarkFinalFlush(b *testing.B) {
	const flows, rowMask = 150_000, 1<<18 - 1
	recs := make([]flowcache.Record, flows)
	for i := range recs {
		recs[i] = flowcache.Record{Key: hkey(i), Pkts: 3, Bytes: 192, FirstTs: int64(i), LastTs: int64(i) + 100}
	}
	slices.SortStableFunc(recs, func(x, y flowcache.Record) int {
		return cmp.Compare(x.Key.Hash()&rowMask, y.Key.Hash()&rowMask)
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs := NewFlowStore(DefaultCostModel())
		for _, r := range recs {
			fs.Ingest(r)
		}
		if err := NewKVStore(nil).FlushInterval(1, fs); err != nil {
			b.Fatal(err)
		}
	}
}

// One steady-state interval flush: 100 k resident flows, 256 of them
// touched since the previous flush, under the daemon's retention bound.
func BenchmarkKVFlushInterval(b *testing.B) {
	const resident, dirty = 100_000, 256
	fs := NewFlowStore(DefaultCostModel())
	kv := NewKVStore(nil)
	kv.SetRetention(8)
	for i := 0; i < resident; i++ {
		fs.Ingest(flowcache.Record{Key: hkey(i), Pkts: 1, Bytes: 64})
	}
	if err := kv.FlushInterval(0, fs); err != nil {
		b.Fatal(err)
	}
	rng := stats.NewRand(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < dirty; j++ {
			fs.Ingest(flowcache.Record{Key: hkey(rng.IntN(resident)), Pkts: 1, Bytes: 64})
		}
		if err := kv.FlushInterval(int64(i+1), fs); err != nil {
			b.Fatal(err)
		}
	}
}
