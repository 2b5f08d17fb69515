package host

import (
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
