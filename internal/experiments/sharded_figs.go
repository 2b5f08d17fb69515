package experiments

import (
	"smartwatch/internal/flowcache"
	"smartwatch/internal/packet"
	"smartwatch/internal/stats"
)

// shardBurstStream synthesises the shard-scaling workload: a Zipf flow
// population whose arrival rate bursts past the switchover threshold and
// then relaxes below it, so every shard's controller flips in both
// directions.
func shardBurstStream(n, flows int, seed uint64) []packet.Packet {
	rng := stats.NewRand(seed)
	z := stats.NewZipf(rng, flows, 1.1)
	pkts := make([]packet.Packet, n)
	ts := int64(0)
	for i := range pkts {
		if i < n*2/3 {
			ts += 20 // 50 Mpps burst
		} else {
			ts += 2_000 // 0.5 Mpps tail
		}
		fl := z.Sample()
		pkts[i] = packet.Packet{
			Ts: ts,
			Tuple: packet.FiveTuple{
				SrcIP: packet.Addr(fl + 1), DstIP: packet.Addr(fl*7 + 13),
				SrcPort: uint16(fl), DstPort: 443, Proto: packet.ProtoTCP,
			},
			Size: 64,
		}
	}
	return pkts
}

// ShardedScaling characterises the sharded FlowCache datapath: for each
// power-of-two shard count, the same burst workload runs through a
// sequential ObserveProcess loop and the table reports the (modelled,
// deterministic) cache behaviour. No wall-clock values appear: the table
// is byte-stable across runs and machines.
func ShardedScaling(scale float64) *Table {
	n := scaleInt(240_000, scale)
	flows := scaleInt(40_000, scale)
	cfg := flowcache.DefaultConfig(10)
	ctlCfg := flowcache.DefaultControllerConfig()

	t := &Table{
		ID: "shards", Title: "Sharded FlowCache scaling (per-island partitions, capacity-invariant)",
		Columns: []string{"shards", "rows_per_shard", "hit_rate", "evictions", "punts", "switchovers"},
	}
	for _, shards := range []int{1, 2, 4, 8} {
		trace := shardBurstStream(n, flows, 9)
		seq := flowcache.NewSharded(shards, cfg, ctlCfg)
		for i := range trace {
			seq.ObserveProcess(&trace[i])
		}
		st := seq.Stats()
		t.AddRow(
			d(shards),
			d(seq.Shard(0).Config().Rows()),
			f2(st.HitRate()*100),
			d(st.Evictions),
			d(st.HostPunts),
			d(seq.Switchovers()),
		)
	}
	t.Notes = append(t.Notes,
		"total capacity is constant: rows_per_shard = 2^(RowBits - log2(shards))",
		"switchovers rise with shards: each island meters its own slice of the aggregate rate")
	return t
}
