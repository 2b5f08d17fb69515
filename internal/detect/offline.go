package detect

import (
	"fmt"
	"sort"

	"smartwatch/internal/host"
	"smartwatch/internal/packet"
	"smartwatch/internal/sketch"
)

// Offline analytics over the lossless flow log (§4, Table 2's first row):
// heavy hitters, heavy changes, cardinality estimation, flow-size
// distribution and Slowloris all run on the host against the exported
// aggregates — they cost the sNIC nothing beyond baseline flow logging.

// HeavyHittersOffline returns flows with at least threshold packets in
// the store, largest first.
func HeavyHittersOffline(fs *host.FlowStore, threshold uint64) []sketch.HeavyHitter {
	var out []sketch.HeavyHitter
	fs.Each(func(hr host.HostRecord) bool {
		if hr.Pkts >= threshold {
			out = append(out, sketch.HeavyHitter{Key: hr.Key, Count: hr.Pkts})
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Count > out[j].Count })
	return out
}

// HeavyChangesOffline compares two logged intervals (prevTs before curTs)
// and returns flows whose packet count changed by at least threshold. The
// flow log is cumulative, so every flow of prevTs is still in curTs: a
// stalled flow shows a change of 0, a new one counts from 0.
func HeavyChangesOffline(kv *host.KVStore, prevTs, curTs int64, threshold uint64) []packet.FlowKey {
	prev := map[packet.FlowKey]uint64{}
	kv.Scan(prevTs, func(hr host.HostRecord) bool {
		prev[hr.Key] = hr.Pkts
		return true
	})
	diff := func(a, b uint64) uint64 {
		if a > b {
			return a - b
		}
		return b - a
	}
	var out []packet.FlowKey
	kv.Scan(curTs, func(hr host.HostRecord) bool {
		if diff(hr.Pkts, prev[hr.Key]) >= threshold {
			out = append(out, hr.Key)
		}
		return true
	})
	return out
}

// CardinalityOffline returns the exact distinct-flow count of the store
// (SmartWatch's flow log is lossless, so no estimation is needed) next to
// a HyperLogLog estimate for comparison with sketch-based platforms.
func CardinalityOffline(fs *host.FlowStore) (exact int, estimated float64) {
	hll := sketch.NewHLL(14)
	fs.Each(func(hr host.HostRecord) bool {
		hll.Add(hr.Key.Hash())
		return true
	})
	return fs.Len(), hll.Estimate()
}

// FlowSizeDistOffline returns the per-decade flow-size histogram of the
// store.
func FlowSizeDistOffline(fs *host.FlowStore, decades int) []int {
	out := make([]int, decades)
	fs.Each(func(hr host.HostRecord) bool {
		d := 0
		for v := hr.Pkts; v >= 10 && d < decades-1; v /= 10 {
			d++
		}
		out[d]++
		return true
	})
	return out
}

// SlowlorisOffline is the fine-grained Slowloris detector of §2.1.2: per
// destination it counts long-lived, low-volume connections ("stalling"
// flows). Destinations holding at least minConns such flows are under
// attack; the flows' common source is the attacker.
func SlowlorisOffline(fs *host.FlowStore, now int64, minDurationNs int64, maxBytes uint64, minConns int) []Alert {
	type victimStats struct {
		conns int
		srcs  map[packet.Addr]int
	}
	victims := map[packet.Addr]*victimStats{}
	fs.Each(func(hr host.HostRecord) bool {
		dur := hr.LastTs - hr.FirstTs
		if dur < minDurationNs || hr.Bytes > maxBytes {
			return true
		}
		// The server is the endpoint on a well-known port (HTTP-ish).
		victim := hr.Key.HiIP
		attacker := hr.Key.LoIP
		if hr.Key.LoPort < hr.Key.HiPort {
			victim, attacker = hr.Key.LoIP, hr.Key.HiIP
		}
		vs := victims[victim]
		if vs == nil {
			vs = &victimStats{srcs: map[packet.Addr]int{}}
			victims[victim] = vs
		}
		vs.conns++
		vs.srcs[attacker]++
		return true
	})
	var out []Alert
	for victim, vs := range victims {
		if vs.conns < minConns {
			continue
		}
		top, topN := packet.Addr(0), 0
		for src, n := range vs.srcs {
			if n > topN {
				top, topN = src, n
			}
		}
		out = append(out, Alert{
			Detector: "slowloris", Ts: now, Attacker: top, Victim: victim,
			Info: fmt.Sprintf("%d stalling connections (%d from top source)", vs.conns, topN),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Victim < out[j].Victim })
	return out
}
