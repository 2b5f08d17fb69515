package detect

import (
	"fmt"
	"sort"

	"smartwatch/internal/host"
	"smartwatch/internal/packet"
)

// Offline analytics over the lossless flow log (§4, Table 2's first row)
// run on the host against the exported aggregates and cost the sNIC
// nothing beyond baseline flow logging. Heavy hitters, heavy changes and
// the flow-size distribution are Fig 10's, scored over the flow store;
// the log is lossless, so cardinality is the store's Len.

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
