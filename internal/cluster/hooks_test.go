package cluster

import (
	"slices"
	"testing"

	"smartwatch/internal/core"
	"smartwatch/internal/detect"
	"smartwatch/internal/p4switch"
	"smartwatch/internal/packet"
	"smartwatch/internal/pcap"
	"smartwatch/internal/trace"
)

// TestWorkerTickHooksReachTheSwitch is core's TestTickHooksReachThePlatform
// at two workers: every worker's platform hands itself to its own
// detectors, so once Drain has run each worker's clock past every timeout
// no record is still pinned, and the scanner one worker's PortScan flagged
// from Tick is on the shared switch's blacklist.
func TestWorkerTickHooksReachTheSwitch(t *testing.T) {
	scanner := packet.MustParseAddr("203.0.113.66")
	rows := []struct {
		name    string
		dets    func() []detect.Detector
		scanner bool
	}{
		{"forged-rst", func() []detect.Detector {
			return []detect.Detector{detect.NewForgedRST(detect.ForgedRSTConfig{TNs: 1e9})}
		}, false},
		{"portscan", func() []detect.Detector {
			return []detect.Detector{detect.NewPortScan(detect.PortScanConfig{ResponseTimeoutNs: 1e9})}
		}, true},
		{"incomplete", func() []detect.Detector { return []detect.Detector{detect.NewIncomplete(1e9, 5, nil)} }, false},
		{"all four", func() []detect.Detector {
			return []detect.Detector{
				detect.NewPortScan(detect.PortScanConfig{ResponseTimeoutNs: 1e9}),
				detect.NewForgedRST(detect.ForgedRSTConfig{TNs: 1e9}),
				detect.NewIncomplete(1e9, 5, nil),
				detect.NewLowSlow(detect.LowSlowConfig{}),
			}
		}, true},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			r := New(Config{
				Workers: 2,
				Worker: core.Config{
					EnableSwitch: true,
					Queries: []p4switch.Query{{
						Name: "all", Filter: p4switch.Predicate{Proto: packet.ProtoTCP},
						Key: p4switch.KeyDstIP, PrefixBits: 1, Reduce: p4switch.CountPackets, Threshold: 1, Slots: 2,
					}},
					SNIC: noDropSNIC(),
				},
				Detectors:   row.dets,
				QueueBatch:  64,
				SyncPackets: 256,
			})
			// The two /1 keys: every TCP packet goes to a lane.
			for _, k := range []packet.Addr{0, 1 << 31} {
				if err := r.Switch().Steer(p4switch.FiredKey{Query: "all", Key: k, PrefixBits: 1}); err != nil {
					t.Fatal(err)
				}
			}
			if err := r.Start(); err != nil {
				t.Fatal(err)
			}
			var pkts []packet.Packet
			for p := range pcap.Merge(
				trace.ForgedRST(trace.ForgedRSTConfig{Seed: 4, Sessions: 20, ForgedFraction: 0}).Stream(),
				trace.Incomplete(trace.IncompleteConfig{Seed: 5, Sources: 3, SynsPerSource: 12}).Stream(),
				trace.PortScan(trace.PortScanConfig{Seed: 2, Scanner: scanner, Targets: 8, PortsPerTarget: 10, ScanDelay: 5e6}).Stream(),
			) {
				pkts = append(pkts, p)
			}
			// A last packet 10 s on: Drain advances every worker's clock to it.
			tail := packet.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 53, DstPort: 53, Proto: packet.ProtoUDP}
			pkts = append(pkts, packet.Packet{Ts: pkts[len(pkts)-1].Ts + 10e9, Tuple: tail, Size: 64})
			if err := r.Ingest(pkts); err != nil {
				t.Fatal(err)
			}
			if _, err := r.Drain(); err != nil {
				t.Fatal(err)
			}
			for i, pl := range r.Workers() {
				if _, pinned := pl.Cache().OccupancyStats(); pinned != 0 {
					t.Errorf("worker %d: %d records still pinned after every timeout ran out", i, pinned)
				}
			}
			if got := slices.Contains(r.BlacklistEntries(), scanner); got != row.scanner {
				t.Errorf("scanner blacklisted at the shared switch: %v, want %v", got, row.scanner)
			}
		})
	}
}
