package core

import (
	"slices"
	"testing"

	"smartwatch/internal/detect"
	"smartwatch/internal/p4switch"
	"smartwatch/internal/packet"
	"smartwatch/internal/pcap"
	"smartwatch/internal/trace"
)

// hookScanner is the port scanner of hookStream, whose silent probes TRW
// counts as failures.
var hookScanner = packet.MustParseAddr("203.0.113.66")

// hookStream holds the three kinds of pin only a detector's Tick releases:
// RSTs that turn out genuine (ForgedRST), SYNs that never see data
// (Incomplete) and probes that are never answered (PortScan), the last
// from a scanner that TRW flags.
func hookStream() packet.Stream {
	return pcap.Merge(
		trace.ForgedRST(trace.ForgedRSTConfig{Seed: 4, Sessions: 20, ForgedFraction: 0}).Stream(),
		trace.Incomplete(trace.IncompleteConfig{Seed: 5, Sources: 3, SynsPerSource: 12}).Stream(),
		trace.PortScan(trace.PortScanConfig{Seed: 2, Scanner: hookScanner, Targets: 8, PortsPerTarget: 10, ScanDelay: 5e6}).Stream(),
	)
}

// hookRows are the detector sets TestTickHooksReachThePlatform runs: each
// of the four Tick-driven detectors alone, then all four together (the
// CLI's order, LowSlow last).
var hookRows = []struct {
	name    string
	dets    func() []detect.Detector
	scanner bool // the set holds PortScan, so the scanner must end blacklisted
}{
	{"forged-rst", func() []detect.Detector {
		return []detect.Detector{detect.NewForgedRST(detect.ForgedRSTConfig{TNs: 1e9})}
	}, false},
	{"portscan", func() []detect.Detector {
		return []detect.Detector{detect.NewPortScan(detect.PortScanConfig{ResponseTimeoutNs: 1e9})}
	}, true},
	{"incomplete", func() []detect.Detector { return []detect.Detector{detect.NewIncomplete(1e9, 5, nil)} }, false},
	{"lowslow", func() []detect.Detector { return []detect.Detector{detect.NewLowSlow(detect.LowSlowConfig{})} }, false},
	{"all four", func() []detect.Detector {
		return []detect.Detector{
			detect.NewPortScan(detect.PortScanConfig{ResponseTimeoutNs: 1e9}),
			detect.NewForgedRST(detect.ForgedRSTConfig{TNs: 1e9}),
			detect.NewIncomplete(1e9, 5, nil),
			detect.NewLowSlow(detect.LowSlowConfig{}),
		}
	}, true},
}

// steerAll is a query whose two /1 keys, steered before the first packet,
// send every TCP packet to the sNIC.
var steerAll = []p4switch.Query{{
	Name: "all", Filter: p4switch.Predicate{Proto: packet.ProtoTCP},
	Key: p4switch.KeyDstIP, PrefixBits: 1, Reduce: p4switch.CountPackets, Threshold: 1, Slots: 2,
}}

func steerEverything(t *testing.T, sw *p4switch.Switch) {
	t.Helper()
	for _, k := range []packet.Addr{0, 1 << 31} {
		if err := sw.Steer(p4switch.FiredKey{Query: "all", Key: k, PrefixBits: 1}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTickHooksReachThePlatform: the detectors that act from Tick take
// their hooks from the platform (DESIGN.md §7.3) — once the clock has run
// past every timeout, no record a detector pinned is still pinned, and
// PortScan's scanner is on the switch's blacklist.
func TestTickHooksReachThePlatform(t *testing.T) {
	for _, row := range hookRows {
		t.Run(row.name, func(t *testing.T) {
			pl := New(Config{EnableSwitch: true, Queries: steerAll, Detectors: row.dets()})
			steerEverything(t, pl.Switch())
			ses := pl.NewSession()
			if err := ses.Start(); err != nil {
				t.Fatal(err)
			}
			var last int64
			for b := range packet.BufferedBatches(hookStream(), 256) {
				last = b[len(b)-1].Ts
				if err := ses.Ingest(b); err != nil {
					t.Fatal(err)
				}
			}
			var pinned int
			if err := ses.Exec(func(pl *Platform) {
				pl.AdvanceClock(last + 10e9)
				_, pinned = pl.Cache().OccupancyStats()
			}); err != nil {
				t.Fatal(err)
			}
			if _, err := ses.Drain(); err != nil {
				t.Fatal(err)
			}
			if pinned != 0 {
				t.Errorf("%d records still pinned after every timeout ran out", pinned)
			}
			if got := slices.Contains(pl.Switch().BlacklistEntries(), hookScanner); got != row.scanner {
				t.Errorf("scanner blacklisted at the switch: %v, want %v", got, row.scanner)
			}
		})
	}
}
