package smartwatch_test

import (
	"fmt"

	"smartwatch"
)

// ExampleNew shows the minimal monitoring pipeline: a platform with one
// detector, fed a deterministic synthetic workload.
func ExampleNew() {
	det := smartwatch.NewPortScanDetector(smartwatch.PortScanDetectorConfig{ResponseTimeoutNs: 20e6})
	platform := smartwatch.New(smartwatch.Config{
		IntervalNs: 50e6,
		Detectors:  []smartwatch.Detector{det},
	})
	scan := smartwatch.PortScanTraffic(smartwatch.PortScanTrafficConfig{
		Seed: 1, Targets: 4, PortsPerTarget: 10, ScanDelay: 2e6, SilentFraction: 0.9,
	})
	report := platform.Run(scan.Stream())
	scanner := scan.Truth().Attackers[0]
	fmt.Printf("packets=%d scanner-flagged=%v\n", report.Counts.Total, det.Flagged(scanner))
	// Output: packets=45 scanner-flagged=true
}

// ExampleNewFlowCache uses the FlowCache standalone: per-packet flow-state
// tracking with pinning, exactly as a custom sNIC application would.
func ExampleNewFlowCache() {
	fc := smartwatch.NewFlowCache(smartwatch.DefaultFlowCacheConfig(8))
	p := smartwatch.Packet{
		Tuple: smartwatch.FiveTuple{
			SrcIP: smartwatch.MustParseAddr("10.0.0.1"), DstIP: smartwatch.MustParseAddr("10.0.0.2"),
			SrcPort: 1234, DstPort: 22, Proto: 6,
		},
		Size: 64,
	}
	fc.Process(&p)
	fc.Pin(p.Key()) // survive eviction until the auth outcome is known
	reverse := p.Reverse()
	rec, res := fc.Process(&reverse) // both directions share one record
	fmt.Printf("pkts=%d pinned=%v mode=%v\n", rec.Pkts, res.Pinned, fc.Mode())
	// Output: pkts=2 pinned=true mode=general
}

// ExampleCAIDAWorkload generates a reproducible backbone-like background
// trace; identical seeds replay identical packets.
func ExampleCAIDAWorkload() {
	cfg := smartwatch.CAIDAWorkload(2018).Config()
	cfg.Duration = 1e6 // 1 ms of virtual time
	w := smartwatch.NewWorkload(cfg)
	a, b := 0, 0
	for range w.Stream() {
		a++
	}
	for range w.Stream() {
		b++
	}
	fmt.Printf("replays-identical=%v\n", a == b && a > 0)
	// Output: replays-identical=true
}
