package smartwatch_test

import (
	"testing"

	"smartwatch"
)

// TestPublicAPIEndToEnd exercises the documented quick-start path: build a
// platform with a detector, feed it a mixed trace, read alerts.
func TestPublicAPIEndToEnd(t *testing.T) {
	scanDet := smartwatch.NewPortScanDetector(smartwatch.PortScanDetectorConfig{ResponseTimeoutNs: 20e6})
	pl := smartwatch.New(smartwatch.Config{
		IntervalNs: 50e6,
		Detectors:  []smartwatch.Detector{scanDet},
	})

	background := smartwatch.NewWorkload(smartwatch.WorkloadConfig{
		Seed: 7, Flows: 300, PacketRate: 1e6, Duration: 3e8,
	})
	// A scanning host hidden in the background (the trace package is
	// internal; synthesize probes directly through the public types).
	scanner := smartwatch.MustParseAddr("203.0.113.5")
	var probes []smartwatch.Packet
	for i := 0; i < 60; i++ {
		probes = append(probes, smartwatch.Packet{
			Ts: int64(i) * 4e6,
			Tuple: smartwatch.FiveTuple{
				SrcIP: scanner, DstIP: smartwatch.MustParseAddr("10.1.0.9"),
				SrcPort: uint16(41000 + i), DstPort: uint16(1 + i), Proto: 6,
			},
			Size: 64, Flags: 0x02, // SYN
		})
	}
	mixed := smartwatch.MergeStreams(background.Stream(), smartwatch.StreamOf(probes))
	rep, err := pl.Run(mixed)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Counts.Total == 0 || rep.Cache.Processed() == 0 {
		t.Fatalf("platform processed nothing: %+v", rep.Counts)
	}
	if !scanDet.Flagged(scanner) {
		t.Errorf("public pipeline missed the scanner")
	}
}

func TestPublicFlowCacheStandalone(t *testing.T) {
	fc := smartwatch.NewFlowCache(smartwatch.DefaultFlowCacheConfig(8))
	p := smartwatch.Packet{
		Tuple: smartwatch.FiveTuple{
			SrcIP: smartwatch.MustParseAddr("1.2.3.4"), DstIP: smartwatch.MustParseAddr("5.6.7.8"),
			SrcPort: 1000, DstPort: 443, Proto: 6,
		},
		Size: 100,
	}
	if rec, _ := fc.Process(&p); rec == nil || rec.Pkts != 1 {
		t.Fatalf("standalone FlowCache broken: %+v", rec)
	}
	fc.SetMode(smartwatch.ModeLite)
	if fc.Mode() != smartwatch.ModeLite {
		t.Error("mode switch through public API failed")
	}
}

func TestPublicFingerprintDetector(t *testing.T) {
	const bins = 16
	training := map[string][]uint64{
		"a": make([]uint64, bins),
		"b": make([]uint64, bins),
	}
	training["a"][2] = 100
	training["b"][12] = 100
	det, err := smartwatch.NewFingerprintDetector(bins, 1600, 5, training, []string{"a"})
	if err != nil {
		t.Fatal(err)
	}
	// A flow whose packets sit in bin 2 must classify as "a".
	tuple := smartwatch.FiveTuple{
		SrcIP: smartwatch.MustParseAddr("1.1.1.1"), DstIP: smartwatch.MustParseAddr("2.2.2.2"),
		SrcPort: 1, DstPort: 443, Proto: 6,
	}
	det.Program(tuple.Canonical())
	var pkts []smartwatch.Packet
	for i := 0; i < 10; i++ {
		pkts = append(pkts, smartwatch.Packet{Ts: int64(i) * 1e6, Tuple: tuple, Size: 250})
	}
	pl := smartwatch.New(smartwatch.Config{IntervalNs: 2e6, Detectors: []smartwatch.Detector{det}})
	rep, err := pl.Run(smartwatch.StreamOf(pkts))
	if err != nil {
		t.Fatal(err)
	}
	if got := det.Classifications()[tuple.Canonical()]; got != "a" {
		t.Errorf("classified as %q, want a", got)
	}
	if len(rep.Alerts) == 0 {
		t.Error("monitored-site match must alert")
	}
	if _, err := smartwatch.NewFingerprintDetector(bins, 1600, 5, map[string][]uint64{"bad": {1}}, nil); err == nil {
		t.Error("shape mismatch must error")
	}
}

func TestPublicFingerprintTraffic(t *testing.T) {
	tr := smartwatch.FingerprintTraffic(smartwatch.FingerprintTrafficConfig{Seed: 1, Sites: 3, FlowsPerSite: 2, PacketsPerFlow: 10})
	n := 0
	for range tr.Stream() {
		n++
	}
	if n != 3*2*10 {
		t.Errorf("packets = %d", n)
	}
	if len(tr.Sites()) != 3 {
		t.Errorf("sites = %v", tr.Sites())
	}
}
