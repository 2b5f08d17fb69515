package core

import (
	"strings"
	"testing"

	"smartwatch/internal/detect"
	"smartwatch/internal/p4switch"
	"smartwatch/internal/packet"
	"smartwatch/internal/pcap"
	"smartwatch/internal/trace"
)

// lowslowStream mixes benign Zipf background with all three low-and-slow
// injectors, regenerated identically from seeds for every run under
// comparison.
func lowslowStream() packet.Stream {
	background := trace.NewWorkload(trace.WorkloadConfig{
		Seed: 21, Flows: 300, PacketRate: 2e5, Duration: 1e9, UDPFraction: 0.1,
	})
	slowpost := trace.SlowPost(trace.SlowPostConfig{
		Seed: 22, Connections: 8, ByteGap: 50e6, Duration: 1e9,
	})
	slowread := trace.SlowRead(trace.SlowReadConfig{
		Seed: 23, Connections: 8, DripGap: 50e6, Duration: 1e9,
	})
	exhaust := trace.ConnExhaust(trace.ConnExhaustConfig{
		Seed: 24, Connections: 80, ConnGap: 10e6,
	})
	return pcap.Merge(background.Stream(), slowpost.Stream(), slowread.Stream(), exhaust.Stream())
}

func lowslowDetectors() []detect.Detector {
	return []detect.Detector{
		detect.NewLowSlow(detect.LowSlowConfig{
			IdleNs: 100e6, MinAgeNs: 300e6, MinDrips: 4, ExhaustThreshold: 16,
		}),
	}
}

// TestPlatformDetectsLowSlowSuite: in the standalone deployment (every
// packet reaches the sNIC) the LowSlow detector must confirm all three
// attack shapes against a live background.
func TestPlatformDetectsLowSlowSuite(t *testing.T) {
	pl := New(Config{IntervalNs: 20e6, Detectors: lowslowDetectors()})
	rep := pl.Run(lowslowStream())

	labels := map[string]int{}
	for _, a := range rep.Alerts {
		labels[a.Detector]++
	}
	for _, want := range []string{"slow-post", "slow-read", "conn-exhaust"} {
		if labels[want] == 0 {
			t.Errorf("no %s alert; got %v", want, labels)
		}
	}
}

// TestLowSlowBlacklistReachesSwitch: with the switch tier on and a query
// steering HTTPS SYN traffic to the sNIC, a confirmed conn-exhaust attack
// must blacklist the /24 at the switch — late accreted connections die
// there instead of reaching the sNIC.
func TestLowSlowBlacklistReachesSwitch(t *testing.T) {
	pl := New(Config{
		EnableSwitch: true,
		IntervalNs:   20e6,
		Queries: []p4switch.Query{{
			Name:   "https-conns",
			Filter: p4switch.Predicate{Proto: packet.ProtoTCP, DstPort: 443},
			Key:    p4switch.KeyDstIP, PrefixBits: 24,
			Reduce: p4switch.CountSYN, Threshold: 1, Slots: 1 << 12,
		}},
		Detectors: lowslowDetectors(),
	})
	// More connections than the /24 has hosts, so the rotation revisits
	// already-blacklisted sources — those SYNs must die at the switch.
	exhaust := trace.ConnExhaust(trace.ConnExhaustConfig{
		Seed: 24, Connections: 400, ConnGap: 5e6,
	})
	rep := pl.Run(exhaust.Stream())

	found := false
	for _, a := range rep.Alerts {
		if a.Detector == "conn-exhaust" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no conn-exhaust alert through the switch deployment; alerts=%v", rep.Alerts)
	}
	if rep.Counts.DroppedAtSwitch == 0 {
		t.Error("blacklist hook never reached the switch: no drops")
	}
}

// TestLowSlowDeterminismAcrossBatch: the determinism contract must hold
// with the timing-wheel detector in the loop — reports, alert sequences
// and flow logs stay byte-identical across BatchSize, at one and several
// shards. This is the oracle that keeps the
// wheel's Advance cadence tied to packet time, not drive shape.
func TestLowSlowDeterminismAcrossBatch(t *testing.T) {
	for _, shards := range []int{1, 4} {
		base := Config{
			IntervalNs: 20e6,
			Shards:     shards,
			Detectors:  lowslowDetectors(),
		}
		ref := New(base)
		refDump := canonicalDump(ref, ref.Run(lowslowStream())) + kvDump(ref)
		if !strings.Contains(refDump, "alert[") {
			t.Fatalf("shards=%d: reference run raised no alerts — oracle is vacuous", shards)
		}

		for _, batch := range []int{7, 64} {
			cfg := base
			cfg.BatchSize = batch
			cfg.Detectors = lowslowDetectors() // detectors are stateful: fresh per run
			pl := New(cfg)
			dump := canonicalDump(pl, pl.Run(lowslowStream())) + kvDump(pl)
			if dump != refDump {
				t.Errorf("shards=%d batch=%d diverged:\n%s", shards, batch, firstDiffLine(refDump, dump))
			}
		}
	}
}
