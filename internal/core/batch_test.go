package core

import (
	"testing"

	"smartwatch/internal/packet"
	"smartwatch/internal/tier"
	"smartwatch/internal/trace"
)

// runDump runs a fresh platform over the standard mixed workload and
// flattens everything observable — report, alerts, flow log — into one
// string.
func runDump(cfg Config) string {
	pl := New(cfg)
	rep := pl.Run(mixedStream())
	return canonicalDump(pl, rep) + kvDump(pl)
}

// TestBatchedDriveMatchesPerPacket is the tentpole's acceptance gate:
// every BatchSize × Shards combination must reproduce the per-packet
// drive byte for byte — report, alert sequence and flow log — on the
// full platform (switch + detectors + intervals). The stream length
// (~800k packets) does not divide any of the batch sizes, so every run
// exercises an odd tail.
func TestBatchedDriveMatchesPerPacket(t *testing.T) {
	if testing.Short() {
		t.Skip("full-platform sweep; covered per-component in -short runs")
	}
	for _, shards := range []int{1, 4} {
		base := New(fullConfig(shards))
		baseRep := base.Run(mixedStream())
		want := canonicalDump(base, baseRep) + kvDump(base)

		// The trace must actually exercise the mid-batch control-feedback
		// hazard: detector blacklists rewrite switch tables between two
		// packets that can share a vector. Otherwise this test would pass
		// even with an (incorrect) pre-steering batch drive.
		if baseRep.Events.PublishedFor(tier.KindBlacklist) == 0 {
			t.Fatal("workload published no blacklist events; hazard not exercised, goldens vacuous")
		}
		if baseRep.Counts.DroppedAtSwitch == 0 {
			t.Fatal("no switch drops; blacklist feedback not observable")
		}

		for _, batch := range []int{7, 64, 256} {
			cfg := fullConfig(shards)
			cfg.BatchSize = batch
			if got := runDump(cfg); got != want {
				t.Errorf("shards=%d batch=%d diverged from per-packet drive:\n%s",
					shards, batch, firstDiffLine(want, got))
			}
		}
	}
}

// TestBatchedDriveMatchesGolden pins the batch path against the pre-tier
// monolithic wiring at shards=1 — the strongest oracle in the repo:
// per-packet direct-call handler vs vectored drive, at a batch size that
// does not divide a sub-batch evenly and one larger than most.
func TestBatchedDriveMatchesGolden(t *testing.T) {
	want := golden(t, "legacy_switch.golden")
	for _, batch := range []int{7, 256} {
		cfg := fullConfig(1)
		cfg.BatchSize = batch
		if got := runDump(cfg); got != want {
			t.Errorf("batch=%d: batched drive diverged from legacy golden:\n%s", batch, firstDiffLine(want, got))
		}
	}
}

// TestBatchedDriveNoSwitch covers the drive without a steer stage.
func TestBatchedDriveNoSwitch(t *testing.T) {
	want := runDump(noSwitchConfig())

	for _, batch := range []int{7, 256} {
		cfg := noSwitchConfig()
		cfg.BatchSize = batch
		if got := runDump(cfg); got != want {
			t.Errorf("no-switch batch=%d diverged:\n%s", batch, firstDiffLine(want, got))
		}
	}
}

// TestBatchedDriveOddTail drives stream lengths around the batch size so
// the final vector is short, exactly full, and one over — the classic
// tail off-by-ones — on a timer-heavy config (interval = 1/20 of the
// trace) so sub-batch splitting hits the tail too.
func TestBatchedDriveOddTail(t *testing.T) {
	mk := func(n int) packet.Stream {
		w := trace.NewWorkload(trace.WorkloadConfig{Seed: 7, Flows: 50, PacketRate: 1e6, Duration: 1e9})
		return packet.Limit(w.Stream(), int64(n))
	}
	for _, n := range []int{1, 63, 64, 65, 1000} {
		ref := New(Config{IntervalNs: 50e6, Detectors: detectorSet()})
		refRep := ref.Run(mk(n))
		want := canonicalDump(ref, refRep) + kvDump(ref)
		if refRep.Counts.Total != uint64(n) {
			t.Fatalf("n=%d: reference saw %d packets", n, refRep.Counts.Total)
		}

		pl := New(Config{IntervalNs: 50e6, Detectors: detectorSet(), BatchSize: 64})
		rep := pl.Run(mk(n))
		got := canonicalDump(pl, rep) + kvDump(pl)
		if got != want {
			t.Errorf("n=%d diverged on odd tail:\n%s", n, firstDiffLine(want, got))
		}
	}
}

// TestBatchSizeOneIsPerPacketDrive: BatchSize ∈ {0, 1} must select the
// original per-packet drive (the batched filter never engages).
func TestBatchSizeOneIsPerPacketDrive(t *testing.T) {
	for _, b := range []int{0, 1} {
		cfg := fullConfig(1)
		cfg.BatchSize = b
		pl := New(cfg)
		if pl.cfg.BatchSize != 1 {
			t.Errorf("BatchSize=%d normalised to %d, want 1", b, pl.cfg.BatchSize)
		}
	}
}
