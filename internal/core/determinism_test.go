package core

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"smartwatch/internal/detect"
	"smartwatch/internal/host"
	"smartwatch/internal/packet"
	"smartwatch/internal/pcap"
	"smartwatch/internal/tier"
	"smartwatch/internal/trace"
)

// mixedStream builds the standard determinism workload: Zipf background
// plus an SSH brute-force attack, regenerated identically from seeds for
// every platform under comparison.
func mixedStream() packet.Stream {
	background := trace.NewWorkload(trace.WorkloadConfig{
		Seed: 11, Flows: 600, PacketRate: 2e6, Duration: 4e8, UDPFraction: 0.1,
	})
	attack := trace.BruteForce(trace.BruteForceConfig{
		Seed: 12, Attackers: 3, AttemptsPerAttacker: 8, AttemptGap: 20e6,
		Target: packet.MustParseAddr("10.1.0.22"),
	})
	return pcap.Merge(background.Stream(), attack.Stream())
}

func detectorSet() []detect.Detector {
	return []detect.Detector{
		detect.NewBruteForce(detect.BruteForceConfig{Service: 22, Psi: 3}),
	}
}

func fullConfig(shards int) Config {
	return Config{
		EnableSwitch: true,
		Queries:      sshQueries(),
		IntervalNs:   20e6,
		Detectors:    detectorSet(),
		Shards:       shards,
	}
}

// noSwitchConfig is the standalone deployment (no P4 switch) of the
// determinism workload. Detectors are stateful: every call builds a fresh
// set.
func noSwitchConfig() Config {
	return Config{IntervalNs: 20e6, Detectors: detectorSet()}
}

// golden reads testdata/<name>. The legacy_* files are what the direct-call
// drive this package kept behind a Config flag until PR 23 (legacy.go)
// produced at its last commit — canonicalDump + kvDump unless the test
// that reads one says otherwise. They were generated once, before that
// drive was deleted, and are the oracle it used to be (DESIGN.md §8.1).
func golden(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// canonicalDump flattens everything externally observable about a run —
// Report fields (except Events, which the legacy drive never populated)
// and the alert sequence; kvDump adds the whole flow log — into one
// comparable string.
func canonicalDump(pl *Platform, rep Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "counts %+v\n", rep.Counts)
	fmt.Fprintf(&b, "snic processed=%d dropped=%d offered=%v achieved=%v busy=%v span=%v lat(p50=%v p99=%v n=%d)\n",
		rep.SNIC.Processed, rep.SNIC.Dropped, rep.SNIC.OfferedMpps, rep.SNIC.AchievedMpps,
		rep.SNIC.EngineBusyNs, rep.SNIC.SpanNs,
		rep.SNIC.Latency.Quantile(0.5), rep.SNIC.Latency.Quantile(0.99), rep.SNIC.Latency.N())
	fmt.Fprintf(&b, "cache %+v\n", rep.Cache)
	fmt.Fprintf(&b, "switch %+v\n", rep.SwitchStats)
	fmt.Fprintf(&b, "hostcpu %v switchovers %d\n", rep.HostCPUNs, rep.Switchovers)
	for i, a := range rep.Alerts {
		fmt.Fprintf(&b, "alert[%d] %s flow=%s\n", i, a.String(), a.Flow.String())
	}
	return b.String()
}

// kvDump renders the flow log with map-order neutralised (records sorted
// per interval).
func kvDump(pl *Platform) string {
	var b strings.Builder
	for _, ts := range pl.KV().Intervals() {
		var lines []string
		pl.KV().Scan(ts, func(hr host.HostRecord) bool {
			lines = append(lines, fmt.Sprintf("%s pkts=%d bytes=%d first=%d last=%d",
				hr.Key.String(), hr.Pkts, hr.Bytes, hr.FirstTs, hr.LastTs))
			return true
		})
		sort.Strings(lines)
		fmt.Fprintf(&b, "interval %d\n  %s\n", ts, strings.Join(lines, "\n  "))
	}
	return b.String()
}

// TestTierDriveMatchesGolden is the tier refactor's acceptance gate, kept:
// at Shards=1 the drive (direct stage calls + event bus) must reproduce
// the monolithic direct-call wiring byte-for-byte — report, alert sequence
// and flow log — at a chunk of one and at 64.
func TestTierDriveMatchesGolden(t *testing.T) {
	want := golden(t, "legacy_switch.golden")
	for _, batch := range []int{1, 64} {
		cfg := fullConfig(1)
		cfg.BatchSize = batch
		pl := New(cfg)
		rep := pl.Run(mixedStream())
		if got := canonicalDump(pl, rep) + kvDump(pl); got != want {
			t.Errorf("batch=%d: drive diverged from legacy golden:\n%s", batch, firstDiffLine(want, got))
		}
		// The run must actually have used the bus.
		if rep.Events.PublishedFor(tier.KindInterval) == 0 {
			t.Errorf("batch=%d: run published no interval events; bus is not wired", batch)
		}
	}
}

// TestTierDriveNoSwitchMatchesGolden covers the standalone deployment (no
// P4 switch): ingest accounting and the sNIC tier only.
func TestTierDriveNoSwitchMatchesGolden(t *testing.T) {
	want := golden(t, "legacy_noswitch.golden")
	for _, batch := range []int{1, 64} {
		cfg := noSwitchConfig()
		cfg.BatchSize = batch
		if got := runDump(cfg); got != want {
			t.Errorf("batch=%d: no-switch drive diverged from legacy golden:\n%s", batch, firstDiffLine(want, got))
		}
	}
}

// TestShardedPlatformDetectorSuite: at Shards=4 exact placement differs
// (different per-shard geometry) but the platform must stay conservative
// and the detectors must still catch the attack.
func TestShardedPlatformDetectorSuite(t *testing.T) {
	det := detect.NewBruteForce(detect.BruteForceConfig{Service: 22, Psi: 3})
	cfg := fullConfig(4)
	cfg.Detectors = []detect.Detector{det}
	pl := New(cfg)
	if n := pl.Cache().NumShards(); n != 4 {
		t.Fatalf("NumShards = %d, want 4", n)
	}
	background := trace.NewWorkload(trace.WorkloadConfig{
		Seed: 11, Flows: 600, PacketRate: 2e6, Duration: 4e8, UDPFraction: 0.1,
	})
	attack := trace.BruteForce(trace.BruteForceConfig{
		Seed: 12, Attackers: 3, AttemptsPerAttacker: 8, AttemptGap: 20e6,
		Target: packet.MustParseAddr("10.1.0.22"),
	})
	rep := pl.Run(pcap.Merge(background.Stream(), attack.Stream()))

	c := rep.Counts
	if c.Total != c.ForwardedDirect+c.DroppedAtSwitch+c.ToSNIC {
		t.Errorf("packet conservation broken: %+v", c)
	}
	if got := rep.Cache.Processed(); got != c.ToSNIC {
		t.Errorf("cache processed %d, sNIC got %d", got, c.ToSNIC)
	}
	flagged := 0
	for _, a := range attack.Truth().Attackers {
		if det.Flagged(a) {
			flagged++
		}
	}
	if flagged == 0 {
		t.Error("sharded platform missed every attacker")
	}
	if len(rep.Alerts) == 0 {
		t.Error("no alerts raised")
	}
	checkCache(t, pl, "shards=4")
}

// checkCache runs the FlowCache's structural invariants over every shard
// of a drained platform.
func checkCache(t *testing.T, pl *Platform, what string) {
	t.Helper()
	if err := pl.Cache().CheckInvariants(); err != nil {
		t.Errorf("%s: %v", what, err)
	}
}

// TestShardedPlatformCountsShards: shard counts normalise (0 -> 1) and
// reports stay self-consistent at several shard widths.
func TestShardedPlatformCountsShards(t *testing.T) {
	for _, n := range []int{0, 1, 2, 8} {
		pl := New(Config{IntervalNs: 50e6, Shards: n})
		w := trace.NewWorkload(trace.WorkloadConfig{Seed: 5, Flows: 200, PacketRate: 1e6, Duration: 2e8})
		rep := pl.Run(w.Stream())
		want := n
		if want <= 0 {
			want = 1
		}
		if got := pl.Cache().NumShards(); got != want {
			t.Errorf("Shards=%d: NumShards = %d, want %d", n, got, want)
		}
		if rep.Counts.ToSNIC != rep.Counts.Total {
			t.Errorf("Shards=%d: standalone platform must sNIC everything: %+v", n, rep.Counts)
		}
		if rep.Cache.Processed() != rep.Counts.ToSNIC {
			t.Errorf("Shards=%d: processed %d != ToSNIC %d", n, rep.Cache.Processed(), rep.Counts.ToSNIC)
		}
	}
}

func firstDiffLine(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			return fmt.Sprintf("line %d:\n  legacy %q\n  tiered %q", i, w[i], g[i])
		}
	}
	return fmt.Sprintf("lengths differ: legacy %d lines, tiered %d", len(w), len(g))
}
