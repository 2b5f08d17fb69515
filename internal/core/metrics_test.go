package core

import (
	"bytes"
	"fmt"
	"testing"

	"smartwatch/internal/flowcache"
	"smartwatch/internal/obs"
	"smartwatch/internal/tier"
	"smartwatch/internal/trace"
)

// TestRingOverflowSurfacesEndToEnd forces eviction-ring overflow and
// follows the drops all the way out: flowcache counters, the per-ring
// breakdown in core.Report, and the metrics tree.
func TestRingOverflowSurfacesEndToEnd(t *testing.T) {
	cache := flowcache.DefaultConfig(4) // 16 rows × 12 buckets = 192 records
	cache.Rings = 2
	cache.RingEntries = 4 // overflows after 8 buffered evictions

	reg := obs.NewRegistry()
	pl := New(Config{
		Cache:      cache,
		IntervalNs: 50e6,
		Metrics:    reg,
	})
	// 4000 flows hammering a 192-record cache: evictions far outrun the
	// 2×4-entry rings between interval drains.
	w := trace.NewWorkload(trace.WorkloadConfig{Seed: 3, Flows: 4000, PacketRate: 2e6, Duration: 2e8})
	rep := pl.Run(w.Stream())

	if rep.Cache.Evictions == 0 {
		t.Fatal("workload produced no evictions; test is vacuous")
	}
	if rep.Cache.RingDrops == 0 {
		t.Fatal("expected ring overflow drops in Report.Cache")
	}
	if len(rep.Rings) != cache.Rings {
		t.Fatalf("Report.Rings has %d entries, want %d", len(rep.Rings), cache.Rings)
	}
	var perRing uint64
	for _, rs := range rep.Rings {
		perRing += rs.Drops
	}
	if perRing != rep.Cache.RingDrops {
		t.Errorf("per-ring drops %d != aggregate %d", perRing, rep.Cache.RingDrops)
	}
	if rep.Metrics == nil {
		t.Fatal("Report.Metrics nil with Config.Metrics set")
	}
	if got := rep.Metrics.Counter("flowcache.ring_drops"); got != rep.Cache.RingDrops {
		t.Errorf("metrics flowcache.ring_drops = %d, want %d", got, rep.Cache.RingDrops)
	}
	var metricPerRing uint64
	for i := range rep.Rings {
		metricPerRing += rep.Metrics.Counter(fmt.Sprintf("flowcache.ring.%03d.drops", i))
	}
	if metricPerRing != rep.Cache.RingDrops {
		t.Errorf("metrics per-ring drops %d, want %d", metricPerRing, rep.Cache.RingDrops)
	}
	// Drops never reach the host: drained + dropped must cover evictions.
	if rep.Host.Drained+rep.Cache.RingDrops != rep.Cache.Evictions+rep.Cache.CleanupEvictions {
		t.Errorf("drained %d + dropped %d != evicted %d+%d",
			rep.Host.Drained, rep.Cache.RingDrops, rep.Cache.Evictions, rep.Cache.CleanupEvictions)
	}
}

// runWithMetrics runs the standard determinism workload with metrics
// enabled at the given shard/batch setting and returns the emitted
// JSON-lines plus the final snapshot.
func runWithMetrics(shards, batch int) ([]byte, *obs.Snapshot) {
	var buf bytes.Buffer
	cfg := fullConfig(shards)
	cfg.BatchSize = batch
	cfg.Metrics = obs.NewRegistry()
	cfg.MetricsWriter = &buf
	pl := New(cfg)
	rep := pl.Run(mixedStream())
	return buf.Bytes(), rep.Metrics
}

// deterministicSubset names the series DESIGN.md §10 guarantees identical
// across shard counts: platform packet fates, FlowCache occupancy/pinning
// and ring-drop totals. (Geometry-dependent series — reads, evictions,
// per-ring breakdowns, sNIC timing — legitimately vary with shards.)
var deterministicSubset = []string{
	"packets.",
	"flowcache.occupancy",
	"flowcache.pinned",
	"flowcache.ring_drops",
}

// TestMetricsSnapshotsDeterministic checks the §10 determinism contract:
// full snapshots are byte-identical across batch sizes at fixed shards,
// and the documented deterministic subset is byte-identical across shard
// counts too.
func TestMetricsSnapshotsDeterministic(t *testing.T) {
	type run struct {
		shards, batch int
		lines         []byte
		final         *obs.Snapshot
	}
	var runs []run
	for _, shards := range []int{1, 4} {
		for _, batch := range []int{1, 64} {
			lines, final := runWithMetrics(shards, batch)
			if final == nil {
				t.Fatalf("shards=%d batch=%d: nil final snapshot", shards, batch)
			}
			if len(lines) == 0 {
				t.Fatalf("shards=%d batch=%d: no snapshot lines emitted", shards, batch)
			}
			runs = append(runs, run{shards, batch, lines, final})
		}
	}

	// Across batch sizes at fixed shards: every emitted byte identical.
	for _, shards := range []int{1, 4} {
		var base *run
		for i := range runs {
			r := &runs[i]
			if r.shards != shards {
				continue
			}
			if base == nil {
				base = r
				continue
			}
			if !bytes.Equal(base.lines, r.lines) {
				t.Errorf("shards=%d: snapshot lines differ between batch=%d and batch=%d:\n%s",
					shards, base.batch, r.batch, firstDiffLine(string(base.lines), string(r.lines)))
			}
		}
	}

	// Across shard counts: the deterministic subset of the final snapshot.
	enc := func(s *obs.Snapshot) []byte {
		var b bytes.Buffer
		if err := s.Filter(deterministicSubset...).Encode(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	base := enc(runs[0].final)
	if bytes.Contains(base, []byte(`"counters":{}`)) {
		t.Fatal("deterministic subset is empty; filter prefixes are stale")
	}
	for _, r := range runs[1:] {
		if got := enc(r.final); !bytes.Equal(base, got) {
			t.Errorf("shards=%d batch=%d: deterministic subset diverged:\n base %s\n got %s",
				r.shards, r.batch, base, got)
		}
	}
}

// TestTierMetricsMatchGolden pins every tier.<wire|nic>.* series of the
// final snapshot — names and values, the two histograms included — to what
// the per-stage pipeline instruments pushed at the last commit that had
// them (tier_metrics.golden), with and without the switch, at a chunk of
// one and at 64.
func TestTierMetricsMatchGolden(t *testing.T) {
	var got bytes.Buffer
	for _, sw := range []bool{true, false} {
		for _, batch := range []int{1, 64} {
			cfg := noSwitchConfig()
			if sw {
				cfg = fullConfig(1)
			}
			cfg.BatchSize = batch
			cfg.Metrics = obs.NewRegistry()
			rep := New(cfg).Run(mixedStream())
			fmt.Fprintf(&got, "switch=%v batch=%d ", sw, batch)
			if err := rep.Metrics.Filter("tier.").Encode(&got); err != nil {
				t.Fatal(err)
			}
		}
	}
	if want := golden(t, "tier_metrics.golden"); got.String() != want {
		t.Errorf("tier.* series diverged from golden:\n%s", firstDiffLine(want, got.String()))
	}
}

// TestMetricsDisabledReportHasNoTree: the nil-registry run must leave
// Report.Metrics nil and behave identically to an unconfigured platform.
func TestMetricsDisabledReportHasNoTree(t *testing.T) {
	pl := New(fullConfig(1))
	rep := pl.Run(mixedStream())
	if rep.Metrics != nil {
		t.Error("Report.Metrics non-nil with metrics disabled")
	}
	if pl.Metrics() != nil || pl.MetricsErr() != nil {
		t.Error("accessors must be nil/clean with metrics disabled")
	}
}

// TestMetricsMatchReport cross-checks pushed/pulled series against the
// authoritative Report fields.
func TestMetricsMatchReport(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := fullConfig(1)
	cfg.Metrics = reg
	pl := New(cfg)
	rep := pl.Run(mixedStream())
	m := rep.Metrics

	if got := m.Counter("packets.total"); got != rep.Counts.Total {
		t.Errorf("packets.total = %d, want %d", got, rep.Counts.Total)
	}
	if got := m.Counter("packets.to_snic"); got != rep.Counts.ToSNIC {
		t.Errorf("packets.to_snic = %d, want %d", got, rep.Counts.ToSNIC)
	}
	if got := m.Counter("flowcache.p_hits"); got != rep.Cache.PHits {
		t.Errorf("flowcache.p_hits = %d, want %d", got, rep.Cache.PHits)
	}
	if got := m.Counter("snic.processed"); got != rep.SNIC.Processed {
		t.Errorf("snic.processed = %d, want %d", got, rep.SNIC.Processed)
	}
	if got := m.Counter("snic.dropped"); got != rep.SNIC.Dropped {
		t.Errorf("snic.dropped = %d, want %d", got, rep.SNIC.Dropped)
	}
	if got := m.Counter("host.flush.count"); got != rep.Host.Flushes {
		t.Errorf("host.flush.count = %d, want %d", got, rep.Host.Flushes)
	}
	if got := m.Counter("bus.published.interval"); got != rep.Events.PublishedFor(tier.KindInterval) {
		t.Errorf("bus.published.interval = %d, want %d", got, rep.Events.PublishedFor(tier.KindInterval))
	}
	// The per-stage series must have seen the traffic.
	if got := m.Counter("tier.wire.ingest.packets"); got != rep.Counts.Total {
		t.Errorf("tier.wire.ingest.packets = %d, want %d", got, rep.Counts.Total)
	}
	if got := m.Counter("tier.nic.datapath.packets"); got != rep.SNIC.Processed {
		t.Errorf("tier.nic.datapath.packets = %d, want %d", got, rep.SNIC.Processed)
	}
}
