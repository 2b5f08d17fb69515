package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"smartwatch/internal/core"
	"smartwatch/internal/detect"
	"smartwatch/internal/flowcache"
	"smartwatch/internal/host"
	"smartwatch/internal/obs"
	"smartwatch/internal/p4switch"
	"smartwatch/internal/packet"
	"smartwatch/internal/pcap"
	"smartwatch/internal/snic"
	"smartwatch/internal/tier"
	"smartwatch/internal/trace"
)

// mixedStream regenerates the standard determinism workload from seeds:
// Zipf background plus an SSH brute-force attack (same shape as the core
// suite's, slightly shorter — the cluster sweep multiplies runs).
func mixedStream() packet.Stream {
	background := trace.NewWorkload(trace.WorkloadConfig{
		Seed: 11, Flows: 500, PacketRate: 2e6, Duration: 3e8, UDPFraction: 0.1,
	})
	attack := trace.BruteForce(trace.BruteForceConfig{
		Seed: 12, Attackers: 3, AttemptsPerAttacker: 8, AttemptGap: 20e6,
		Target: packet.MustParseAddr("10.1.0.22"),
	})
	return pcap.Merge(background.Stream(), attack.Stream())
}

func sshQueries() []p4switch.Query {
	return []p4switch.Query{{
		Name:   "ssh-conns",
		Filter: p4switch.Predicate{Proto: packet.ProtoTCP, DstPort: 22},
		Key:    p4switch.KeyDstIP, PrefixBits: 16,
		Reduce: p4switch.CountSYN, Threshold: 3, Slots: 1 << 12,
	}}
}

// detectorFactory builds a fresh detector set per worker (live detectors
// hold per-flow state and must not cross goroutines).
func detectorFactory() func() []detect.Detector {
	return func() []detect.Detector {
		return []detect.Detector{
			detect.NewBruteForce(detect.BruteForceConfig{Service: 22, Psi: 3}),
		}
	}
}

// noDropSNIC is a datapath that never drops at the input buffer: the
// single-platform oracle needs the engine handler to see every steered
// packet on both sides of the comparison (one engine at full rate would
// shed load that W quarter-rate engines would not).
func noDropSNIC() snic.Config {
	cfg := snic.DefaultConfig()
	cfg.QueueDropNs = 1e15
	return cfg
}

// clusterDump flattens the deterministic surface of a merged cluster
// report — including floats and latency quantiles — plus each lane's raw
// report. Scheduling-dependent series (ingress stalls/HWM/wakeups, merge
// wall time) are deliberately absent.
func clusterDump(rep Report) string {
	var b strings.Builder
	dumpCore := func(tag string, r *core.Report) {
		fmt.Fprintf(&b, "%s counts %+v\n", tag, r.Counts)
		fmt.Fprintf(&b, "%s snic processed=%d dropped=%d offered=%v achieved=%v busy=%v span=%v lat(p50=%v p99=%v n=%d)\n",
			tag, r.SNIC.Processed, r.SNIC.Dropped, r.SNIC.OfferedMpps, r.SNIC.AchievedMpps,
			r.SNIC.EngineBusyNs, r.SNIC.SpanNs,
			r.SNIC.Latency.Quantile(0.5), r.SNIC.Latency.Quantile(0.99), r.SNIC.Latency.N())
		fmt.Fprintf(&b, "%s cache %+v\n", tag, r.Cache)
		fmt.Fprintf(&b, "%s switch %+v\n", tag, r.SwitchStats)
		fmt.Fprintf(&b, "%s hostcpu %v switchovers %d events %+v host %+v\n",
			tag, r.HostCPUNs, r.Switchovers, r.Events, r.Host)
		fmt.Fprintf(&b, "%s rings %+v\n", tag, r.Rings)
		for i, a := range r.Alerts {
			fmt.Fprintf(&b, "%s alert[%d] %s flow=%s\n", tag, i, a.String(), a.Flow.String())
		}
	}
	dumpCore("merged", &rep.Merged)
	fmt.Fprintf(&b, "steer policy=%s offered=%d direct=%d dropped=%d per=%v imb=%v folds=%d foldedev=%d\n",
		rep.Steer.Policy, rep.Steer.Offered, rep.Steer.Direct, rep.Steer.Dropped,
		rep.Steer.PerWorker, rep.Steer.Imbalance, rep.Steer.Folds, rep.Steer.FoldedEvents)
	for i := range rep.Workers {
		dumpCore(fmt.Sprintf("w%d", i), &rep.Workers[i])
	}
	return b.String()
}

// workerKVDump renders one platform's flow log, map order neutralised.
func workerKVDump(pl *core.Platform) string {
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

// unionKVDump renders the lane-union flow log: per interval timestamp,
// the sorted union of every worker's records — which, under the
// partition split, must equal the single platform's flow log exactly.
// Intervals with no records are skipped on both sides of the comparison.
func unionKVDump(pls []*core.Platform) string {
	byTs := map[int64][]string{}
	var order []int64
	for _, pl := range pls {
		for _, ts := range pl.KV().Intervals() {
			if _, seen := byTs[ts]; !seen {
				order = append(order, ts)
			}
			pl.KV().Scan(ts, func(hr host.HostRecord) bool {
				byTs[ts] = append(byTs[ts], fmt.Sprintf("%s pkts=%d bytes=%d first=%d last=%d",
					hr.Key.String(), hr.Pkts, hr.Bytes, hr.FirstTs, hr.LastTs))
				return true
			})
		}
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	var b strings.Builder
	for _, ts := range order {
		lines := byTs[ts]
		if len(lines) == 0 {
			continue
		}
		sort.Strings(lines)
		fmt.Fprintf(&b, "interval %d\n  %s\n", ts, strings.Join(lines, "\n  "))
	}
	return b.String()
}

func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			return fmt.Sprintf("line %d:\n  want %q\n  got  %q", i, w[i], g[i])
		}
	}
	return fmt.Sprintf("lengths differ: want %d lines, got %d", len(w), len(g))
}

// oracleAConfig is the hazard-rich sweep config: switch + queries +
// brute-force feedback, so whitelist/blacklist folds actually reprogram
// the shared switch mid-run.
func oracleAConfig(workers, batch int) Config {
	return Config{
		Workers: workers,
		Worker: core.Config{
			EnableSwitch: true,
			Queries:      sshQueries(),
			IntervalNs:   20e6,
			BatchSize:    batch,
		},
		Detectors:   detectorFactory(),
		QueueBatch:  64,
		SyncPackets: 1024,
	}
}

// TestClusterParallelMatchesSequential is oracle A: the parallel cluster
// drive must be byte-identical — floats, latency quantiles, per-lane
// reports, per-lane flow logs — to the sequential reference drive of the
// same topology, across a Workers × BatchSize sweep, on traffic that
// exercises the blacklist/whitelist fold hazards. A worker runs one shard
// (s1 in the row names). The last row closes an epoch every 64 steered
// packets with 256-packet handoff buffers, so lanes see epochs in which
// they were issued nothing and every buffer is a partial one.
func TestClusterParallelMatchesSequential(t *testing.T) {
	for _, w := range []int{2, 4} {
		for _, sc := range []struct{ batch, sync, queue int }{
			{1, 0, 0}, {256, 0, 0}, {64, 64, 256},
		} {
			name := fmt.Sprintf("w%d_s1_b%d", w, sc.batch)
			if sc.sync > 0 {
				name += fmt.Sprintf("_sync%d_q%d", sc.sync, sc.queue)
			}
			t.Run(name, func(t *testing.T) {
				run := func(sequential bool) (Report, string) {
					cfg := oracleAConfig(w, sc.batch)
					if sc.sync > 0 {
						cfg.SyncPackets, cfg.QueueBatch = sc.sync, sc.queue
					}
					cfg.Sequential = sequential
					r := New(cfg)
					rep, err := r.Run(mixedStream())
					if err != nil {
						t.Fatalf("sequential=%v: %v", sequential, err)
					}
					dump := clusterDump(rep)
					for i, pl := range r.Workers() {
						dump += fmt.Sprintf("kv[w%d]\n", i) + workerKVDump(pl)
					}
					if err := r.Close(); err != nil {
						t.Fatalf("close: %v", err)
					}
					return rep, dump
				}
				_, want := run(true)
				rep, got := run(false)
				if got != want {
					t.Errorf("parallel drive diverged from sequential reference:\n%s", firstDiff(want, got))
				}
				// Hazard assertions: the sweep is only meaningful if
				// detector feedback actually folded into the shared switch
				// and the switch acted on it.
				if rep.Merged.Events.PublishedFor(tier.KindBlacklist) == 0 {
					t.Error("no blacklist events published; hazard not exercised")
				}
				if rep.Merged.SwitchStats.BlacklistHits == 0 {
					t.Error("no blacklist hits at the shared switch; fold not exercised")
				}
				if rep.Steer.FoldedEvents == 0 {
					t.Error("no events folded into the shared switch")
				}
			})
		}
	}
}

// TestOneWorkerRunnerIsThePlatform: with one worker the runner adds
// nothing around it — the worker runs the template's switch, queries,
// registry and metrics writer with the factory's detectors, on the
// caller's goroutine — so its report (floats and quantiles included),
// alerts, flow log and metrics stream are byte-identical to core.New
// driven through a session, detector feedback reaching the switch on the
// next packet.
func TestOneWorkerRunnerIsThePlatform(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for _, batch := range []int{1, 64} {
			t.Run(fmt.Sprintf("s%d_b%d", shards, batch), func(t *testing.T) {
				template := func(metrics *bytes.Buffer) core.Config {
					return core.Config{
						EnableSwitch: true, Queries: sshQueries(), IntervalNs: 20e6,
						Shards: shards, BatchSize: batch, SNIC: noDropSNIC(),
						Metrics: obs.NewRegistry(), MetricsWriter: metrics,
					}
				}
				var wantMetrics, gotMetrics bytes.Buffer
				cfg := template(&wantMetrics)
				cfg.Detectors = detectorFactory()()
				single := core.New(cfg)
				srep, err := single.Run(mixedStream())
				if err != nil {
					t.Fatal(err)
				}

				wc := template(&gotMetrics)
				r := New(Config{Workers: 1, Worker: wc, Detectors: detectorFactory()})
				crep, err := r.Run(mixedStream())
				if err != nil {
					t.Fatal(err)
				}
				// Only the merged report: a platform has no steering tallies.
				want, got := clusterDump(Report{Merged: srep}), clusterDump(Report{Merged: crep.Merged})
				if got != want {
					t.Errorf("report diverged from the platform:\n%s", firstDiff(want, got))
				}
				if srep.SwitchStats.BlacklistHits == 0 || len(srep.Alerts) == 0 {
					t.Errorf("no blacklist drops (%d) or no alerts (%d); feedback not exercised",
						srep.SwitchStats.BlacklistHits, len(srep.Alerts))
				}
				if gotKV, wantKV := unionKVDump(r.Workers()), unionKVDump([]*core.Platform{single}); gotKV != wantKV {
					t.Errorf("flow log diverged:\n%s", firstDiff(wantKV, gotKV))
				}
				if wantMetrics.Len() == 0 || gotMetrics.String() != wantMetrics.String() {
					t.Errorf("metrics stream diverged (%d bytes, platform %d):\n%s",
						gotMetrics.Len(), wantMetrics.Len(), firstDiff(wantMetrics.String(), gotMetrics.String()))
				}
				if err := r.Close(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestClusterMatchesSinglePlatformSteering is oracle B, variant (a):
// switch + queries, no detectors (pure steering, no feedback). The
// merged integer surface — packet counts, full FlowCache stats, switch
// counters, rings, flow-log union — must equal a single platform sharded
// Workers ways. A worker runs one shard (s1 in the row names).
func TestClusterMatchesSinglePlatformSteering(t *testing.T) {
	for _, w := range []int{2, 4} {
		t.Run(fmt.Sprintf("w%d_s1", w), func(t *testing.T) {
			single := core.New(core.Config{
				EnableSwitch: true, Queries: sshQueries(), IntervalNs: 20e6,
				Shards: w, BatchSize: 64, SNIC: noDropSNIC(),
			})
			srep, err := single.Run(mixedStream())
			if err != nil {
				t.Fatal(err)
			}

			r := New(Config{
				Workers: w,
				Worker: core.Config{
					EnableSwitch: true, Queries: sshQueries(), IntervalNs: 20e6,
					BatchSize: 64, SNIC: noDropSNIC(),
				},
				QueueBatch: 64, SyncPackets: 2048,
			})
			crep, err := r.Run(mixedStream())
			if err != nil {
				t.Fatal(err)
			}
			m := crep.Merged

			if srep.SNIC.Dropped != 0 || m.SNIC.Dropped != 0 {
				t.Fatalf("oracle requires a drop-free datapath: single dropped %d, cluster %d",
					srep.SNIC.Dropped, m.SNIC.Dropped)
			}
			if m.Counts != srep.Counts {
				t.Errorf("counts diverged:\n single %+v\n merged %+v", srep.Counts, m.Counts)
			}
			if m.SNIC.Processed != srep.SNIC.Processed {
				t.Errorf("processed: single %d, merged %d", srep.SNIC.Processed, m.SNIC.Processed)
			}
			if m.Cache != srep.Cache {
				t.Errorf("cache stats diverged:\n single %+v\n merged %+v", srep.Cache, m.Cache)
			}
			if m.SwitchStats != srep.SwitchStats {
				t.Errorf("switch stats diverged:\n single %+v\n merged %+v", srep.SwitchStats, m.SwitchStats)
			}
			if m.Switchovers != srep.Switchovers {
				t.Errorf("switchovers: single %d, merged %d", srep.Switchovers, m.Switchovers)
			}
			if rings, want := fmt.Sprintf("%+v", m.Rings), fmt.Sprintf("%+v", srep.Rings); rings != want {
				t.Errorf("rings diverged:\n single %s\n merged %s", want, rings)
			}
			wantKV := unionKVDump([]*core.Platform{single})
			gotKV := unionKVDump(r.Workers())
			if gotKV != wantKV {
				t.Errorf("flow-log union diverged from single platform:\n%s", firstDiff(wantKV, gotKV))
			}
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
			if err := single.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestClusterMatchesSinglePlatformDetectors is oracle B, variant (b): no
// switch tier, with the forged-RST detector (bloom disabled — its
// uniqueness filter is cross-flow via false positives; everything else
// about the detector is strictly per-flow, so the partition must
// reproduce the single platform's reactions, alerts and counts exactly).
func TestClusterMatchesSinglePlatformDetectors(t *testing.T) {
	stream := func() packet.Stream {
		background := trace.NewWorkload(trace.WorkloadConfig{
			Seed: 21, Flows: 300, PacketRate: 1e6, Duration: 3e8,
		})
		rst := trace.ForgedRST(trace.ForgedRSTConfig{
			Seed: 22, Sessions: 40, ForgedFraction: 0.5, RaceGap: 10e6,
		})
		return pcap.Merge(background.Stream(), rst.Stream())
	}
	factory := func() []detect.Detector {
		return []detect.Detector{
			detect.NewForgedRST(detect.ForgedRSTConfig{TNs: 50e6, DisableBloom: true}),
		}
	}
	alertDump := func(alerts []detect.Alert) string {
		lines := make([]string, len(alerts))
		for i, a := range alerts {
			lines[i] = a.String() + " flow=" + a.Flow.String()
		}
		sort.Strings(lines)
		return strings.Join(lines, "\n")
	}

	for _, w := range []int{2, 4} {
		t.Run(fmt.Sprintf("w%d_s1", w), func(t *testing.T) {
			single := core.New(core.Config{
				IntervalNs: 20e6, Shards: w, BatchSize: 64,
				SNIC: noDropSNIC(), Detectors: factory(),
			})
			srep, err := single.Run(stream())
			if err != nil {
				t.Fatal(err)
			}

			r := New(Config{
				Workers: w,
				Worker: core.Config{
					IntervalNs: 20e6, BatchSize: 64, SNIC: noDropSNIC(),
				},
				Detectors:  factory,
				QueueBatch: 64, SyncPackets: 2048,
			})
			crep, err := r.Run(stream())
			if err != nil {
				t.Fatal(err)
			}
			m := crep.Merged

			if m.Counts != srep.Counts {
				t.Errorf("counts diverged:\n single %+v\n merged %+v", srep.Counts, m.Counts)
			}
			if m.Cache != srep.Cache {
				t.Errorf("cache stats diverged:\n single %+v\n merged %+v", srep.Cache, m.Cache)
			}
			if got, want := alertDump(m.Alerts), alertDump(srep.Alerts); got != want {
				t.Errorf("alerts diverged:\n%s", firstDiff(want, got))
			}
			if len(m.Alerts) == 0 {
				t.Error("no forged-RST alerts; detector hazard not exercised")
			}
			wantKV := unionKVDump([]*core.Platform{single})
			gotKV := unionKVDump(r.Workers())
			if gotKV != wantKV {
				t.Errorf("flow-log union diverged:\n%s", firstDiff(wantKV, gotKV))
			}
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
			if err := single.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestClusterTalliesPublishedPerVector: the router counts each vector in
// plain fields and publishes per vector, so between vectors Ingested is
// exact, a reader polling it while Ingest runs (the -serve status
// endpoint) sees it grow without ever passing what has been offered, and
// at the end every offered packet is accounted to one verdict or one lane.
func TestClusterTalliesPublishedPerVector(t *testing.T) {
	r := New(oracleAConfig(2, 64))
	defer r.Close()
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	var offered atomic.Uint64 // raised before the vector goes in
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for last := uint64(0); ; {
			select {
			case <-stop:
				return
			default:
			}
			got := r.Ingested()
			if got < last || got > offered.Load() {
				t.Errorf("Ingested went %d -> %d with %d offered", last, got, offered.Load())
				return
			}
			last = got
			runtime.Gosched()
		}
	}()
	for b := range packet.BufferedBatches(mixedStream(), 100) {
		want := offered.Add(uint64(len(b)))
		if err := r.Ingest(b); err != nil {
			t.Fatal(err)
		}
		if got := r.Ingested(); got != want {
			t.Fatalf("Ingested = %d after %d packets went in", got, want)
		}
	}
	close(stop)
	<-done
	rep, err := r.Drain()
	if err != nil {
		t.Fatal(err)
	}
	st := rep.Steer
	sum := st.Direct + st.Dropped
	for _, n := range st.PerWorker {
		sum += n
	}
	if st.Offered != offered.Load() || sum != st.Offered || st.Direct == 0 || st.Dropped == 0 {
		t.Errorf("offered %d: report %+v accounts for %d", offered.Load(), st, sum)
	}
}

// TestClusterIngestDoesNotAllocate: once every flow is resident and every
// buffer in circulation, a two-worker Ingest — steering, the handoff to
// both feeders, epoch closes and the feeders' drives — allocates nothing.
// The switch steers every destination /16 of the vector to the workers;
// the vector is re-timed forward on each run and no interval closes.
func TestClusterIngestDoesNotAllocate(t *testing.T) {
	r := New(Config{
		Workers: 2,
		Worker: core.Config{
			EnableSwitch: true,
			Queries: []p4switch.Query{{
				Name: "all", Key: p4switch.KeyDstIP, PrefixBits: 16,
				Reduce: p4switch.CountPackets, Threshold: 1, Slots: 64,
			}},
			IntervalNs: 1e15, BatchSize: 64,
		},
		Detectors:   detectorFactory(),
		QueueBatch:  64,
		SyncPackets: 1024,
	})
	defer r.Close()
	var pkts []packet.Packet
	for p := range mixedStream() {
		fk := p4switch.FiredKey{Query: "all", Key: p.Tuple.DstIP.Prefix(16), PrefixBits: 16}
		if err := r.Switch().Steer(fk); err != nil {
			t.Fatal(err)
		}
		if pkts = append(pkts, p); len(pkts) == 8192 {
			break
		}
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	span := pkts[len(pkts)-1].Ts - pkts[0].Ts + 1
	ingest := func() {
		if err := r.Ingest(pkts); err != nil {
			t.Fatal(err)
		}
		for i := range pkts {
			pkts[i].Ts += span
		}
	}
	for i := 0; i < 4; i++ {
		ingest()
	}
	if n := testing.AllocsPerRun(20, ingest); n != 0 {
		t.Errorf("Ingest allocates %v times a vector of %d packets", n, len(pkts))
	}
}

// TestClusterMetricsTree checks the merged metric tree: the runner's
// cluster.* series plus each worker's tree under "worker.N.", all from the
// one registry the template carries.
func TestClusterMetricsTree(t *testing.T) {
	cfg := oracleAConfig(2, 64)
	cfg.Worker.Metrics = obs.NewRegistry()
	r := New(cfg)
	rep, err := r.Run(mixedStream())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	snap := rep.Merged.Metrics
	if snap == nil {
		t.Fatal("no merged metrics snapshot")
	}
	if snap.Counters["cluster.steer.offered"] != rep.Steer.Offered {
		t.Errorf("cluster.steer.offered = %d, want %d",
			snap.Counters["cluster.steer.offered"], rep.Steer.Offered)
	}
	for _, name := range []string{"worker.0.packets.total", "worker.1.packets.total"} {
		if snap.Counters[name] == 0 {
			t.Errorf("missing grafted worker series %s", name)
		}
	}
	// Where the router waited: present, whatever the scheduler made of them.
	for _, name := range []string{"cluster.sync.wait_ns", "cluster.worker.0.ingress.wait_ns", "cluster.worker.1.ingress.wait_ns"} {
		if _, ok := snap.Counters[name]; !ok {
			t.Errorf("missing router wait series %s", name)
		}
	}
}

// TestMergeSnapshotPublishedWhole: a /metrics or expvar reader encodes
// the cluster registry's LastSnapshot while Drain merges. The merge used to
// publish the final snapshot and only then graft the worker trees into its
// maps: a concurrent map write under the reader's iteration, which -race
// reports and the runtime may kill the process for. No snapshot is
// written after Registry.Snapshot returns it. Run under -race -count=10
// (make cluster).
func TestMergeSnapshotPublishedWhole(t *testing.T) {
	reg := obs.NewRegistry()
	r := New(Config{Workers: 2, Worker: core.Config{IntervalNs: 20e6, Metrics: reg}, QueueBatch: 64})
	defer r.Close()
	var stop atomic.Bool
	defer stop.Store(true)
	done := make(chan struct{})
	go func() { // the HTTP reader
		defer close(done)
		for !stop.Load() {
			s := reg.LastSnapshot()
			if _, err := json.Marshal(s); err != nil {
				t.Error(err)
				return
			}
			if s != nil && s.Counters["worker.1.packets.total"] > 0 {
				return // the merged snapshot, read whole
			}
			runtime.Gosched()
		}
	}()
	src := trace.NewWorkload(trace.WorkloadConfig{Seed: 11, Flows: 200, PacketRate: 1e6, Duration: 1e8})
	rep, err := r.Run(src.Stream())
	if err != nil {
		t.Fatal(err)
	}
	<-done
	if last := reg.LastSnapshot(); last != rep.Merged.Metrics || last.Counters["worker.0.packets.total"] == 0 {
		t.Errorf("last published snapshot is not the merged tree: %p vs %p", last, rep.Merged.Metrics)
	}
}

// TestNewRejectsDuplicateQueryNames: the router's switch refuses two
// queries of one name, and New panics on it as core.New does.
func TestNewRejectsDuplicateQueryNames(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New accepted two queries named ssh-conns")
		}
	}()
	New(Config{Workers: 2, Worker: core.Config{EnableSwitch: true, Queries: append(sshQueries(), sshQueries()...)}})
}

// TestNewRejectsSharedFlowLogAOF: each worker keeps its own flow log, so
// one append-only file cannot take them all; New panics on it as it does
// on shared live detectors.
func TestNewRejectsSharedFlowLogAOF(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New accepted one Worker.FlowLogAOF for two workers")
		}
	}()
	New(Config{Workers: 2, Worker: core.Config{FlowLogAOF: io.Discard}})
}

// TestNewRejectsShardedWorkers: partitioning is the cluster's job, so a
// worker runs one FlowCache; New panics on a sharded worker template
// instead of splitting each worker's table again.
func TestNewRejectsShardedWorkers(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New accepted Worker.Shards 2 for two workers")
		}
	}()
	New(Config{Workers: 2, Worker: core.Config{Shards: 2}})
}

// TestNewRejectsWorkersWithoutRowBits: a split that leaves a worker no
// row bit panics, where core.New would read the worker's RowBits 0 as
// its default table.
func TestNewRejectsWorkersWithoutRowBits(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New accepted RowBits 2 for four workers")
		}
	}()
	New(Config{Workers: 4, Worker: core.Config{Cache: flowcache.DefaultConfig(2)}})
}
