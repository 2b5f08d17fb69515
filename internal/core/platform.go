// Package core assembles the SmartWatch platform: the P4 switch tier
// steering suspicious subsets, the simulated sNIC running the FlowCache
// and in-line detectors, the host tier aggregating flow logs and running
// NFs, and the control loop closing the system (query firing -> steering,
// detector verdicts -> whitelist/blacklist, arrival rate -> FlowCache mode
// switchovers).
//
// The packet path is said once (DESIGN.md §7): consume (batch.go) counts
// the packet, runs the timers due before it and steers it at the switch;
// a steered packet is stepped through the sNIC engine, which calls
// tierHandler — FlowCache, detectors, reactions, host NF delivery. The
// control loop is four methods here too: whitelist, blacklist, Unpin and
// endInterval apply their edges by direct calls (DESIGN.md §7.3) and then
// publish the typed event on a tier.Bus, the observer list metrics, the
// cluster uplink, tests and the benchmark attach to.
//
// The drive is a push (DESIGN.md §13.1): Session.Start opens the sNIC
// engine, ingestVector runs one caller-supplied packet vector to
// completion and endDrive performs the final flush. All three run on the
// goroutine of whoever called Session.Start / Ingest / Drain.
package core

import (
	"io"
	"math"
	"sync/atomic"

	"smartwatch/internal/detect"
	"smartwatch/internal/flowcache"
	"smartwatch/internal/host"
	"smartwatch/internal/obs"
	"smartwatch/internal/p4switch"
	"smartwatch/internal/packet"
	"smartwatch/internal/snic"
	"smartwatch/internal/tier"
)

// Config assembles a platform.
type Config struct {
	// Cache is the FlowCache layout (DefaultConfig(rowBits) if zero).
	Cache flowcache.Config
	// Controller tunes the General/Lite switchover (Alg. 4).
	Controller flowcache.ControllerConfig
	// Shards partitions the FlowCache into independent per-island slices
	// (power of two; 0 or 1 means unsharded). Total capacity is invariant:
	// each shard gets RowBits-log2(Shards) row bits. A cluster worker runs
	// one shard: cluster.New refuses Shards > 1 at Workers > 1.
	Shards int
	// SNIC is the datapath simulation config.
	SNIC snic.Config
	// EnableSwitch turns the P4 switch tier on; without it every packet
	// goes through the sNIC (the "SmartWatch (No P4Switch)" deployment of
	// Fig. 3).
	EnableSwitch bool
	// Switch sizes the switch resources.
	Switch p4switch.Config
	// Queries is the initial switch query set.
	Queries []p4switch.Query
	// IntervalNs is the monitoring interval (paper: 5 s; experiments use
	// shorter virtual intervals).
	IntervalNs int64
	// TickNs is the detector/CME timer period.
	TickNs int64
	// HostCost is the host CPU cost model.
	HostCost host.CostModel
	// Detectors are the in-line detectors to run.
	Detectors []detect.Detector
	// FlowLogAOF, when set, is the flow log's append-only file: every
	// flush appends the records it changed (smartwatch.ReadFlowLog parses
	// it).
	FlowLogAOF io.Writer
	// BatchSize drains ingest in vectors of this many packets (DESIGN.md
	// §7.1): the drive pre-computes flow hashes per vector, amortises the
	// platform counters and FlowCache stat updates across it, and splits
	// it at every timer boundary so batching never reorders control-plane
	// work relative to a vector of one — reports stay byte-identical.
	// 0 or 1 is a vector of one packet.
	BatchSize int
	// Metrics, when set, instruments every tier into this registry and
	// snapshots it at each interval close (DESIGN.md §15). nil disables
	// metrics entirely — the hot paths then pay only nil-check branches.
	Metrics *obs.Registry
	// MetricsWriter, when set alongside Metrics, receives one JSON-lines
	// snapshot per monitoring interval plus the final end-of-run snapshot.
	MetricsWriter io.Writer
}

// Platform is one assembled SmartWatch instance.
type Platform struct {
	cfg       Config
	bus       *tier.Bus
	cache     *flowcache.Sharded
	sw        *p4switch.Switch
	store     *host.FlowStore
	kv        *host.KVStore
	ports     *host.Ports
	detectors *detect.Chain
	alerts    []detect.Alert

	flusher *host.Flusher
	// steer is the switch tier's per-packet step (nil without a switch).
	steer *p4switch.SteerStage

	// The drive's vector state (batch.go): ctxs is the context vector of
	// the chunk being consumed, BatchSize long and reused for every chunk;
	// cur is the context of the packet inside engine.Step, whose flow
	// identity tierHandler probes the FlowCache with; classes, the
	// switch's classes of the chunk (with a switch). batchAcc absorbs
	// FlowCache stat deltas between sub-batch flushes.
	ctxs     []tier.Context
	cur      *tier.Context
	classes  []p4switch.Class
	batchAcc flowcache.BatchAcc

	// clock is the latest timestamp maybeTick was offered.
	clock, nextInterval, nextTick int64
	counts                        atomicCounts

	// metrics / emitter / nicQueueDelay implement the observability layer
	// (nil when Config.Metrics is unset); engine is the platform's sNIC
	// simulator, constructed once in New so thread-scheduler and dispatch
	// state persist across drives (segmented runs equal one-shot runs) and
	// so the metrics collector can sample live datapath counters at any
	// time.
	metrics       *obs.Registry
	emitter       *obs.Emitter
	nicQueueDelay *obs.Histogram
	engine        *snic.Engine

	// sessionBusy guards the at-most-one live streaming session
	// (session.go); Run is itself a session internally.
	sessionBusy atomic.Bool
}

// Counts aggregates platform-level packet accounting.
type Counts struct {
	// Total packets offered to the platform.
	Total uint64
	// ForwardedDirect bypassed the sNIC entirely (switch fast path).
	ForwardedDirect uint64
	// DroppedAtSwitch were blacklisted.
	DroppedAtSwitch uint64
	// ToSNIC entered the bump-in-the-wire path.
	ToSNIC uint64
	// ToHost were additionally processed by a host NF.
	ToHost uint64
	// Blocked were consumed by an IPS verdict on the sNIC.
	Blocked uint64
	// Intervals completed.
	Intervals uint64
}

// atomicCounts is the accumulator behind Counts: the drive bumps it while
// metrics collectors and observers on other goroutines read it, so every
// field is atomic. snapshot() materialises the exported plain struct.
type atomicCounts struct {
	total, forwardedDirect, droppedAtSwitch atomic.Uint64
	toSNIC, toHost, blocked, intervals      atomic.Uint64
	// Hostile time (maybeTick); metrics only, not part of Counts.
	timeJumps, timeRegressions atomic.Uint64
}

func (c *atomicCounts) snapshot() Counts {
	return Counts{
		Total:           c.total.Load(),
		ForwardedDirect: c.forwardedDirect.Load(),
		DroppedAtSwitch: c.droppedAtSwitch.Load(),
		ToSNIC:          c.toSNIC.Load(),
		ToHost:          c.toHost.Load(),
		Blocked:         c.blocked.Load(),
		Intervals:       c.intervals.Load(),
	}
}

// New assembles a platform.
func New(cfg Config) *Platform {
	if cfg.Cache.RowBits == 0 {
		cfg.Cache = flowcache.DefaultConfig(12)
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.SNIC.Profile.ClockHz == 0 {
		cfg.SNIC = snic.DefaultConfig()
	}
	if cfg.IntervalNs <= 0 {
		cfg.IntervalNs = 100e6
	}
	if cfg.TickNs <= 0 {
		cfg.TickNs = cfg.IntervalNs / 10
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 1
	}
	pl := &Platform{cfg: cfg, bus: tier.NewBus()}
	pl.cache = flowcache.NewSharded(cfg.Shards, cfg.Cache, cfg.Controller)
	pl.store = host.NewFlowStore(cfg.HostCost)
	pl.kv = host.NewKVStore(pl.store, cfg.FlowLogAOF)
	pl.ports = host.NewPorts(pl.store)
	pl.detectors = detect.NewChain(cfg.Detectors...)
	// The one place a detector gets its hooks: every detector with a
	// SetHooks method (ForgedRST, PortScan, Incomplete, LowSlow, and the
	// wrappers that forward it) acts on the platform from Tick work. At
	// W > 1 each cluster worker's platform runs this for its own detectors.
	for _, d := range cfg.Detectors {
		if hd, ok := d.(interface{ SetHooks(detect.Hooks) }); ok {
			hd.SetHooks(pl)
		}
	}
	if cfg.EnableSwitch {
		pl.steer = p4switch.NewSteerStage(cfg.Switch, cfg.Queries)
		pl.sw = pl.steer.SW
	}
	pl.flusher = &host.Flusher{KV: pl.kv, Rings: pl.cache.Rings()}
	pl.nextInterval = cfg.IntervalNs
	pl.nextTick = cfg.TickNs
	// The engine lives as long as the platform: sequential drives continue
	// from its thread-scheduler/dispatch state exactly as they continue from the
	// FlowCache, so a trace split across segments reproduces the one-shot
	// drive (TestSegmentedRunMatchesOneShot).
	pl.engine = snic.New(cfg.SNIC, pl.tierHandler)
	// Mode flips surface as events (observability; nothing reacts).
	pl.cache.OnModeSwitch = func(shard int, m flowcache.Mode, rate float64, ts int64) {
		tier.Publish(pl.bus, tier.ModeSwitchEvent{Shard: shard, Mode: m, Rate: rate, Ts: ts}, 0)
	}
	pl.ctxs = make([]tier.Context, cfg.BatchSize)
	if pl.steer != nil {
		pl.classes = make([]p4switch.Class, cfg.BatchSize)
	}
	if cfg.Metrics != nil {
		pl.instrumentMetrics()
	}
	return pl
}

// Bus exposes the control-plane observer list (metrics, the cluster
// uplink, tests, the benchmark).
func (pl *Platform) Bus() *tier.Bus { return pl.bus }

// Cache exposes the (sharded) FlowCache; at Shards=1 it behaves exactly
// like the plain cache did.
func (pl *Platform) Cache() *flowcache.Sharded { return pl.cache }

// Switch exposes the P4 switch tier (nil when disabled).
func (pl *Platform) Switch() *p4switch.Switch { return pl.sw }

// Store exposes the host flow store.
func (pl *Platform) Store() *host.FlowStore { return pl.store }

// KV exposes the flow log.
func (pl *Platform) KV() *host.KVStore { return pl.kv }

// Ports exposes the host NF slot for attaching a function.
func (pl *Platform) Ports() *host.Ports { return pl.ports }

// Control actions ---------------------------------------------------------
//
// Each applies its edges in order, then publishes the event with the
// number of edges applied (BusStats.Delivered). tierHandler's verdicts,
// the detect.Hooks methods and the operator's Session calls all land here;
// endInterval is the fourth action.

// whitelist installs a switch fast-path entry for k, when there is a
// switch (a full table only costs the fast path, and delivers no entry),
// then releases k's pin.
func (pl *Platform) whitelist(k packet.FlowKey, origin string) {
	applied := uint64(1)
	if pl.sw != nil && pl.sw.Whitelist(k) == nil {
		applied++
	}
	pl.cache.Unpin(k)
	tier.Publish(pl.bus, tier.WhitelistEvent{Key: k, Origin: origin}, applied)
}

// blacklist installs a switch drop rule for source a, when there is a
// switch.
func (pl *Platform) blacklist(a packet.Addr, origin string) {
	var applied uint64
	if pl.sw != nil {
		pl.sw.Blacklist(a)
		applied++
	}
	tier.Publish(pl.bus, tier.BlacklistEvent{Addr: a, Origin: origin}, applied)
}

// Unpin implements detect.Hooks: it releases k's pin (only a detector's
// hook unpins through an event; a verdict unpins in tierHandler).
func (pl *Platform) Unpin(k packet.FlowKey) {
	pl.cache.Unpin(k)
	tier.Publish(pl.bus, tier.UnpinEvent{Key: k, Origin: "hooks"}, 1)
}

// Blacklist implements detect.Hooks.
func (pl *Platform) Blacklist(a packet.Addr) { pl.blacklist(a, "hooks") }

// -------------------------------------------------------------------------

// AdvanceClock runs every detector tick and interval close due at or
// before ts, exactly as the arrival of a packet stamped ts would. The
// cluster runner calls it (through Session.Exec, so it lands between
// vectors) on each worker before draining: workers
// only see their steered substream, so without this a worker whose last
// packet predates the global maximum timestamp would close fewer
// intervals than its peers and the merged flow log would disagree with
// the single-platform drive on final-flush timestamps.
func (pl *Platform) AdvanceClock(ts int64) { pl.maybeTick(ts) }

// maxCatchUp is how many periods of a timer tick walks one by one.
const maxCatchUp = 1 << 16

// maybeTick runs timer work due at or before ts; the test is all a packet
// of an ordered capture pays.
func (pl *Platform) maybeTick(ts int64) {
	if ts < pl.clock || ts >= pl.nextTick || ts >= pl.nextInterval {
		pl.tick(ts)
		return
	}
	pl.clock = ts
}

// tick is maybeTick's slow path and the Session -> Platform hostile-time
// contract (the engine, the interval stamps and the wheel have their own):
// a timestamp behind the clock runs nothing (core.time_regressions); one
// more than maxCatchUp ticks or intervals ahead — a corrupt capture record
// — runs that timer once, at its last boundary at or before ts, not once
// per period of the gap (core.time_jumps), and timers carry on from there.
func (pl *Platform) tick(ts int64) {
	if ts < pl.clock {
		pl.counts.timeRegressions.Add(1)
		return
	}
	// One period short of the end of time, so next + period exists.
	ts = min(ts, math.MaxInt64-max(pl.cfg.TickNs, pl.cfg.IntervalNs))
	pl.clock = ts
	pl.counts.timeJumps.Add(skipAhead(ts, &pl.nextTick, pl.cfg.TickNs) | skipAhead(ts, &pl.nextInterval, pl.cfg.IntervalNs))
	for ts >= pl.nextTick {
		pl.detectors.Tick(pl.nextTick)
		pl.alerts = append(pl.alerts, pl.detectors.Drain()...)
		pl.nextTick += pl.cfg.TickNs
	}
	for ts >= pl.nextInterval {
		pl.endInterval(pl.nextInterval)
		pl.nextInterval += pl.cfg.IntervalNs
	}
}

// skipAhead moves *next to its last boundary at or before ts when that is
// more than maxCatchUp periods on, and returns 1 if it did, else 0.
func skipAhead(ts int64, next *int64, period int64) uint64 {
	if ts < *next || (ts-*next)/period <= maxCatchUp {
		return 0
	}
	*next += (ts - *next) / period * period
	return 1
}

// endInterval is the control-loop heartbeat: the switch steers fired
// subsets, the host drains rings and flushes the flow log, in that order;
// then the event goes to its observers (the metrics emit first).
func (pl *Platform) endInterval(ts int64) {
	seq := pl.counts.intervals.Add(1)
	applied := uint64(1)
	if pl.sw != nil {
		pl.sw.CloseInterval(pl.steer.Tracker)
		applied++
	}
	pl.flusher.OnInterval(ts)
	tier.Publish(pl.bus, tier.IntervalEvent{Ts: ts, Seq: seq}, applied)
}

// tierHandler is the sNIC tier, called by the engine inside Step: FlowCache
// update (with per-shard rate observation), detector fan-out, reactions,
// host NF delivery. Control-plane reactions (whitelist, blacklist) run as
// control actions, which publish their event; datapath-local ones (pin,
// unpin) act directly on the cache. The flow identity is the one consume
// prepped for the whole chunk (pl.cur); stat deltas accumulate in
// batchAcc, flushed per sub-batch.
func (pl *Platform) tierHandler(p *packet.Packet, sctx snic.Ctx) snic.Cost {
	pl.nicQueueDelay.Observe(sctx.QueueDelayNs)
	hash, k := pl.cur.Hash, pl.cur.Key
	rec, res := pl.cache.ObserveProcessHashed(p, hash, k, &pl.batchAcc)
	// SR-IOV deliveries of this packet: a punted packet a detector also
	// forwards is delivered twice, as on the hardware.
	var toHost uint64
	if rec == nil && res.Outcome == flowcache.HostPunt {
		// No sNIC record possible: the host takes the packet whole.
		pl.ports.Deliver(p)
		toHost++
	}
	sctx.FlowHash, sctx.Pinned = hash, res.Pinned
	v, cycles := pl.detectors.Inspect(p, rec, sctx)
	if v&detect.VPin != 0 {
		pl.cache.Pin(k)
	}
	if v&detect.VUnpin != 0 {
		pl.cache.Unpin(k)
	}
	if v&detect.VWhitelist != 0 {
		pl.whitelist(k, "detector")
	}
	if v&detect.VBlacklistSrc != 0 {
		pl.blacklist(p.Tuple.SrcIP, "detector")
	}
	if v&detect.VToHost != 0 {
		pl.ports.Deliver(p)
		toHost++
	}
	if toHost > 0 {
		pl.counts.toHost.Add(toHost)
	}
	drop := v&detect.VDrop != 0
	if drop {
		pl.counts.blocked.Add(1)
	}
	return snic.Cost{Reads: res.Reads, Writes: res.Writes, ExtraCycles: cycles, Drop: drop}
}

// Report is a full platform run summary.
type Report struct {
	Counts Counts
	SNIC   snic.Report
	Cache  flowcache.Stats
	Alerts []detect.Alert
	// SwitchStats is zero-valued when the switch tier is disabled.
	SwitchStats p4switch.SwitchStats
	// HostCPUNs is the modelled host CPU time consumed.
	HostCPUNs float64
	// Switchovers counts FlowCache mode flips (summed across shards).
	Switchovers uint64
	// Events summarises control-plane events and their delivery.
	Events tier.BusStats
	// Rings is the per-ring eviction-ring breakdown (depth at run end +
	// cumulative overflow drops); Cache.RingDrops is its drop total.
	Rings []flowcache.RingStat
	// Host summarises the host flusher's interval work.
	Host host.FlusherStats
	// FlowLogErr is non-nil when a flow-log flush failed (a failing
	// Config.FlowLogAOF writer): the persisted log is incomplete. The drive
	// does not stop for it; the rest of the Report is valid.
	FlowLogErr error
	// Metrics is the final metrics snapshot (nil when Config.Metrics is
	// unset), stamped at the final flush's interval timestamp.
	Metrics *obs.Snapshot
}

// Run replays the stream through the full platform and returns the
// report. Each call continues from the platform's current state (the
// FlowCache, the sNIC engine's thread ring, the flow log), so
// multi-interval experiments can call Run repeatedly with consecutive
// trace segments. Each Run ends with a flow-log flush that snapshots the
// records still resident in the FlowCache under that flush's interval
// timestamp; per-interval analytics are exact, and the final flush of a
// monitoring session is the authoritative lossless aggregate.
//
// Since the session refactor (DESIGN.md §13) Run is a thin wrapper over a
// Session: it starts one, feeds the stream through Ingest in recycled
// 512-packet vectors, and drains. With no Exec calls in flight this is
// byte-identical to the pre-session drive — the determinism suite holds it
// to that.
//
// Run returns an error when the drive could not start (another session
// is live on the platform: ErrSessionActive) or failed. A flow-log write
// failure is not one: it comes back in Report.FlowLogErr with a nil error.
func (pl *Platform) Run(s packet.Stream) (Report, error) {
	ses := pl.NewSession()
	if err := ses.Start(); err != nil {
		return Report{}, err
	}
	for b := range packet.BufferedBatches(s, 512) {
		if err := ses.Ingest(b); err != nil {
			// The drive failed: Drain releases the platform and names the cause.
			_, err = ses.Drain()
			return Report{}, err
		}
	}
	rep, err := ses.Drain()
	if err != nil && rep.FlowLogErr == nil {
		return rep, err
	}
	return rep, nil
}

// endDrive closes the drive: final interval close, lossless flow-log
// flush, report assembly.
func (pl *Platform) endDrive() Report {
	rep := pl.engine.End()
	// Final interval close, then the lossless flow-log flush: every record
	// still resident in the FlowCache is exported exactly once, so evicted
	// epochs plus the final snapshot account for every processed packet.
	// (Real deployments export per-interval snapshot deltas; the aggregate
	// is identical.) The resident count sizes the host's store once; it
	// reads every row header, as the snapshot walk does.
	pl.maybeTick(pl.nextInterval)
	pl.alerts = append(pl.alerts, pl.detectors.Drain()...)
	pl.flusher.FinalFlush(pl.nextInterval, pl.cache.Occupancy(), pl.cache.Snapshot)

	out := Report{
		Counts: pl.counts.snapshot(), SNIC: rep, Cache: pl.cache.Stats(),
		Alerts:      pl.alerts,
		HostCPUNs:   pl.store.CPUNs(),
		Switchovers: pl.cache.Switchovers(),
		Events:      pl.bus.Stats(),
		Rings:       pl.cache.RingStats(),
		Host:        pl.flusher.Stats(),
		FlowLogErr:  pl.flusher.Err(),
	}
	if pl.sw != nil {
		out.SwitchStats = pl.sw.Stats()
	}
	if pl.metrics != nil {
		// Final snapshot, stamped at the final flush's interval close; it
		// also lands on MetricsWriter so the JSON-lines log is complete.
		if pl.cfg.MetricsWriter != nil {
			pl.emitter.Emit(pl.nextInterval)
			out.Metrics = pl.metrics.LastSnapshot()
		} else {
			out.Metrics = pl.metrics.Snapshot(pl.nextInterval)
		}
	}
	return out
}

// Close reports whether the platform can be let go: ErrSessionActive
// while a session is live, nil otherwise. The platform owns no goroutines
// (a drive runs on its caller's), so there is nothing to release; Close
// exists so embedders — the serve control plane, tests, benchmarks — have
// one call that refuses to abandon a running session.
func (pl *Platform) Close() error {
	if pl.sessionBusy.Load() {
		return ErrSessionActive
	}
	return nil
}
