// Package smartwatch is the public API of the SmartWatch reproduction: a
// cooperative network-monitoring platform that splits work between a
// simulated P4 programmable switch (coarse aggregate queries, steering), a
// simulated SmartNIC running the FlowCache (lossless per-packet flow-state
// tracking), and a host tier (flow logging, Zeek-style network functions).
//
// Quick start:
//
//	det := smartwatch.NewPortScanDetector(smartwatch.PortScanDetectorConfig{})
//	pl := smartwatch.New(smartwatch.Config{Detectors: []smartwatch.Detector{det}})
//	report := pl.Run(trafficStream)
//	for _, a := range report.Alerts { fmt.Println(a) }
//
// See the examples/ directory for runnable pipelines, internal/experiments
// for the paper's evaluation harnesses, and DESIGN.md for the system map.
package smartwatch

import (
	"io"

	"smartwatch/internal/cluster"
	"smartwatch/internal/core"
	"smartwatch/internal/detect"
	"smartwatch/internal/flowcache"
	"smartwatch/internal/host"
	"smartwatch/internal/obs"
	"smartwatch/internal/p4switch"
	"smartwatch/internal/packet"
	"smartwatch/internal/pcap"
	"smartwatch/internal/snic"
	"smartwatch/internal/stats"
	"smartwatch/internal/tier"
	"smartwatch/internal/trace"
)

// Core packet model ---------------------------------------------------------

// Packet is one observed packet (virtual-nanosecond timestamps).
type Packet = packet.Packet

// FiveTuple is the directional flow key.
type FiveTuple = packet.FiveTuple

// FlowKey is the canonical, direction-independent session key.
type FlowKey = packet.FlowKey

// Addr is an IPv4 address.
type Addr = packet.Addr

// Stream is a lazily generated, time-ordered packet sequence.
type Stream = packet.Stream

// ParseAddr parses a dotted-quad IPv4 address.
func ParseAddr(s string) (Addr, error) { return packet.ParseAddr(s) }

// MustParseAddr is ParseAddr that panics on error.
func MustParseAddr(s string) Addr { return packet.MustParseAddr(s) }

// StreamOf adapts an in-memory trace to a Stream.
func StreamOf(pkts []Packet) Stream { return packet.StreamOf(pkts) }

// Platform ------------------------------------------------------------------

// Config assembles a platform; see the field docs in internal/core.
type Config = core.Config

// Platform is one assembled SmartWatch instance.
type Platform = core.Platform

// Report is a full platform run summary.
type Report = core.Report

// New assembles a platform.
func New(cfg Config) *Platform { return core.New(cfg) }

// Streaming sessions & sources (DESIGN.md §12) -------------------------------

// Session is a lifecycle-managed streaming drive over a platform:
// Start / Ingest / Exec / Snapshot / Drain / Close. Platform.Run is a
// thin wrapper over one. Create with Platform.NewSession.
type Session = core.Session

// SessionState is a session's, or a cluster runner's, lifecycle phase.
type SessionState = core.SessionState

// Session lifecycle phases.
const (
	SessionIdle     = core.SessionIdle
	SessionRunning  = core.SessionRunning
	SessionDraining = core.SessionDraining
	SessionDone     = core.SessionDone
	SessionFailed   = core.SessionFailed
)

// IntervalSnapshot is the per-interval delta snapshot a running session
// publishes at every interval close (Session.Snapshot).
type IntervalSnapshot = core.IntervalSnapshot

// Session lifecycle errors.
var (
	// ErrSessionClosed: the session's drive has finished.
	ErrSessionClosed = core.ErrSessionClosed
	// ErrSessionState: call outside its lifecycle phase.
	ErrSessionState = core.ErrSessionState
	// ErrSessionActive: the platform already drives another session.
	ErrSessionActive = core.ErrSessionActive
	// ErrNoSwitch: an operator blacklist on an engine without a switch.
	ErrNoSwitch = core.ErrNoSwitch
)

// Source is a lifecycle-managed packet feed (Stream/Err/Close): live
// inputs for sessions and the smartwatch -serve daemon.
type Source = packet.Source

// SourceOf adapts a plain Stream to a Source.
func SourceOf(s Stream) Source { return packet.SourceOf(s) }

// OpenPcapSource replays a whole pcap file as a Source.
func OpenPcapSource(path string) (Source, error) { return pcap.OpenFile(path) }

// FollowConfig tunes a growing-pcap tail (poll period, idle timeout,
// max frame sanity bound).
type FollowConfig = pcap.FollowConfig

// FollowPcapSource tails a growing pcap file, tolerating partial
// trailing records until the writer completes them.
func FollowPcapSource(path string, cfg FollowConfig) (Source, error) {
	return pcap.FollowFile(path, cfg)
}

// ErrIdleTimeout reports a followed pcap that stopped growing for the
// configured idle window.
var ErrIdleTimeout = pcap.ErrIdleTimeout

// TraceSourceConfig shapes a generator-backed live feed: lap repetition,
// packet budget, optional wall-clock pacing.
type TraceSourceConfig = trace.SourceConfig

// NewTraceSource builds a synthetic-workload Source.
func NewTraceSource(cfg TraceSourceConfig) *trace.Source { return trace.NewSource(cfg) }

// Cluster (DESIGN.md §14) ----------------------------------------------------

// ClusterConfig shapes a cluster runner: one shared steering tier in
// front of N independent platform workers.
type ClusterConfig = cluster.Config

// ClusterRunner drives a cluster: consistent-hash fan-out, per-worker
// ingress rings, epoch-folded control plane, merged reports.
type ClusterRunner = cluster.Runner

// ClusterReport is the merged cluster run summary (per-lane raw reports
// plus the deterministic fold).
type ClusterReport = cluster.Report

// SteerPolicy selects how the shared tier routes flows to workers.
type SteerPolicy = cluster.SteerPolicy

// Steering policies.
const (
	// SteerHash: deterministic consistent hashing on the flow key.
	SteerHash = cluster.SteerHash
	// SteerLoad: hash ownership with least-loaded spill (not reproducible).
	SteerLoad = cluster.SteerLoad
)

// ParseSteerPolicy parses "hash" or "load".
func ParseSteerPolicy(s string) (SteerPolicy, error) { return cluster.ParseSteerPolicy(s) }

// NewCluster assembles a cluster runner.
func NewCluster(cfg ClusterConfig) *ClusterRunner { return cluster.New(cfg) }

// WorkerError attributes a cluster failure to one worker lane.
type WorkerError = cluster.WorkerError

// Cluster failure and lifecycle errors.
var (
	// ErrWorkerStalled: a worker's ingress ring stayed full past the
	// configured stall timeout.
	ErrWorkerStalled = cluster.ErrWorkerStalled
	// ErrRunnerState: runner call outside its lifecycle phase.
	ErrRunnerState = cluster.ErrRunnerState
)

// SteerStats summarises the shared steering tier's fan-out.
type SteerStats = cluster.SteerStats

// IngressStats is one worker lane's queue observability.
type IngressStats = cluster.IngressStats

// FlowCache -----------------------------------------------------------------

// FlowCacheConfig shapes the sNIC FlowCache.
type FlowCacheConfig = flowcache.Config

// FlowCache is the sNIC flow-state cache (usable standalone).
type FlowCache = flowcache.Cache

// FlowRecord is one cached flow entry.
type FlowRecord = flowcache.Record

// FlowCache operating modes and policies.
const (
	ModeGeneral = flowcache.General
	ModeLite    = flowcache.Lite
	PolicyLRU   = flowcache.LRU
	PolicyLPC   = flowcache.LPC
	PolicyFIFO  = flowcache.FIFO
)

// DefaultFlowCacheConfig returns the paper's General (4,8) layout at
// 2^rowBits rows.
func DefaultFlowCacheConfig(rowBits int) FlowCacheConfig { return flowcache.DefaultConfig(rowBits) }

// NewFlowCache builds a standalone FlowCache.
func NewFlowCache(cfg FlowCacheConfig) *FlowCache { return flowcache.New(cfg) }

// ShardedFlowCache partitions the FlowCache into independent per-island
// shards (Config.Shards wires one into the platform).
type ShardedFlowCache = flowcache.Sharded

// FlowCacheControllerConfig tunes the General/Lite switchover (Alg. 4).
type FlowCacheControllerConfig = flowcache.ControllerConfig

// NewShardedFlowCache builds a standalone sharded FlowCache: shards must
// be a power of two, and total capacity equals one unsharded cache of the
// base config.
func NewShardedFlowCache(shards int, cfg FlowCacheConfig, ctl FlowCacheControllerConfig) *ShardedFlowCache {
	return flowcache.NewSharded(shards, cfg, ctl)
}

// Replacement policies (DESIGN.md §11): FlowCacheConfig.Policy selects a
// built-in by name; RegisterReplacementPolicy installs an out-of-tree one.
const (
	PolicyNameLRULPC = flowcache.PolicyNameLRULPC // seed pair: LRU in P, LPC in E (default)
	PolicyNameLRU    = flowcache.PolicyNameLRU    // LRU in both buffers
	PolicyNameS3FIFO = flowcache.PolicyNameS3FIFO // S3-FIFO adaptation: quick demotion + freq aging
)

// ReplacementPolicy picks eviction victims inside one row segment; see
// flowcache.RegisterPolicy for the contract.
type ReplacementPolicy = flowcache.ReplacementPolicy

// RegisterReplacementPolicy installs a custom policy under name, usable
// from FlowCacheConfig.Policy. Panics on duplicate or built-in names.
func RegisterReplacementPolicy(name string, factory func(FlowCacheConfig) ReplacementPolicy) {
	flowcache.RegisterPolicy(name, factory)
}

// AdaptiveControllerConfig enables the self-tuning feedback loop on the
// mode controllers (FlowCacheControllerConfig.Adaptive, DESIGN.md §11.3).
type AdaptiveControllerConfig = flowcache.AdaptiveConfig

// ControllerState is a controller's live tuning state (effective
// thresholds, scale/gap/pin knobs) as exported per shard in metrics.
type ControllerState = flowcache.ControllerState

// Observability ---------------------------------------------------------------

// MetricsRegistry is the platform's metrics tree (DESIGN.md §10). Set one
// on Config.Metrics to enable instrumentation: per-stage
// counters, FlowCache occupancy/drop series, sNIC utilisation, host flush
// depth. With Config.MetricsWriter also set, one canonical JSON snapshot
// line is emitted per monitoring interval.
type MetricsRegistry = obs.Registry

// MetricsSnapshot is one virtual-time-stamped materialisation of the tree
// (Report.Metrics carries the final one).
type MetricsSnapshot = obs.Snapshot

// NewMetricsRegistry returns an empty registry for Config.Metrics.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// Control-plane events --------------------------------------------------------

// EventBus is the typed control-plane bus tying the tiers together;
// Platform.Bus exposes the platform's own (see internal/tier).
type EventBus = tier.Bus

// Event is one typed control-plane message.
type Event = tier.Event

// Control-plane event types.
type (
	// WhitelistEvent requests a benign-flow install at the switch.
	WhitelistEvent = tier.WhitelistEvent
	// BlacklistEvent requests a source drop rule at the switch.
	BlacklistEvent = tier.BlacklistEvent
	// IntervalEvent marks the close of one monitoring interval.
	IntervalEvent = tier.IntervalEvent
	// ModeSwitchEvent reports a FlowCache shard flipping mode.
	ModeSwitchEvent = tier.ModeSwitchEvent
)

// Switch --------------------------------------------------------------------

// SwitchConfig sizes the P4 switch resources.
type SwitchConfig = p4switch.Config

// SwitchQuery is one Sonata-style aggregate query.
type SwitchQuery = p4switch.Query

// Predicate is a declarative switch match filter.
type Predicate = p4switch.Predicate

// Switch query key fields and aggregations.
const (
	KeyDstIP     = p4switch.KeyDstIP
	KeySrcIP     = p4switch.KeySrcIP
	CountPackets = p4switch.CountPackets
	CountSYN     = p4switch.CountSYN
	CountRST     = p4switch.CountRST
	SumBytes     = p4switch.SumBytes
)

// DefaultSwitchConfig returns a Tofino-like resource envelope.
func DefaultSwitchConfig() SwitchConfig { return p4switch.DefaultConfig() }

// Detectors -----------------------------------------------------------------

// Detector is one in-line detector; see NewXxxDetector constructors.
type Detector = detect.Detector

// Alert is one detection event.
type Alert = detect.Alert

// BruteForceDetectorConfig configures SSH/FTP/Kerberos guessing detection.
type BruteForceDetectorConfig = detect.BruteForceConfig

// NewBruteForceDetector builds the Zeek-assisted brute-force detector.
func NewBruteForceDetector(cfg BruteForceDetectorConfig) *detect.BruteForce {
	return detect.NewBruteForce(cfg)
}

// PortScanDetectorConfig configures TRW-based scan detection.
type PortScanDetectorConfig = detect.PortScanConfig

// NewPortScanDetector builds the stealthy port-scan detector.
func NewPortScanDetector(cfg PortScanDetectorConfig) *detect.PortScan {
	return detect.NewPortScan(cfg)
}

// ForgedRSTDetectorConfig configures forged-reset detection.
type ForgedRSTDetectorConfig = detect.ForgedRSTConfig

// NewForgedRSTDetector builds the timing-wheel forged-RST detector.
func NewForgedRSTDetector(cfg ForgedRSTDetectorConfig) *detect.ForgedRST {
	return detect.NewForgedRST(cfg)
}

// NewIncompleteFlowDetector reports sources accumulating half-open TCP
// flows.
func NewIncompleteFlowDetector(timeoutNs int64, threshold int) *detect.Incomplete {
	return detect.NewIncomplete(timeoutNs, threshold, nil)
}

// NewDNSAmplificationDetector reports reflection sessions whose response
// volume exceeds factor times the request volume.
func NewDNSAmplificationDetector(factor float64, minRespBytes uint64) *detect.DNSAmplification {
	return detect.NewDNSAmplification(factor, minRespBytes)
}

// NewWormDetector builds the EarlyBird-style invariant-content detector.
func NewWormDetector(distinctDsts int) *detect.Worm { return detect.NewWorm(distinctDsts, 0) }

// NewSSLExpiryDetector reports certificates expiring within the horizon.
func NewSSLExpiryDetector(horizonNs int64) *detect.SSLExpiry { return detect.NewSSLExpiry(horizonNs) }

// NewMicroburstDetector reports culprit flows of queue-building bursts.
func NewMicroburstDetector(thresholdNs float64) *detect.Microburst {
	return detect.NewMicroburst(thresholdNs, 0)
}

// CovertTimingDetectorConfig configures KS-test timing-channel detection.
type CovertTimingDetectorConfig = detect.CovertTimingConfig

// NewCovertTimingDetector builds the IPD-distribution detector.
func NewCovertTimingDetector(cfg CovertTimingDetectorConfig) *detect.CovertTiming {
	return detect.NewCovertTiming(cfg)
}

// NewFingerprintDetector builds the website-fingerprinting classifier:
// training maps each site label to its aggregate packet-length-distribution
// bin counts (bins equal-width buckets over [0,maxLen)); flows with at
// least minPkts observed packets are classified, and matches against the
// monitored labels raise alerts. Use Detector.Program / ProgramAll to
// select which flows collect PLDs.
func NewFingerprintDetector(bins int, maxLen float64, minPkts uint64, training map[string][]uint64, monitored []string) (*detect.Fingerprint, error) {
	nb := stats.NewNaiveBayes(bins)
	for site, counts := range training {
		if err := nb.Train(site, counts); err != nil {
			return nil, err
		}
	}
	return detect.NewFingerprint(bins, maxLen, minPkts, nb, monitored), nil
}

// Traces --------------------------------------------------------------------

// WorkloadConfig shapes a synthetic background workload.
type WorkloadConfig = trace.WorkloadConfig

// Workload generates reproducible background traffic.
type Workload = trace.Workload

// NewWorkload builds a background-traffic generator.
func NewWorkload(cfg WorkloadConfig) *Workload { return trace.NewWorkload(cfg) }

// CAIDAWorkload returns the CAIDA-like preset for a trace year
// (2015/2016/2018/2019).
func CAIDAWorkload(year int) *Workload { return trace.CAIDA(year) }

// WisconsinDCWorkload returns the datacenter-style preset.
func WisconsinDCWorkload() *Workload { return trace.WisconsinDC() }

// Attack injectors — synthetic attack traffic with ground truth, for
// evaluating detectors and regression-testing deployments.

// GroundTruth labels what an injector put on the wire.
type GroundTruth = trace.GroundTruth

// Injector is a deterministic attack-traffic generator.
type Injector = trace.Injector

// BruteForceTrafficConfig drives SSH/FTP-style guessing traffic.
type BruteForceTrafficConfig = trace.BruteForceConfig

// BruteForceTraffic builds an SSH/FTP brute-force injector.
func BruteForceTraffic(cfg BruteForceTrafficConfig) Injector { return trace.BruteForce(cfg) }

// PortScanTrafficConfig drives an NMAP-like SYN scan.
type PortScanTrafficConfig = trace.PortScanConfig

// PortScanTraffic builds a port-scan injector.
func PortScanTraffic(cfg PortScanTrafficConfig) Injector { return trace.PortScan(cfg) }

// ForgedRSTTrafficConfig drives in-sequence forged-reset attacks.
type ForgedRSTTrafficConfig = trace.ForgedRSTConfig

// ForgedRSTTraffic builds a forged-RST injector.
func ForgedRSTTraffic(cfg ForgedRSTTrafficConfig) Injector { return trace.ForgedRST(cfg) }

// CovertTimingTrafficConfig drives IPD-modulated covert channels.
type CovertTimingTrafficConfig = trace.CovertTimingConfig

// CovertTimingTraffic builds a covert-timing-channel injector (with
// BenignIPDSample for detector training).
func CovertTimingTraffic(cfg CovertTimingTrafficConfig) *trace.CovertTimingInjector {
	return trace.CovertTiming(cfg)
}

// SlowlorisTrafficConfig drives connection-exhaustion attacks.
type SlowlorisTrafficConfig = trace.SlowlorisConfig

// SlowlorisTraffic builds a Slowloris injector.
func SlowlorisTraffic(cfg SlowlorisTrafficConfig) Injector { return trace.Slowloris(cfg) }

// FingerprintTrafficConfig drives per-site packet-length-signature flows.
type FingerprintTrafficConfig = trace.FingerprintConfig

// FingerprintTraffic builds a website-fingerprinting workload (with
// per-flow site ground truth).
func FingerprintTraffic(cfg FingerprintTrafficConfig) *trace.FingerprintInjector {
	return trace.Fingerprint(cfg)
}

// MergeStreams interleaves timestamp-ordered streams (mergecap).
func MergeStreams(streams ...Stream) Stream { return pcap.Merge(streams...) }

// ShiftStream offsets every timestamp (editcap -t).
func ShiftStream(s Stream, offsetNs int64) Stream { return pcap.Shift(s, offsetNs) }

// TruncateStream caps packet sizes (tcprewrite, 64 B stress traces).
func TruncateStream(s Stream, maxBytes uint16) Stream { return pcap.Truncate(s, maxBytes) }

// Host helpers ---------------------------------------------------------------

// HostRecord is the host-side flow aggregate.
type HostRecord = host.HostRecord

// NF is a host network function behind an SR-IOV port.
type NF = host.NF

// FlowLog is the Redis-style per-interval flow datastore. Reads are
// cumulative: Scan(ts) and Get(ts, k) give every flow logged so far at its
// value as of interval ts.
type FlowLog = host.KVStore

// NewFlowLog returns a flow log; a non-nil aof gets every flushed record
// appended in a compact binary format readable by ReadFlowLog. Pass it as
// Config.KVLog to persist the platform's interval flushes.
func NewFlowLog(aof io.Writer) *FlowLog { return host.NewKVStore(aof) }

// ReadFlowLog parses an append-only flow log back into per-interval
// records (offline forensics over a previous run). The log holds deltas,
// not snapshots: each interval lists, in append order, the aggregates that
// changed in it. Replay the intervals up to T in ascending order into one
// map keyed by flow, later records overwriting earlier ones, to rebuild
// the view as of T.
func ReadFlowLog(r io.Reader) (map[int64][]HostRecord, error) { return host.ReadRecords(r) }

// SNIC hardware profiles ------------------------------------------------------

// SNICProfile is one SmartNIC hardware model.
type SNICProfile = snic.Profile

// NetronomeProfile returns the paper's testbed NIC (Agilio LX).
func NetronomeProfile() SNICProfile { return snic.Netronome() }

// BlueFieldProfile returns the Table 3 BlueField model.
func BlueFieldProfile() SNICProfile { return snic.BlueField() }

// LiquidIOProfile returns the Table 3 LiquidIO model.
func LiquidIOProfile() SNICProfile { return snic.LiquidIO() }

// Misc ------------------------------------------------------------------------

// TRWConfig is the port-scan sequential-test operating point.
type TRWConfig = stats.TRWConfig
