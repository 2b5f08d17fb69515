// Package smartwatch is the public API of the SmartWatch reproduction: a
// cooperative network-monitoring platform that splits work between a
// simulated P4 programmable switch (coarse aggregate queries, steering), a
// simulated SmartNIC running the FlowCache (lossless per-packet flow-state
// tracking), and a host tier (a flow store, its flow log — persisted to
// Config.FlowLogAOF when set — and one slot for a Zeek-style network
// function).
//
// Quick start (ExampleNew):
//
//	det := smartwatch.NewPortScanDetector(smartwatch.PortScanDetectorConfig{ResponseTimeoutNs: 20e6})
//	platform := smartwatch.New(smartwatch.Config{IntervalNs: 50e6, Detectors: []smartwatch.Detector{det}})
//	report, err := platform.Run(stream) // any smartwatch.Stream
//	for _, alert := range report.Alerts { fmt.Println(alert) }
//
// The package's Examples are the runnable pipelines (go test -run Example
// -v .); every name exported here is one they or the package's tests use,
// and every function one an Example runs. The multi-worker cluster, live
// sessions and sources are the smartwatch CLI's (cmd/smartwatch);
// internal/experiments holds the paper's evaluation harnesses, and
// DESIGN.md is the system map.
package smartwatch

import (
	"io"

	"smartwatch/internal/core"
	"smartwatch/internal/detect"
	"smartwatch/internal/flowcache"
	"smartwatch/internal/host"
	"smartwatch/internal/p4switch"
	"smartwatch/internal/packet"
	"smartwatch/internal/pcap"
	"smartwatch/internal/stats"
	"smartwatch/internal/trace"
)

// Packets ---------------------------------------------------------------------

// Packet is one observed packet (virtual-nanosecond timestamps).
type Packet = packet.Packet

// FiveTuple is the directional flow key.
type FiveTuple = packet.FiveTuple

// FlowKey is the canonical, direction-independent session key.
type FlowKey = packet.FlowKey

// Stream is a lazily generated, time-ordered packet sequence.
type Stream = packet.Stream

// MustParseAddr parses a dotted-quad IPv4 address and panics on error.
func MustParseAddr(s string) packet.Addr { return packet.MustParseAddr(s) }

// StreamOf adapts an in-memory trace to a Stream.
func StreamOf(pkts []Packet) Stream { return packet.StreamOf(pkts) }

// MergeStreams interleaves timestamp-ordered streams (mergecap).
func MergeStreams(streams ...Stream) Stream { return pcap.Merge(streams...) }

// Platform --------------------------------------------------------------------

// Config assembles a platform; see the field docs in internal/core.
type Config = core.Config

// New assembles a platform. Platform.Run drives a stream through it and
// returns the Report.
func New(cfg Config) *core.Platform { return core.New(cfg) }

// Switch query fields (Config.Queries).
type (
	// SwitchQuery is one Sonata-style aggregate query.
	SwitchQuery = p4switch.Query
	// Predicate is a declarative switch match filter.
	Predicate = p4switch.Predicate
)

// Switch query key and aggregation.
const (
	KeyDstIP = p4switch.KeyDstIP
	CountSYN = p4switch.CountSYN
)

// ReadFlowLog parses the append-only file a platform's Config.FlowLogAOF
// received back into per-interval records (offline forensics over a previous run). The log holds deltas:
// each interval lists the aggregates that changed in it.
func ReadFlowLog(r io.Reader) (map[int64][]host.HostRecord, error) { return host.ReadRecords(r) }

// FlowCache -------------------------------------------------------------------

// NewFlowCache builds a standalone sNIC FlowCache.
func NewFlowCache(cfg flowcache.Config) *flowcache.Cache { return flowcache.New(cfg) }

// DefaultFlowCacheConfig returns the paper's General (4,8) layout at
// 2^rowBits rows.
func DefaultFlowCacheConfig(rowBits int) flowcache.Config { return flowcache.DefaultConfig(rowBits) }

// ModeLite is the FlowCache's high-rate operating mode (Alg. 4).
const ModeLite = flowcache.Lite

// Detectors -------------------------------------------------------------------

// Detector is one in-line detector (Config.Detectors).
type Detector = detect.Detector

// Detector configurations.
type (
	// BruteForceDetectorConfig configures SSH/FTP/Kerberos guessing detection.
	BruteForceDetectorConfig = detect.BruteForceConfig
	// PortScanDetectorConfig configures TRW-based scan detection.
	PortScanDetectorConfig = detect.PortScanConfig
	// CovertTimingDetectorConfig configures KS-test timing-channel detection.
	CovertTimingDetectorConfig = detect.CovertTimingConfig
	// TRWConfig is the port-scan sequential-test operating point.
	TRWConfig = stats.TRWConfig
)

// NewBruteForceDetector builds the Zeek-assisted brute-force detector.
func NewBruteForceDetector(cfg BruteForceDetectorConfig) *detect.BruteForce {
	return detect.NewBruteForce(cfg)
}

// NewPortScanDetector builds the stealthy port-scan detector.
func NewPortScanDetector(cfg PortScanDetectorConfig) *detect.PortScan {
	return detect.NewPortScan(cfg)
}

// NewCovertTimingDetector builds the IPD-distribution detector.
func NewCovertTimingDetector(cfg CovertTimingDetectorConfig) *detect.CovertTiming {
	return detect.NewCovertTiming(cfg)
}

// NewFingerprintDetector builds the website-fingerprinting classifier:
// training maps each site label to its aggregate packet-length-distribution
// bin counts (bins equal-width buckets over [0,maxLen)); flows with at
// least minPkts observed packets are classified, and matches against the
// monitored labels raise alerts. Program selects which flows collect PLDs.
func NewFingerprintDetector(bins int, maxLen float64, minPkts uint64, training map[string][]uint64, monitored []string) (*detect.Fingerprint, error) {
	nb := stats.NewNaiveBayes(bins)
	for site, counts := range training {
		if err := nb.Train(site, counts); err != nil {
			return nil, err
		}
	}
	return detect.NewFingerprint(bins, maxLen, minPkts, nb, monitored), nil
}

// Traffic ---------------------------------------------------------------------

// Traffic configurations: a background workload and the attack injectors,
// each with ground truth.
type (
	// WorkloadConfig shapes a synthetic background workload.
	WorkloadConfig = trace.WorkloadConfig
	// BruteForceTrafficConfig drives SSH/FTP-style guessing traffic.
	BruteForceTrafficConfig = trace.BruteForceConfig
	// PortScanTrafficConfig drives an NMAP-like SYN scan.
	PortScanTrafficConfig = trace.PortScanConfig
	// CovertTimingTrafficConfig drives IPD-modulated covert channels.
	CovertTimingTrafficConfig = trace.CovertTimingConfig
	// FingerprintTrafficConfig drives per-site packet-length-signature flows.
	FingerprintTrafficConfig = trace.FingerprintConfig
)

// NewWorkload builds a reproducible background-traffic generator.
func NewWorkload(cfg WorkloadConfig) *trace.Workload { return trace.NewWorkload(cfg) }

// CAIDAWorkload returns the CAIDA-like preset for a trace year
// (2015/2016/2018/2019).
func CAIDAWorkload(year int) *trace.Workload { return trace.CAIDA(year) }

// BruteForceTraffic builds an SSH/FTP brute-force injector.
func BruteForceTraffic(cfg BruteForceTrafficConfig) trace.Injector { return trace.BruteForce(cfg) }

// PortScanTraffic builds a port-scan injector.
func PortScanTraffic(cfg PortScanTrafficConfig) trace.Injector { return trace.PortScan(cfg) }

// CovertTimingTraffic builds a covert-timing-channel injector (with
// BenignIPDSample for detector training).
func CovertTimingTraffic(cfg CovertTimingTrafficConfig) *trace.CovertTimingInjector {
	return trace.CovertTiming(cfg)
}

// FingerprintTraffic builds a website-fingerprinting workload (with
// per-flow site ground truth).
func FingerprintTraffic(cfg FingerprintTrafficConfig) *trace.FingerprintInjector {
	return trace.Fingerprint(cfg)
}
