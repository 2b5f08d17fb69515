// Package trace synthesises the evaluation workloads of the SmartWatch
// paper: CAIDA-like backbone backgrounds (presets per trace year),
// a Wisconsin-style datacenter mix, and injectors for every attack the
// paper detects (SSH/FTP brute forcing, stealthy port scans, forged TCP
// RSTs, Slowloris, DNS amplification, covert timing channels, website
// fingerprints, microbursts, worms, Kerberos ticket abuse, expiring SSL
// certificates, incomplete TCP flows).
//
// Real CAIDA/Wisconsin traces are not redistributable, so the generators
// reproduce the three properties the paper's FlowCache design explicitly
// depends on (§3.2): a few large flows carry most packets, many small
// flows contend for hash rows, and elephant flows arrive in bursts. Every
// generator is deterministic for a given seed and streams packets lazily,
// so traces of any length replay identically without being stored.
package trace

import (
	"smartwatch/internal/packet"
	"smartwatch/internal/stats"
)

// Common well-known service ports used across generated traffic.
const (
	PortFTP      = 21
	PortSSH      = 22
	PortDNS      = 53
	PortHTTP     = 80
	PortKerberos = 88
	PortHTTPS    = 443
)

// WorkloadConfig parameterises a background traffic generator.
type WorkloadConfig struct {
	// Seed makes the workload reproducible; every call to Stream replays
	// the identical packet sequence.
	Seed uint64
	// Flows is the number of distinct background sessions.
	Flows int
	// ZipfS is the skew of packets across flows (higher = heavier
	// elephants). CAIDA-like traffic sits near 1.1–1.3.
	ZipfS float64
	// PacketRate is the average rate, per second of virtual time, at
	// which a flow fires: a mouse fires one packet, an elephant a
	// back-to-back train of mean MeanBurst packets. The packet rate is
	// therefore above PacketRate, by how many fires land on elephants.
	PacketRate float64
	// Duration is the trace length in virtual nanoseconds.
	Duration int64
	// MeanBurst is the mean back-to-back packet train length when a flow
	// fires (elephant flows arrive in bursts).
	MeanBurst float64
	// UDPFraction is the share of flows that are UDP (DNS-like).
	UDPFraction float64
	// Servers is the number of distinct server endpoints; servers are
	// spread across ServerPrefixes.
	Servers int
	// ServerPrefixes are /16 networks that server addresses are drawn
	// from. Defaults to a small spread of networks when empty.
	ServerPrefixes []packet.Addr
	// SmallSize/LargeSize and SmallFraction shape the packet size mix
	// (mice near 64–128 B, elephants near MTU).
	SmallSize, LargeSize uint16
	SmallFraction        float64
}

func (c *WorkloadConfig) withDefaults() WorkloadConfig {
	cfg := *c
	if cfg.Flows <= 0 {
		cfg.Flows = 10000
	}
	if cfg.ZipfS == 0 {
		cfg.ZipfS = 1.2
	}
	if cfg.PacketRate <= 0 {
		cfg.PacketRate = 1e6
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 1e9
	}
	if cfg.MeanBurst < 1 {
		cfg.MeanBurst = 4
	}
	if cfg.Servers <= 0 {
		cfg.Servers = max(1, cfg.Flows/64)
	}
	if len(cfg.ServerPrefixes) == 0 {
		cfg.ServerPrefixes = []packet.Addr{
			packet.MustParseAddr("10.1.0.0"),
			packet.MustParseAddr("10.2.0.0"),
			packet.MustParseAddr("172.16.0.0"),
			packet.MustParseAddr("192.168.0.0"),
		}
	}
	if cfg.SmallSize == 0 {
		cfg.SmallSize = 80
	}
	if cfg.LargeSize == 0 {
		cfg.LargeSize = 1400
	}
	if cfg.SmallFraction == 0 {
		cfg.SmallFraction = 0.55
	}
	return cfg
}

// Year presets approximate the evolution of the CAIDA traces used in the
// paper (2015–2019): year over year, more flows, heavier tails and higher
// rates.
func yearPreset(year int) WorkloadConfig {
	base := WorkloadConfig{Seed: uint64(year), Duration: 1e9}
	switch year {
	case 2015:
		base.Flows, base.ZipfS, base.PacketRate, base.MeanBurst = 20000, 1.05, 0.8e6, 3
	case 2016:
		base.Flows, base.ZipfS, base.PacketRate, base.MeanBurst = 30000, 1.10, 1.0e6, 3.5
	case 2018:
		base.Flows, base.ZipfS, base.PacketRate, base.MeanBurst = 50000, 1.20, 1.5e6, 4
	case 2019:
		base.Flows, base.ZipfS, base.PacketRate, base.MeanBurst = 65000, 1.25, 1.8e6, 5
	default:
		base.Flows, base.ZipfS, base.PacketRate, base.MeanBurst = 40000, 1.15, 1.2e6, 4
	}
	base.UDPFraction = 0.12
	return base
}

// CAIDA returns the CAIDA-like preset for one of the paper's trace years
// (2015, 2016, 2018, 2019; other years interpolate to a generic preset).
func CAIDA(year int) *Workload { return NewWorkload(yearPreset(year)) }

// WisconsinDC returns a datacenter-style preset after Benson et al. (IMC
// '10): fewer, burstier flows with strong ON/OFF behaviour and a bimodal
// packet-size mix — the background for the port-scan and microburst
// experiments.
func WisconsinDC() *Workload {
	return NewWorkload(WorkloadConfig{
		Seed: 2010, Flows: 8000, ZipfS: 1.4, PacketRate: 1.2e6,
		Duration: 1e9, MeanBurst: 12, UDPFraction: 0.05,
		SmallFraction: 0.45,
	})
}

// flowState is the compact per-flow generator state.
type flowState struct {
	tuple packet.FiveTuple
	phase uint8 // 0 = needs SYN, 1 = needs SYN-ACK, 2 = needs ACK, 3 = established
	seq   uint32
	ack   uint32
	large bool // elephant: biased to large packets
}

// Workload generates a reproducible background packet stream.
type Workload struct {
	cfg WorkloadConfig
}

// NewWorkload validates the configuration and returns a generator.
func NewWorkload(cfg WorkloadConfig) *Workload {
	c := cfg.withDefaults()
	return &Workload{cfg: c}
}

// Config returns the effective (defaulted) configuration.
func (w *Workload) Config() WorkloadConfig { return w.cfg }

// buildFlows deterministically lays out the flow population.
func (w *Workload) buildFlows(rng *stats.Rand) []flowState {
	cfg := w.cfg
	servers := make([]packet.FiveTuple, cfg.Servers)
	servicePorts := []uint16{PortHTTP, PortHTTPS, PortHTTPS, PortSSH, PortDNS, 8080, 3306}
	for i := range servers {
		prefix := cfg.ServerPrefixes[rng.IntN(len(cfg.ServerPrefixes))]
		servers[i] = packet.FiveTuple{
			DstIP:   prefix | packet.Addr(rng.IntN(1<<16)),
			DstPort: servicePorts[rng.IntN(len(servicePorts))],
		}
	}
	flows := make([]flowState, cfg.Flows)
	for i := range flows {
		srv := servers[rng.IntN(len(servers))]
		proto := packet.ProtoTCP
		dport := srv.DstPort
		if rng.Float64() < cfg.UDPFraction {
			proto = packet.ProtoUDP
			dport = PortDNS
		}
		flows[i] = flowState{
			tuple: packet.FiveTuple{
				SrcIP:   packet.AddrFrom4(100, byte(rng.IntN(64)), byte(rng.IntN(256)), byte(rng.IntN(256))),
				DstIP:   srv.DstIP,
				SrcPort: uint16(20000 + rng.IntN(40000)),
				DstPort: dport,
				Proto:   proto,
			},
			seq: uint32(rng.Uint64()),
			ack: uint32(rng.Uint64()),
			// Zipf rank 0..k-1 are elephants; mark the head of the
			// population (flows are indexed by Zipf rank).
			large: i < cfg.Flows/50+1,
		}
	}
	return flows
}

// Stream returns the lazily generated packet stream. Each call replays the
// identical sequence for the configured seed.
func (w *Workload) Stream() packet.Stream {
	cfg := w.cfg
	return func(yield func(packet.Packet) bool) {
		rng := stats.NewRand(cfg.Seed)
		flows := w.buildFlows(rng)
		zipf := stats.NewZipf(rng, len(flows), cfg.ZipfS)
		meanGapNs := 1e9 / cfg.PacketRate

		ts := int64(0)
		for ts < cfg.Duration {
			fi := zipf.Sample()
			f := &flows[fi]
			burst := 1
			if f.large {
				// Geometric burst with the configured mean.
				for rng.Float64() < 1-1/cfg.MeanBurst {
					burst++
				}
			}
			for b := 0; b < burst && ts < cfg.Duration; b++ {
				p, done := w.nextPacket(rng, f, ts)
				if !yield(p) {
					return
				}
				if done {
					// Session reached a natural close; restart it as a new
					// connection from a fresh ephemeral port.
					f.tuple.SrcPort = uint16(20000 + rng.IntN(40000))
					f.phase = 0
				}
				// Packets inside a burst are back-to-back (tens of ns);
				// bursts are spaced by the exponential arrival process.
				if b+1 < burst {
					ts += 40 + int64(rng.IntN(40))
				}
			}
			ts += int64(rng.Exp(meanGapNs))
		}
	}
}

// nextPacket advances one flow's session state machine and emits its next
// packet. done reports a completed session (FIN sent).
func (w *Workload) nextPacket(rng *stats.Rand, f *flowState, ts int64) (packet.Packet, bool) {
	cfg := w.cfg
	size := cfg.SmallSize
	if f.large && rng.Float64() > cfg.SmallFraction {
		size = cfg.LargeSize
	} else if !f.large && rng.Float64() > 0.85 {
		size = cfg.LargeSize / 2
	}
	p := packet.Packet{Ts: ts, Tuple: f.tuple, Size: size}
	if f.tuple.Proto != packet.ProtoTCP {
		p.PayloadLen = size - 42
		// Occasionally reverse direction for DNS-style request/response.
		if rng.Float64() < 0.45 {
			p.Tuple = p.Tuple.Reverse()
		}
		return p, false
	}
	switch f.phase {
	case 0:
		p.Flags, p.Seq, p.Size = packet.FlagSYN, f.seq, 64
		f.phase = 1
	case 1:
		p.Tuple = p.Tuple.Reverse()
		p.Flags, p.Seq, p.Ack, p.Size = packet.FlagSYN|packet.FlagACK, f.ack, f.seq+1, 64
		f.phase = 2
	case 2:
		p.Flags, p.Seq, p.Ack, p.Size = packet.FlagACK, f.seq+1, f.ack+1, 64
		f.phase = 3
	default:
		payload := uint32(size) - 54
		p.PayloadLen = uint16(payload)
		p.Flags = packet.FlagACK | packet.FlagPSH
		if rng.Float64() < 0.35 {
			// Server-to-client data.
			p.Tuple = p.Tuple.Reverse()
			p.Seq, p.Ack = f.ack+1, f.seq+1
			f.ack += payload
		} else {
			p.Seq, p.Ack = f.seq+1, f.ack+1
			f.seq += payload
		}
		// Sessions close with small probability, recycling the flow slot.
		// Kept rare so elephant flows stay long-lived, preserving the
		// heavy-tail property the FlowCache experiments depend on.
		if rng.Float64() < 0.0003 {
			p.Flags |= packet.FlagFIN
			return p, true
		}
	}
	return p, false
}
