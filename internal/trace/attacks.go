package trace

import (
	"sort"

	"smartwatch/internal/packet"
	"smartwatch/internal/stats"
)

// GroundTruth labels what an injector actually put on the wire, so the
// experiment harnesses can score detectors without re-deriving labels.
type GroundTruth struct {
	// Label names the attack ("ssh-bruteforce", "portscan", ...).
	Label string
	// Attackers are the offending remote addresses.
	Attackers []packet.Addr
	// Victims are the targeted local addresses.
	Victims []packet.Addr
	// Flows are the malicious session keys.
	Flows []packet.FlowKey
	// Extra carries attack-specific ground truth (e.g. per-burst culprit
	// flows for microbursts, per-flow site labels for fingerprinting).
	Extra map[string][]packet.FlowKey
}

// Injector is a deterministic attack-traffic generator. Stream replays the
// identical packets on every call.
type Injector interface {
	Stream() packet.Stream
	Truth() GroundTruth
}

// builder accumulates packets out of order and emits a sorted stream.
type builder struct {
	pkts []packet.Packet
	rng  *stats.Rand
}

func newBuilder(seed uint64) *builder { return &builder{rng: stats.NewRand(seed)} }

func (b *builder) add(p packet.Packet) { b.pkts = append(b.pkts, p) }

func (b *builder) stream() packet.Stream {
	sort.SliceStable(b.pkts, func(i, j int) bool { return b.pkts[i].Ts < b.pkts[j].Ts })
	return packet.StreamOf(b.pkts)
}

// handshake appends a full TCP three-way handshake for tuple starting at
// ts and returns the time after the final ACK.
func (b *builder) handshake(t packet.FiveTuple, ts int64, rttNs int64) int64 {
	seq, ack := uint32(b.rng.Uint64()), uint32(b.rng.Uint64())
	b.add(packet.Packet{Ts: ts, Tuple: t, Size: 64, Flags: packet.FlagSYN, Seq: seq})
	b.add(packet.Packet{Ts: ts + rttNs/2, Tuple: t.Reverse(), Size: 64, Flags: packet.FlagSYN | packet.FlagACK, Seq: ack, Ack: seq + 1})
	b.add(packet.Packet{Ts: ts + rttNs, Tuple: t, Size: 64, Flags: packet.FlagACK, Seq: seq + 1, Ack: ack + 1})
	return ts + rttNs
}

// data appends one data packet and returns its timestamp.
func (b *builder) data(t packet.FiveTuple, ts int64, size uint16, app packet.AppInfo) int64 {
	b.add(packet.Packet{
		Ts: ts, Tuple: t, Size: size, PayloadLen: size - 54,
		Flags: packet.FlagACK | packet.FlagPSH, App: app,
	})
	return ts
}

// auth appends the data packet that completes an authentication exchange
// with the given outcome and returns its timestamp.
func (b *builder) auth(t packet.FiveTuple, ts int64, size uint16, outcome packet.AuthOutcome) int64 {
	b.data(t, ts, size, packet.AppInfo{})
	b.pkts[len(b.pkts)-1].AuthOutcome = outcome
	return ts
}

// fin appends a connection teardown packet.
func (b *builder) fin(t packet.FiveTuple, ts int64) {
	b.add(packet.Packet{Ts: ts, Tuple: t, Size: 64, Flags: packet.FlagFIN | packet.FlagACK})
}

// ---------------------------------------------------------------------------
// Brute forcing (SSH §5.1.1; FTP and Kerberos are the paper's "similar
// attacks" with different ports/heuristics).

// BruteForceConfig drives SSH/FTP-style guessing traffic: each attacker
// opens connections to the target service and fails authentication
// repeatedly; legitimate clients authenticate successfully.
type BruteForceConfig struct {
	Seed uint64
	// Port selects the service (PortSSH or PortFTP).
	Port uint16
	// Target is the login server under attack.
	Target packet.Addr
	// Attackers is the number of distinct guessing hosts.
	Attackers int
	// AttemptsPerAttacker is how many failed logins each makes.
	AttemptsPerAttacker int
	// AttemptGap is the spacing between one attacker's attempts (ns); slow
	// attacks use large gaps to hide.
	AttemptGap int64
	// LegitClients authenticate successfully and then transfer data (the
	// flows SmartWatch whitelists).
	LegitClients int
	// LegitDataPackets is the post-auth data exchanged by each legit
	// client.
	LegitDataPackets int
	// Start offsets the first packet.
	Start int64
}

// BruteForce builds the injector.
func BruteForce(cfg BruteForceConfig) Injector {
	if cfg.Port == 0 {
		cfg.Port = PortSSH
	}
	if cfg.Attackers <= 0 {
		cfg.Attackers = 5
	}
	if cfg.AttemptsPerAttacker <= 0 {
		cfg.AttemptsPerAttacker = 6
	}
	if cfg.AttemptGap <= 0 {
		cfg.AttemptGap = 50e6 // 50 ms
	}
	if cfg.LegitDataPackets <= 0 {
		cfg.LegitDataPackets = 40
	}
	if cfg.Target == 0 {
		cfg.Target = packet.MustParseAddr("10.1.0.22")
	}
	return &bruteForce{cfg: cfg}
}

type bruteForce struct{ cfg BruteForceConfig }

func (a *bruteForce) label() string {
	if a.cfg.Port == PortFTP {
		return "ftp-bruteforce"
	}
	return "ssh-bruteforce"
}

func (a *bruteForce) Truth() GroundTruth {
	truth := GroundTruth{Label: a.label(), Victims: []packet.Addr{a.cfg.Target}}
	rng := stats.NewRand(a.cfg.Seed)
	for i := 0; i < a.cfg.Attackers; i++ {
		truth.Attackers = append(truth.Attackers, attackerAddr(rng, i))
	}
	return truth
}

func attackerAddr(rng *stats.Rand, i int) packet.Addr {
	return packet.AddrFrom4(203, byte(rng.IntN(200)), byte(i>>8), byte(i))
}

func (a *bruteForce) Stream() packet.Stream {
	cfg := a.cfg
	b := newBuilder(cfg.Seed ^ 0xb10c)
	addrRng := stats.NewRand(cfg.Seed)
	const rtt = 2e6 // 2 ms
	for i := 0; i < cfg.Attackers; i++ {
		src := attackerAddr(addrRng, i)
		ts := cfg.Start + int64(i)*3e6
		for att := 0; att < cfg.AttemptsPerAttacker; att++ {
			t := packet.FiveTuple{
				SrcIP: src, DstIP: cfg.Target,
				SrcPort: uint16(30000 + i*100 + att), DstPort: cfg.Port,
				Proto: packet.ProtoTCP,
			}
			end := b.handshake(t, ts, rtt)
			// Key exchange + a few small auth packets; the last one carries
			// the failed outcome the host-side Zeek heuristic would infer.
			end = b.data(t, end+1e6, 120, packet.AppInfo{})
			end = b.data(t.Reverse(), end+1e6, 200, packet.AppInfo{})
			end = b.auth(t, end+1e6, 96, packet.AuthFailure)
			b.fin(t, end+1e6)
			ts += cfg.AttemptGap
		}
	}
	// Legitimate clients: successful auth followed by a data session.
	// Arrivals spread across the attack window, so in cooperative
	// deployments later clients authenticate after steering has begun and
	// exercise the whitelist path.
	for i := 0; i < cfg.LegitClients; i++ {
		src := packet.AddrFrom4(100, 99, byte(i>>8), byte(i))
		t := packet.FiveTuple{
			SrcIP: src, DstIP: cfg.Target,
			SrcPort: uint16(50000 + i), DstPort: cfg.Port,
			Proto: packet.ProtoTCP,
		}
		ts := cfg.Start + int64(i+1)*(cfg.AttemptGap+7e6)
		end := b.handshake(t, ts, rtt)
		end = b.data(t, end+1e6, 120, packet.AppInfo{})
		end = b.data(t.Reverse(), end+1e6, 200, packet.AppInfo{})
		end = b.auth(t, end+1e6, 96, packet.AuthSuccess)
		for d := 0; d < cfg.LegitDataPackets; d++ {
			dir := t
			if d%3 == 0 {
				dir = t.Reverse()
			}
			end = b.data(dir, end+2e6, 512, packet.AppInfo{})
		}
		b.fin(t, end+1e6)
	}
	return b.stream()
}

// ---------------------------------------------------------------------------
// Stealthy port scan (§5.1.3).

// PortScanConfig drives an NMAP-like SYN scan hidden inside background
// traffic.
type PortScanConfig struct {
	Seed uint64
	// Scanner is the probing host.
	Scanner packet.Addr
	// Targets are the probed local hosts; generated when empty.
	Targets int
	// PortsPerTarget is how many ports are probed on each target.
	PortsPerTarget int
	// ScanDelay is the average delay between probes (ns); the paper sweeps
	// 5 ms to 300 s.
	ScanDelay int64
	// OpenFraction of probed ports answer SYN-ACK; the rest RST or stay
	// silent.
	OpenFraction float64
	// SilentFraction of closed ports send nothing back (filtered).
	SilentFraction float64
	// Start offsets the first probe.
	Start int64
}

// PortScan builds the injector.
func PortScan(cfg PortScanConfig) Injector {
	if cfg.Scanner == 0 {
		cfg.Scanner = packet.MustParseAddr("203.0.113.66")
	}
	if cfg.Targets <= 0 {
		cfg.Targets = 16
	}
	if cfg.PortsPerTarget <= 0 {
		cfg.PortsPerTarget = 16
	}
	if cfg.ScanDelay <= 0 {
		cfg.ScanDelay = 10e6
	}
	if cfg.OpenFraction == 0 {
		cfg.OpenFraction = 0.05
	}
	if cfg.SilentFraction == 0 {
		cfg.SilentFraction = 0.3
	}
	return &portScan{cfg: cfg}
}

type portScan struct{ cfg PortScanConfig }

func (a *portScan) Truth() GroundTruth {
	t := GroundTruth{Label: "portscan", Attackers: []packet.Addr{a.cfg.Scanner}}
	for i := 0; i < a.cfg.Targets; i++ {
		t.Victims = append(t.Victims, scanTarget(i))
	}
	return t
}

func scanTarget(i int) packet.Addr {
	return packet.AddrFrom4(10, 1, byte(i>>8), byte(i))
}

func (a *portScan) Stream() packet.Stream {
	cfg := a.cfg
	b := newBuilder(cfg.Seed ^ 0x5ca4)
	ts := cfg.Start
	const rtt = 1e6
	for i := 0; i < cfg.Targets; i++ {
		dst := scanTarget(i)
		for pi := 0; pi < cfg.PortsPerTarget; pi++ {
			t := packet.FiveTuple{
				SrcIP: cfg.Scanner, DstIP: dst,
				SrcPort: uint16(40000 + (i*cfg.PortsPerTarget+pi)%20000),
				DstPort: uint16(1 + b.rng.IntN(1024)),
				Proto:   packet.ProtoTCP,
			}
			seq := uint32(b.rng.Uint64())
			b.add(packet.Packet{Ts: ts, Tuple: t, Size: 64, Flags: packet.FlagSYN, Seq: seq})
			r := b.rng.Float64()
			switch {
			case r < cfg.OpenFraction:
				// Open port: SYN-ACK back, scanner resets.
				b.add(packet.Packet{Ts: ts + rtt/2, Tuple: t.Reverse(), Size: 64, Flags: packet.FlagSYN | packet.FlagACK, Ack: seq + 1})
				b.add(packet.Packet{Ts: ts + rtt, Tuple: t, Size: 64, Flags: packet.FlagRST, Seq: seq + 1})
			case r < cfg.OpenFraction+cfg.SilentFraction:
				// Filtered: silence.
			default:
				// Closed: RST from target.
				b.add(packet.Packet{Ts: ts + rtt/2, Tuple: t.Reverse(), Size: 64, Flags: packet.FlagRST | packet.FlagACK, Ack: seq + 1})
			}
			// Exponential jitter around the configured scan delay.
			ts += int64(b.rng.Exp(float64(cfg.ScanDelay)))
		}
	}
	return b.stream()
}

// ---------------------------------------------------------------------------
// Forged TCP RST (§5.1.2).

// ForgedRSTConfig drives in-sequence forged-reset attacks against live
// sessions: a forged RST races genuine in-flight data.
type ForgedRSTConfig struct {
	Seed uint64
	// Sessions is the number of victim connections.
	Sessions int
	// ForgedFraction of sessions receive a forged RST; the rest close with
	// a genuine RST (no race).
	ForgedFraction float64
	// RaceGap is how long after the forged RST genuine data still arrives
	// (must be < the monitor's T=2 s window to be detectable).
	RaceGap int64
	// DataPackets per session before the reset event.
	DataPackets int
	// DuplicateRSTs is how many extra copies of each forged RST the
	// attacker retries with (spaced 1 ms apart) — duplicates are an attack
	// indicator and exercise the monitor's wheel-scan path.
	DuplicateRSTs int
	// Start offsets the first session.
	Start int64
}

// ForgedRST builds the injector.
func ForgedRST(cfg ForgedRSTConfig) Injector {
	if cfg.Sessions <= 0 {
		cfg.Sessions = 50
	}
	// ForgedFraction keeps its zero value as-is: 0 legitimately means "all
	// resets are genuine".
	if cfg.RaceGap <= 0 {
		cfg.RaceGap = 10e6 // 10 ms
	}
	if cfg.DataPackets <= 0 {
		cfg.DataPackets = 12
	}
	return &forgedRST{cfg: cfg}
}

type forgedRST struct{ cfg ForgedRSTConfig }

func (a *forgedRST) sessionTuple(i int) packet.FiveTuple {
	return packet.FiveTuple{
		SrcIP: packet.AddrFrom4(100, 50, byte(i>>8), byte(i)), DstIP: packet.AddrFrom4(10, 2, 0, byte(i)),
		SrcPort: uint16(42000 + i), DstPort: PortHTTPS, Proto: packet.ProtoTCP,
	}
}

func (a *forgedRST) forged(i int) bool {
	// Deterministic per-session coin derived from the seed.
	return stats.NewRand(a.cfg.Seed+uint64(i)*2654435761).Float64() < a.cfg.ForgedFraction
}

func (a *forgedRST) Truth() GroundTruth {
	t := GroundTruth{Label: "forged-rst"}
	for i := 0; i < a.cfg.Sessions; i++ {
		if a.forged(i) {
			t.Flows = append(t.Flows, a.sessionTuple(i).Canonical())
		}
	}
	return t
}

func (a *forgedRST) Stream() packet.Stream {
	cfg := a.cfg
	b := newBuilder(cfg.Seed ^ 0xf02d)
	for i := 0; i < cfg.Sessions; i++ {
		t := a.sessionTuple(i)
		ts := cfg.Start + int64(i)*5e6
		end := b.handshake(t, ts, 2e6)
		seq := uint32(1000)
		for d := 0; d < cfg.DataPackets; d++ {
			dir := t
			if d%2 == 1 {
				dir = t.Reverse()
			}
			end += 3e6
			b.add(packet.Packet{Ts: end, Tuple: dir, Size: 512, PayloadLen: 458, Flags: packet.FlagACK | packet.FlagPSH, Seq: seq})
			seq += 458
		}
		if a.forged(i) {
			// Forged RST (server->client direction, plausible seq), then
			// genuine data from the server inside the race window. The
			// attacker may retry the same reset several times.
			end += 2e6
			b.add(packet.Packet{Ts: end, Tuple: t.Reverse(), Size: 64, Flags: packet.FlagRST, Seq: seq})
			for dup := 1; dup <= cfg.DuplicateRSTs; dup++ {
				b.add(packet.Packet{Ts: end + int64(dup)*1e6, Tuple: t.Reverse(), Size: 64, Flags: packet.FlagRST, Seq: seq})
			}
			b.add(packet.Packet{Ts: end + cfg.RaceGap, Tuple: t.Reverse(), Size: 512, PayloadLen: 458, Flags: packet.FlagACK | packet.FlagPSH, Seq: seq})
		} else {
			// Genuine close: RST with nothing after it.
			end += 2e6
			b.add(packet.Packet{Ts: end, Tuple: t, Size: 64, Flags: packet.FlagRST, Seq: seq})
		}
	}
	return b.stream()
}

// ---------------------------------------------------------------------------
// Slowloris (§2.1.2).

// SlowlorisConfig drives a connection-exhaustion attack: many concurrent
// connections each trickling tiny header fragments.
type SlowlorisConfig struct {
	Seed uint64
	// Attacker is the single offending host (Slowloris is typically one
	// box holding hundreds of sockets).
	Attacker packet.Addr
	// Target web server.
	Target packet.Addr
	// Connections held open.
	Connections int
	// TrickleGap between 1-byte-ish header fragments per connection.
	TrickleGap int64
	// Duration of the attack.
	Duration int64
	// Start offsets the first connection.
	Start int64
}

// Slowloris builds the injector.
func Slowloris(cfg SlowlorisConfig) Injector {
	if cfg.Attacker == 0 {
		cfg.Attacker = packet.MustParseAddr("203.0.113.99")
	}
	if cfg.Target == 0 {
		cfg.Target = packet.MustParseAddr("10.1.0.80")
	}
	if cfg.Connections <= 0 {
		cfg.Connections = 200
	}
	if cfg.TrickleGap <= 0 {
		cfg.TrickleGap = 100e6
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 1e9
	}
	return &slowloris{cfg: cfg}
}

type slowloris struct{ cfg SlowlorisConfig }

func (a *slowloris) Truth() GroundTruth {
	return GroundTruth{Label: "slowloris", Attackers: []packet.Addr{a.cfg.Attacker}, Victims: []packet.Addr{a.cfg.Target}}
}

func (a *slowloris) Stream() packet.Stream {
	cfg := a.cfg
	b := newBuilder(cfg.Seed ^ 0x510e)
	// Connections open gradually across the attack window (Slowloris keeps
	// ramping as the server times old sockets out).
	connGap := cfg.Duration / int64(cfg.Connections+1)
	for c := 0; c < cfg.Connections; c++ {
		t := packet.FiveTuple{
			SrcIP: cfg.Attacker, DstIP: cfg.Target,
			SrcPort: uint16(10000 + c), DstPort: PortHTTP, Proto: packet.ProtoTCP,
		}
		ts := cfg.Start + int64(c)*connGap
		end := b.handshake(t, ts, 2e6)
		// Partial request header, then an unending trickle; the connection
		// never completes a request and never closes.
		end = b.data(t, end+1e6, 90, packet.AppInfo{})
		for trickleTs := end + cfg.TrickleGap; trickleTs < cfg.Start+cfg.Duration; trickleTs += cfg.TrickleGap {
			b.data(t, trickleTs, 60, packet.AppInfo{})
		}
	}
	return b.stream()
}

// ---------------------------------------------------------------------------
// DNS amplification (§5.1.3 "similar attacks").

// DNSAmplificationConfig drives a reflection attack: small spoofed queries,
// large responses to the victim.
type DNSAmplificationConfig struct {
	Seed uint64
	// Victim is the spoofed source (and actual response destination).
	Victim packet.Addr
	// Resolvers reflect the traffic.
	Resolvers int
	// Queries per resolver.
	Queries int
	// QuerySize/ResponseSize set the amplification factor.
	QuerySize, ResponseSize uint16
	// Gap between queries (ns).
	Gap int64
	// Start offsets the first query.
	Start int64
}

// DNSAmplification builds the injector.
func DNSAmplification(cfg DNSAmplificationConfig) Injector {
	if cfg.Victim == 0 {
		cfg.Victim = packet.MustParseAddr("10.3.0.1")
	}
	if cfg.Resolvers <= 0 {
		cfg.Resolvers = 8
	}
	if cfg.Queries <= 0 {
		cfg.Queries = 50
	}
	if cfg.QuerySize == 0 {
		cfg.QuerySize = 64
	}
	if cfg.ResponseSize == 0 {
		cfg.ResponseSize = 3000
	}
	if cfg.Gap <= 0 {
		cfg.Gap = 1e6
	}
	return &dnsAmp{cfg: cfg}
}

type dnsAmp struct{ cfg DNSAmplificationConfig }

func (a *dnsAmp) resolver(i int) packet.Addr { return packet.AddrFrom4(198, 51, 100, byte(i+1)) }

func (a *dnsAmp) Truth() GroundTruth {
	t := GroundTruth{Label: "dns-amplification", Victims: []packet.Addr{a.cfg.Victim}}
	for i := 0; i < a.cfg.Resolvers; i++ {
		t.Attackers = append(t.Attackers, a.resolver(i))
	}
	return t
}

func (a *dnsAmp) Stream() packet.Stream {
	cfg := a.cfg
	b := newBuilder(cfg.Seed ^ 0xd45a)
	for r := 0; r < cfg.Resolvers; r++ {
		res := a.resolver(r)
		ts := cfg.Start + int64(r)*100e3
		for q := 0; q < cfg.Queries; q++ {
			t := packet.FiveTuple{
				SrcIP: cfg.Victim, DstIP: res,
				SrcPort: uint16(1024 + (r*cfg.Queries+q)%60000), DstPort: PortDNS,
				Proto: packet.ProtoUDP,
			}
			b.add(packet.Packet{Ts: ts, Tuple: t, Size: cfg.QuerySize, PayloadLen: cfg.QuerySize - 42})
			b.add(packet.Packet{Ts: ts + 500e3, Tuple: t.Reverse(), Size: cfg.ResponseSize, PayloadLen: cfg.ResponseSize - 42})
			ts += cfg.Gap
		}
	}
	return b.stream()
}
