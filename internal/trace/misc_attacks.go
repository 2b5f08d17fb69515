package trace

import (
	"smartwatch/internal/packet"
	"smartwatch/internal/stats"
)

// Remaining injectors: microbursts, EarlyBird-style worms, Kerberos ticket
// abuse, expiring SSL certificates, and TCP incomplete flows.

// MicroburstConfig drives short congestion events: at each burst time a set
// of culprit flows dumps packets into a sub-200 µs window toward one
// server, the workload of Fig. 11a.
type MicroburstConfig struct {
	Seed uint64
	// Bursts is the number of burst events.
	Bursts int
	// FlowsPerBurst culprit flows participate in each event.
	FlowsPerBurst int
	// PacketsPerFlow within the burst window.
	PacketsPerFlow int
	// BurstSpan is the width of each burst (ns); microbursts are < 200 µs.
	BurstSpan int64
	// Gap between burst events (ns).
	Gap int64
	// ClosePairEvery, when positive, makes every Nth burst follow its
	// predecessor after only CloseGap instead of Gap — the sub-100 µs
	// inter-burst gaps reported by Zhang et al. (IMC '17) that conflate
	// bursts under low classification thresholds.
	ClosePairEvery int
	// CloseGap is the spacing of close pairs (ns).
	CloseGap int64
	// Start offsets the first burst.
	Start int64
}

// Microburst builds the injector.
func Microburst(cfg MicroburstConfig) *MicroburstInjector {
	if cfg.Bursts <= 0 {
		cfg.Bursts = 20
	}
	if cfg.FlowsPerBurst <= 0 {
		cfg.FlowsPerBurst = 30
	}
	if cfg.PacketsPerFlow <= 0 {
		cfg.PacketsPerFlow = 8
	}
	if cfg.BurstSpan <= 0 {
		cfg.BurstSpan = 150e3 // 150 µs
	}
	if cfg.Gap <= 0 {
		cfg.Gap = 20e6
	}
	if cfg.CloseGap <= 0 {
		cfg.CloseGap = 2e6
	}
	return &MicroburstInjector{cfg: cfg}
}

// MicroburstInjector generates burst events with known culprit flows.
type MicroburstInjector struct{ cfg MicroburstConfig }

// BurstWindow returns the [start,end) of burst event b.
func (a *MicroburstInjector) BurstWindow(b int) (int64, int64) {
	start := a.cfg.Start
	for i := 1; i <= b; i++ {
		if a.cfg.ClosePairEvery > 0 && i%a.cfg.ClosePairEvery == 0 {
			start += a.cfg.CloseGap
		} else {
			start += a.cfg.Gap
		}
	}
	return start, start + a.cfg.BurstSpan
}

func (a *MicroburstInjector) burstFlow(b, f int) packet.FiveTuple {
	return packet.FiveTuple{
		SrcIP: packet.AddrFrom4(100, 60, byte(b), byte(f)), DstIP: packet.AddrFrom4(10, 6, 0, byte(b%4)),
		SrcPort: uint16(25000 + b*100 + f), DstPort: PortHTTP, Proto: packet.ProtoTCP,
	}
}

// Truth records per-burst culprit flows in Extra["burst-N"].
func (a *MicroburstInjector) Truth() GroundTruth {
	t := GroundTruth{Label: "microburst", Extra: map[string][]packet.FlowKey{}}
	for b := 0; b < a.cfg.Bursts; b++ {
		key := burstName(b)
		for f := 0; f < a.cfg.FlowsPerBurst; f++ {
			t.Extra[key] = append(t.Extra[key], a.burstFlow(b, f).Canonical())
		}
	}
	return t
}

func burstName(b int) string {
	const digits = "0123456789"
	return "burst-" + string([]byte{digits[(b/10)%10], digits[b%10]})
}

// Stream generates the burst traffic.
func (a *MicroburstInjector) Stream() packet.Stream {
	cfg := a.cfg
	b := newBuilder(cfg.Seed ^ 0xb845)
	for ev := 0; ev < cfg.Bursts; ev++ {
		start, _ := a.BurstWindow(ev)
		total := cfg.FlowsPerBurst * cfg.PacketsPerFlow
		step := cfg.BurstSpan / int64(total+1)
		// Flows interleave round-robin across the burst, as concurrent
		// senders do: every flow has packets throughout the event.
		i := 0
		for p := 0; p < cfg.PacketsPerFlow; p++ {
			for f := 0; f < cfg.FlowsPerBurst; f++ {
				t := a.burstFlow(ev, f)
				ts := start + int64(i)*step
				b.add(packet.Packet{Ts: ts, Tuple: t, Size: 1400, PayloadLen: 1346, Flags: packet.FlagACK | packet.FlagPSH})
				i++
			}
		}
	}
	return b.stream()
}

// ---------------------------------------------------------------------------
// EarlyBird-style worm propagation.

// WormConfig drives worm traffic: infected hosts spray an identical payload
// signature at many distinct destinations, the content-invariance signal
// the EarlyBird detector keys on.
type WormConfig struct {
	Seed uint64
	// InfectedHosts spraying the payload.
	InfectedHosts int
	// TargetsPerHost probed by each infected host.
	TargetsPerHost int
	// Signature is the invariant payload signature; derived from Seed when
	// zero.
	Signature uint64
	// Gap between probes per host (ns).
	Gap int64
	// Start offsets the first probe.
	Start int64
}

// Worm builds the injector.
func Worm(cfg WormConfig) Injector {
	if cfg.InfectedHosts <= 0 {
		cfg.InfectedHosts = 4
	}
	if cfg.TargetsPerHost <= 0 {
		cfg.TargetsPerHost = 64
	}
	if cfg.Signature == 0 {
		cfg.Signature = packet.Hash64(cfg.Seed | 1)
	}
	if cfg.Gap <= 0 {
		cfg.Gap = 2e6
	}
	return &worm{cfg: cfg}
}

type worm struct{ cfg WormConfig }

func (a *worm) host(i int) packet.Addr { return packet.AddrFrom4(100, 90, 0, byte(i+1)) }

func (a *worm) Truth() GroundTruth {
	t := GroundTruth{Label: "worm"}
	for i := 0; i < a.cfg.InfectedHosts; i++ {
		t.Attackers = append(t.Attackers, a.host(i))
	}
	return t
}

func (a *worm) Stream() packet.Stream {
	cfg := a.cfg
	b := newBuilder(cfg.Seed ^ 0x3043)
	for h := 0; h < cfg.InfectedHosts; h++ {
		src := a.host(h)
		ts := cfg.Start + int64(h)*500e3
		for tg := 0; tg < cfg.TargetsPerHost; tg++ {
			dst := packet.AddrFrom4(10, 7, byte(tg>>8), byte(tg))
			t := packet.FiveTuple{SrcIP: src, DstIP: dst, SrcPort: uint16(30000 + tg), DstPort: 445, Proto: packet.ProtoTCP}
			end := b.handshake(t, ts, 1e6)
			b.add(packet.Packet{
				Ts: end + 1e6, Tuple: t, Size: 512, PayloadLen: 458,
				Flags: packet.FlagACK | packet.FlagPSH,
				App:   packet.AppInfo{PayloadSig: cfg.Signature},
			})
			ts += cfg.Gap
		}
	}
	return b.stream()
}

// ---------------------------------------------------------------------------
// Kerberos ticket abuse.

// KerberosConfig drives excessive ticket-granting requests from a
// compromised principal (Zeek's Kerberos monitoring use case).
type KerberosConfig struct {
	Seed uint64
	// Abusers requesting tickets at high rate.
	Abusers int
	// RequestsPerAbuser ticket requests each.
	RequestsPerAbuser int
	// KDC address.
	KDC packet.Addr
	// Gap between requests (ns).
	Gap int64
	// Start offsets the first request.
	Start int64
}

// Kerberos builds the injector.
func Kerberos(cfg KerberosConfig) Injector {
	if cfg.Abusers <= 0 {
		cfg.Abusers = 3
	}
	if cfg.RequestsPerAbuser <= 0 {
		cfg.RequestsPerAbuser = 40
	}
	if cfg.KDC == 0 {
		cfg.KDC = packet.MustParseAddr("10.1.0.88")
	}
	if cfg.Gap <= 0 {
		cfg.Gap = 10e6
	}
	return &kerberos{cfg: cfg}
}

type kerberos struct{ cfg KerberosConfig }

func (a *kerberos) abuser(i int) packet.Addr { return packet.AddrFrom4(100, 91, 0, byte(i+1)) }

func (a *kerberos) Truth() GroundTruth {
	t := GroundTruth{Label: "kerberos-abuse", Victims: []packet.Addr{a.cfg.KDC}}
	for i := 0; i < a.cfg.Abusers; i++ {
		t.Attackers = append(t.Attackers, a.abuser(i))
	}
	return t
}

func (a *kerberos) Stream() packet.Stream {
	cfg := a.cfg
	b := newBuilder(cfg.Seed ^ 0x6e4b)
	for h := 0; h < cfg.Abusers; h++ {
		src := a.abuser(h)
		ts := cfg.Start + int64(h)*1e6
		for r := 0; r < cfg.RequestsPerAbuser; r++ {
			t := packet.FiveTuple{SrcIP: src, DstIP: cfg.KDC, SrcPort: uint16(33000 + r), DstPort: PortKerberos, Proto: packet.ProtoUDP}
			b.add(packet.Packet{Ts: ts, Tuple: t, Size: 200, PayloadLen: 158})
			// AS-REP / TGS-REP with a failure outcome: repeated
			// pre-auth-failed responses characterise brute forcing.
			b.add(packet.Packet{Ts: ts + 300e3, Tuple: t.Reverse(), Size: 180, PayloadLen: 138,
				AuthOutcome: packet.AuthFailure})
			ts += cfg.Gap
		}
	}
	return b.stream()
}

// ---------------------------------------------------------------------------
// Expiring SSL certificates.

// SSLExpiryConfig drives TLS handshakes presenting certificates close to
// (or past) expiry — the Zeek "expiring certs" policy.
type SSLExpiryConfig struct {
	Seed uint64
	// Servers presenting certificates.
	Servers int
	// ExpiringFraction of servers present certificates expiring within
	// Horizon; the rest are long-lived.
	ExpiringFraction float64
	// Horizon is the "expiring soon" threshold (ns of virtual time).
	Horizon int64
	// HandshakesPerServer observed.
	HandshakesPerServer int
	// HandshakeGap spaces one server's handshakes (default 400 µs).
	HandshakeGap int64
	// ServerBase offsets the server address block so multiple injectors
	// coexist without address collisions.
	ServerBase byte
	// Start offsets the first handshake.
	Start int64
}

// SSLExpiry builds the injector.
func SSLExpiry(cfg SSLExpiryConfig) *SSLExpiryInjector {
	if cfg.Servers <= 0 {
		cfg.Servers = 20
	}
	if cfg.ExpiringFraction == 0 {
		cfg.ExpiringFraction = 0.25
	}
	if cfg.Horizon <= 0 {
		cfg.Horizon = 30 * 24 * 3600 * 1e9 // 30 days
	}
	if cfg.HandshakesPerServer <= 0 {
		cfg.HandshakesPerServer = 5
	}
	if cfg.HandshakeGap <= 0 {
		cfg.HandshakeGap = 400e3
	}
	return &SSLExpiryInjector{cfg: cfg}
}

// SSLExpiryInjector generates TLS handshakes with certificate metadata.
type SSLExpiryInjector struct{ cfg SSLExpiryConfig }

func (a *SSLExpiryInjector) server(i int) packet.Addr {
	return packet.AddrFrom4(10, 8, a.cfg.ServerBase, byte(i+1))
}

// Expiring reports whether server i presents a soon-expiring certificate.
func (a *SSLExpiryInjector) Expiring(i int) bool {
	return i < int(float64(a.cfg.Servers)*a.cfg.ExpiringFraction)
}

// Horizon returns the configured expiring-soon threshold.
func (a *SSLExpiryInjector) Horizon() int64 { return a.cfg.Horizon }

// Truth lists servers with expiring certificates as victims.
func (a *SSLExpiryInjector) Truth() GroundTruth {
	t := GroundTruth{Label: "ssl-expiry"}
	for i := 0; i < a.cfg.Servers; i++ {
		if a.Expiring(i) {
			t.Victims = append(t.Victims, a.server(i))
		}
	}
	return t
}

// Stream generates the handshakes.
func (a *SSLExpiryInjector) Stream() packet.Stream {
	cfg := a.cfg
	b := newBuilder(cfg.Seed ^ 0x551e)
	rng := stats.NewRand(cfg.Seed + 17)
	for s := 0; s < cfg.Servers; s++ {
		srv := a.server(s)
		var expiry int64
		if a.Expiring(s) {
			expiry = cfg.Horizon / int64(2+rng.IntN(8)) // well inside horizon
		} else {
			expiry = cfg.Horizon * int64(2+rng.IntN(10)) // far beyond
		}
		for h := 0; h < cfg.HandshakesPerServer; h++ {
			client := packet.AddrFrom4(100, 92, byte(s), byte(h))
			t := packet.FiveTuple{SrcIP: client, DstIP: srv, SrcPort: uint16(44000 + h), DstPort: PortHTTPS, Proto: packet.ProtoTCP}
			ts := cfg.Start + int64(s)*2e6 + int64(h)*cfg.HandshakeGap
			end := b.handshake(t, ts, 1e6)
			end = b.data(t, end+200e3, 300, packet.AppInfo{}) // ClientHello
			// ServerHello+Certificate carries NotAfter.
			b.data(t.Reverse(), end+300e3, 1200, packet.AppInfo{TLSCertExpiry: expiry})
		}
	}
	return b.stream()
}

// ---------------------------------------------------------------------------
// TCP incomplete flows.

// IncompleteConfig drives half-open connections: SYNs that are never
// followed by data (listen-and-whisper style SYN abuse).
type IncompleteConfig struct {
	Seed uint64
	// Sources opening half connections.
	Sources int
	// SynsPerSource half-open attempts each.
	SynsPerSource int
	// CompleteFraction of the connections do complete (noise).
	CompleteFraction float64
	// Gap between attempts (ns).
	Gap int64
	// Start offsets the first SYN.
	Start int64
}

// Incomplete builds the injector.
func Incomplete(cfg IncompleteConfig) Injector {
	if cfg.Sources <= 0 {
		cfg.Sources = 6
	}
	if cfg.SynsPerSource <= 0 {
		cfg.SynsPerSource = 30
	}
	if cfg.Gap <= 0 {
		cfg.Gap = 5e6
	}
	return &incomplete{cfg: cfg}
}

type incomplete struct{ cfg IncompleteConfig }

func (a *incomplete) source(i int) packet.Addr { return packet.AddrFrom4(203, 1, 0, byte(i+1)) }

func (a *incomplete) Truth() GroundTruth {
	t := GroundTruth{Label: "tcp-incomplete"}
	for i := 0; i < a.cfg.Sources; i++ {
		t.Attackers = append(t.Attackers, a.source(i))
	}
	return t
}

func (a *incomplete) Stream() packet.Stream {
	cfg := a.cfg
	b := newBuilder(cfg.Seed ^ 0x1abc)
	for s := 0; s < cfg.Sources; s++ {
		src := a.source(s)
		ts := cfg.Start + int64(s)*1e6
		for n := 0; n < cfg.SynsPerSource; n++ {
			t := packet.FiveTuple{
				SrcIP: src, DstIP: packet.AddrFrom4(10, 9, 0, byte(n%200)),
				SrcPort: uint16(20000 + n), DstPort: PortHTTP, Proto: packet.ProtoTCP,
			}
			if b.rng.Float64() < cfg.CompleteFraction {
				end := b.handshake(t, ts, 1e6)
				b.data(t, end+1e6, 256, packet.AppInfo{})
				b.fin(t, end+3e6)
			} else {
				// Half open: SYN and server SYN-ACK, then silence.
				seq := uint32(b.rng.Uint64())
				b.add(packet.Packet{Ts: ts, Tuple: t, Size: 64, Flags: packet.FlagSYN, Seq: seq})
				b.add(packet.Packet{Ts: ts + 500e3, Tuple: t.Reverse(), Size: 64, Flags: packet.FlagSYN | packet.FlagACK, Ack: seq + 1})
			}
			ts += cfg.Gap
		}
	}
	return b.stream()
}
