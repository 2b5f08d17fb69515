package trace

import (
	"smartwatch/internal/packet"
)

// Low-and-slow attack suite (DESIGN.md §15; PAPER.md §2.1.2). These
// injectors stress exactly the two mechanisms SmartWatch's accuracy story
// leans on: pinned flow records that must survive P/E replacement, and
// Lite mode's narrowed probe slice that silently sheds long-lived quiet
// flows. Each stays under volumetric thresholds by construction — the
// whole point is that per-interval byte/packet counters never trip — so
// the only workable detection signal is longitudinal per-flow state, which
// is what the pinning + timing-wheel detectors in internal/detect consume.
//
// All three are deterministic: Stream() replays identical packets on every
// call and Truth() reconstructs the same labels from the config alone.

// ---------------------------------------------------------------------------
// Slow Read: tiny receive-window drip on established sessions.

// SlowReadConfig drives a Slow-Read attack: the client completes the
// handshake and a legitimate-looking request, then acknowledges the
// server's response one sliver at a time — pure ACKs with a starved
// receive window, spaced far apart — so the server's send buffer and
// worker stay occupied for the whole attack window.
type SlowReadConfig struct {
	Seed uint64
	// Attacker holds every starved connection (like Slowloris, Slow Read
	// is typically one box with many sockets).
	Attacker packet.Addr
	// Target web server.
	Target packet.Addr
	// Connections held open concurrently.
	Connections int
	// DripGap between the client's tiny window-update ACKs (ns).
	DripGap int64
	// Duration of the attack.
	Duration int64
	// Start offsets the first connection.
	Start int64
}

// SlowRead builds the injector.
func SlowRead(cfg SlowReadConfig) Injector {
	if cfg.Attacker == 0 {
		cfg.Attacker = packet.MustParseAddr("203.0.113.77")
	}
	if cfg.Target == 0 {
		cfg.Target = packet.MustParseAddr("10.1.0.80")
	}
	if cfg.Connections <= 0 {
		cfg.Connections = 100
	}
	if cfg.DripGap <= 0 {
		cfg.DripGap = 200e6
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 2e9
	}
	return &slowRead{cfg: cfg}
}

type slowRead struct{ cfg SlowReadConfig }

func (a *slowRead) tuple(c int) packet.FiveTuple {
	return packet.FiveTuple{
		SrcIP: a.cfg.Attacker, DstIP: a.cfg.Target,
		SrcPort: uint16(20000 + c), DstPort: PortHTTP, Proto: packet.ProtoTCP,
	}
}

func (a *slowRead) Truth() GroundTruth {
	t := GroundTruth{
		Label:     "slow-read",
		Attackers: []packet.Addr{a.cfg.Attacker},
		Victims:   []packet.Addr{a.cfg.Target},
	}
	for c := 0; c < a.cfg.Connections; c++ {
		t.Flows = append(t.Flows, a.tuple(c).Canonical())
	}
	return t
}

func (a *slowRead) Stream() packet.Stream {
	cfg := a.cfg
	b := newBuilder(cfg.Seed ^ 0x51d3)
	connGap := cfg.Duration / int64(cfg.Connections+1)
	for c := 0; c < cfg.Connections; c++ {
		t := a.tuple(c)
		ts := cfg.Start + int64(c)*connGap
		end := b.handshake(t, ts, 2e6)
		// A complete, plausible GET; the server answers with a full
		// segment. Everything after this is the starved-window drip.
		end = b.data(t, end+1e6, 180, packet.AppInfo{})
		b.data(t.Reverse(), end+2e6, 1514, packet.AppInfo{})
		// The client "reads" a handful of bytes at a time: pure ACKs, no
		// payload, spaced DripGap apart; the server re-probes the window
		// with a tiny segment after every few drips. No FIN, ever.
		drip := 0
		for dripTs := end + cfg.DripGap; dripTs < cfg.Start+cfg.Duration; dripTs += cfg.DripGap {
			b.add(packet.Packet{Ts: dripTs, Tuple: t, Size: 64, Flags: packet.FlagACK})
			drip++
			if drip%4 == 0 {
				b.data(t.Reverse(), dripTs+1e6, 66, packet.AppInfo{})
			}
		}
	}
	return b.stream()
}

// ---------------------------------------------------------------------------
// Slow POST (R.U.D.Y.): byte-at-a-time request bodies.

// SlowPostConfig drives a Slow-POST attack: each connection announces a
// large request body, then delivers it one byte at a time, far below any
// volumetric rate threshold, and never finishes.
type SlowPostConfig struct {
	Seed uint64
	// Attacker holds every dribbling connection.
	Attacker packet.Addr
	// Target web server.
	Target packet.Addr
	// Connections held open concurrently.
	Connections int
	// ByteGap between 1-byte body fragments per connection (ns).
	ByteGap int64
	// Duration of the attack.
	Duration int64
	// Start offsets the first connection.
	Start int64
}

// SlowPost builds the injector.
func SlowPost(cfg SlowPostConfig) Injector {
	if cfg.Attacker == 0 {
		cfg.Attacker = packet.MustParseAddr("203.0.113.88")
	}
	if cfg.Target == 0 {
		cfg.Target = packet.MustParseAddr("10.1.0.80")
	}
	if cfg.Connections <= 0 {
		cfg.Connections = 100
	}
	if cfg.ByteGap <= 0 {
		cfg.ByteGap = 150e6
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 2e9
	}
	return &slowPost{cfg: cfg}
}

type slowPost struct{ cfg SlowPostConfig }

func (a *slowPost) tuple(c int) packet.FiveTuple {
	return packet.FiveTuple{
		SrcIP: a.cfg.Attacker, DstIP: a.cfg.Target,
		SrcPort: uint16(25000 + c), DstPort: PortHTTP, Proto: packet.ProtoTCP,
	}
}

func (a *slowPost) Truth() GroundTruth {
	t := GroundTruth{
		Label:     "slow-post",
		Attackers: []packet.Addr{a.cfg.Attacker},
		Victims:   []packet.Addr{a.cfg.Target},
	}
	for c := 0; c < a.cfg.Connections; c++ {
		t.Flows = append(t.Flows, a.tuple(c).Canonical())
	}
	return t
}

func (a *slowPost) Stream() packet.Stream {
	cfg := a.cfg
	b := newBuilder(cfg.Seed ^ 0x5705)
	connGap := cfg.Duration / int64(cfg.Connections+1)
	for c := 0; c < cfg.Connections; c++ {
		t := a.tuple(c)
		ts := cfg.Start + int64(c)*connGap
		end := b.handshake(t, ts, 2e6)
		// Complete POST header advertising a large Content-Length, then
		// the body arrives one byte per segment. The request never
		// completes and the connection never closes.
		end = b.data(t, end+1e6, 300, packet.AppInfo{})
		for byteTs := end + cfg.ByteGap; byteTs < cfg.Start+cfg.Duration; byteTs += cfg.ByteGap {
			b.data(t, byteTs, 55, packet.AppInfo{}) // 54B headers + 1B body
		}
	}
	return b.stream()
}

// ---------------------------------------------------------------------------
// Connection exhaustion from a rotating /24.

// ConnExhaustConfig drives sustained sub-threshold connection accretion:
// a /24 block opens connections at a steady slow rate, each completing
// its handshake (so SYN-flood counters stay quiet) and then going idle
// while holding server state. Sources rotate through the block so no
// single address ever exceeds a per-host rate threshold.
type ConnExhaustConfig struct {
	Seed uint64
	// Block is the base address of the attacking /24; sources rotate
	// through Block+1 … Block+254.
	Block packet.Addr
	// Target server under accretion.
	Target packet.Addr
	// Connections opened over the attack window.
	Connections int
	// ConnGap between successive connection openings (ns) — the accretion
	// rate, deliberately below any per-interval threshold.
	ConnGap int64
	// Start offsets the first connection.
	Start int64
}

// ConnExhaust builds the injector.
func ConnExhaust(cfg ConnExhaustConfig) Injector {
	if cfg.Block == 0 {
		cfg.Block = packet.MustParseAddr("203.0.113.0")
	}
	if cfg.Target == 0 {
		cfg.Target = packet.MustParseAddr("10.1.0.44")
	}
	if cfg.Connections <= 0 {
		cfg.Connections = 400
	}
	if cfg.ConnGap <= 0 {
		cfg.ConnGap = 10e6
	}
	return &connExhaust{cfg: cfg}
}

type connExhaust struct{ cfg ConnExhaustConfig }

// source rotates through the /24: host part 1..254, wrapping.
func (a *connExhaust) source(c int) packet.Addr {
	return a.cfg.Block + packet.Addr(1+c%254)
}

func (a *connExhaust) tuple(c int) packet.FiveTuple {
	return packet.FiveTuple{
		SrcIP: a.source(c), DstIP: a.cfg.Target,
		SrcPort: uint16(30000 + c/254), DstPort: PortHTTPS, Proto: packet.ProtoTCP,
	}
}

func (a *connExhaust) Truth() GroundTruth {
	t := GroundTruth{Label: "conn-exhaust", Victims: []packet.Addr{a.cfg.Target}}
	seen := map[packet.Addr]bool{}
	for c := 0; c < a.cfg.Connections; c++ {
		src := a.source(c)
		if !seen[src] {
			seen[src] = true
			t.Attackers = append(t.Attackers, src)
		}
		t.Flows = append(t.Flows, a.tuple(c).Canonical())
	}
	return t
}

func (a *connExhaust) Stream() packet.Stream {
	cfg := a.cfg
	b := newBuilder(cfg.Seed ^ 0xce41)
	for c := 0; c < cfg.Connections; c++ {
		t := a.tuple(c)
		ts := cfg.Start + int64(c)*cfg.ConnGap
		// Full handshake — this is NOT a SYN flood — plus one tiny
		// "client hello"-sized segment to look like a real session, then
		// the connection holds state and goes silent. No FIN, no RST.
		end := b.handshake(t, ts, 2e6)
		b.data(t, end+1e6, 120, packet.AppInfo{})
	}
	return b.stream()
}
