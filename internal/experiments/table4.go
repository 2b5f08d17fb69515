package experiments

import (
	"math"

	"smartwatch/internal/core"
	"smartwatch/internal/detect"
	"smartwatch/internal/p4switch"
	"smartwatch/internal/packet"
	"smartwatch/internal/pcap"
	"smartwatch/internal/trace"
)

// Table4Detection reproduces Table 4: per-attack detection rate relative
// to a standalone host, for Sonata-style iterative refinement and for
// SmartWatch's cooperative steering. Attackers within each attack are
// staggered in intensity and duration, so:
//
//   - the host (sees everything, unlimited state) detects nearly all;
//   - SmartWatch misses only attackers whose activity expires inside the
//     first monitoring interval, before the coarse query fires and
//     steering starts;
//   - Sonata must sustain a per-interval volumetric signal through three
//     zoom levels (/8 -> /16 -> /32) of the same switch memory, so slow
//     or short-lived attackers fall out of the narrow window.
func Table4Detection(scale float64) *Table {
	t := &Table{
		ID: "table4", Title: "Detection rate relative to standalone host",
		Columns: []string{"attack", "sonata", "smartwatch"},
	}
	for _, name := range []string{
		"slowloris", "ssh-bruteforce", "ssl-expiry", "ftp-bruteforce", "kerberos",
		"forged-rst", "tcp-incomplete", "portscan", "dns-amplification", "worm",
		"kerberos-shared-kdc",
	} {
		sc := buildT4Scenario(name, scale)
		hostRate, swRate, sonataRate := runT4(sc)
		if hostRate <= 0 {
			t.AddRow(name, "0.00", "0.00")
			continue
		}
		t.AddRow(name, f2(math.Min(sonataRate/hostRate, 1)), f2(math.Min(swRate/hostRate, 1)))
	}
	t.Notes = append(t.Notes,
		"paper: SmartWatch averages 2.39x Sonata's detection rate; stateful attacks",
		"(forged RST, SSH guessing, stealthy scans) are where refinement-only monitoring collapses;",
		"kerberos-shared-kdc is a known-defect control, not a paper row: the kerberos cohorts share",
		"one KDC, and the brute-force detector's blacklist verdict on a KDC reply blacklists the KDC")
	return t
}

// t4Scenario is one attack's evaluation setup.
type t4Scenario struct {
	pkts     []packet.Packet
	entities map[packet.Addr]bool
	// detector builds the scenario's in-line detector for one drive, whose
	// detector ticks every tickNs (0: a tenth of the interval); entity names
	// the endpoint an alert implicates. A nil detector is the Slowloris
	// row: offline analytics over the host flow store after the drive.
	detector func() detect.Detector
	entity   func(detect.Alert) packet.Addr
	tickNs   int64
	// steerQuery is SmartWatch's coarse switch query; sonataQuery is the
	// per-entity query refined over /8 -> /16 -> /32.
	steerQuery, sonataQuery p4switch.Query
	intervalNs              int64
}

// entityRate describes one staggered attacker cohort: later cohorts are
// slower and shorter-lived.
type entityRate struct {
	gapNs    int64
	attempts int
	startNs  int64
}

func cohorts(n int, baseGap int64, baseAttempts int) []entityRate {
	out := make([]entityRate, n)
	for i := range out {
		// Intensity decays with index: gap doubles every 2 cohorts,
		// attempt counts shrink.
		gap := baseGap << uint(i/2)
		att := baseAttempts - i
		if att < 3 {
			att = 3
		}
		out[i] = entityRate{gapNs: gap, attempts: att, startNs: int64(i) * 50e6}
	}
	// The last two cohorts are "flash" attackers: a quick burst completed
	// inside the first monitoring interval. The host catches them; any
	// steering-based pipeline cannot (the paper's "attacks expiring within
	// the P4Switch before those packets are forwarded to the sNIC").
	for i := n - 2; i >= 0 && i < n; i++ {
		out[i] = entityRate{gapNs: 20e6, attempts: 5, startNs: int64(i) * 30e6}
	}
	return out
}

func buildT4Scenario(name string, scale float64) t4Scenario {
	sc := t4Scenario{entities: map[packet.Addr]bool{}, intervalNs: 1e9,
		entity: func(a detect.Alert) packet.Addr { return a.Attacker }}
	var streams []packet.Stream
	const nEnt = 8
	switch name {
	case "ssh-bruteforce", "ftp-bruteforce", "kerberos", "kerberos-shared-kdc":
		port := uint16(trace.PortSSH)
		switch name {
		case "ftp-bruteforce":
			port = trace.PortFTP
		case "kerberos", "kerberos-shared-kdc":
			port = trace.PortKerberos
		}
		for i, c := range cohorts(nEnt, 100e6, 36) {
			if port == trace.PortKerberos {
				// Ticket floods are the volumetric end of the spectrum:
				// denser and longer than password guessing. Each cohort
				// asks its own KDC: the failures ride the KDC's replies,
				// and the brute-force detector's blacklist verdict on a
				// reply to a flagged client blacklists the reply's source,
				// so behind the switch a KDC shared by every cohort goes
				// dark after the first detection (DESIGN.md §4). The
				// kerberos-shared-kdc control keeps the shared KDC.
				kdc := packet.AddrFrom4(10, 1, byte(i), 88)
				if name == "kerberos-shared-kdc" {
					kdc = packet.AddrFrom4(10, 1, 0, 88)
				}
				inj := trace.Kerberos(trace.KerberosConfig{
					Seed: uint64(100 + i), Abusers: 1, RequestsPerAbuser: c.attempts * 4,
					Gap: c.gapNs / 3, Start: c.startNs, KDC: kdc,
				})
				streams = append(streams, shiftSrc(inj.Stream(), byte(i)))
				sc.entities[packet.AddrFrom4(100, 191+byte(i), 0, 1)] = true
				continue
			}
			inj := trace.BruteForce(trace.BruteForceConfig{
				Seed: uint64(100 + i), Port: port, Attackers: 1,
				AttemptsPerAttacker: c.attempts, AttemptGap: c.gapNs, Start: c.startNs,
				LegitClients: 1, LegitDataPackets: 20,
			})
			for _, a := range inj.Truth().Attackers {
				sc.entities[a] = true
			}
			streams = append(streams, inj.Stream())
		}
		sc.detector = func() detect.Detector {
			return detect.NewBruteForce(detect.BruteForceConfig{Service: port, Psi: 3})
		}
		filt := p4switch.Predicate{ServicePort: port}
		reduce := p4switch.CountSYN
		if port == trace.PortKerberos {
			reduce = p4switch.CountPackets
		}
		sc.steerQuery = p4switch.Query{Name: name, Filter: filt, Key: p4switch.KeyDstIP,
			PrefixBits: 16, Reduce: reduce, Threshold: 4, Slots: 1 << 12}
		sonataThresh := uint64(8)
		if port == trace.PortKerberos {
			sonataThresh = 6 // ticket floods are volumetric enough for refinement
		}
		sc.sonataQuery = p4switch.Query{Name: name, Filter: p4switch.Predicate{DstPort: port}, Key: p4switch.KeySrcIP,
			PrefixBits: 8, Reduce: reduce, Threshold: sonataThresh, Slots: 1 << 12}

	case "portscan":
		for i, c := range cohorts(nEnt, 100e6, 30) {
			scanner := packet.AddrFrom4(203, 9, 0, byte(i+1))
			inj := trace.PortScan(trace.PortScanConfig{
				Seed: uint64(120 + i), Scanner: scanner, Targets: 3,
				PortsPerTarget: c.attempts / 2, ScanDelay: c.gapNs, Start: c.startNs,
			})
			sc.entities[scanner] = true
			streams = append(streams, inj.Stream())
		}
		sc.detector = func() detect.Detector {
			return detect.NewPortScan(detect.PortScanConfig{ResponseTimeoutNs: 1e9})
		}
		sc.steerQuery = p4switch.Query{Name: name, Filter: p4switch.Predicate{Proto: packet.ProtoTCP},
			Key: p4switch.KeyDstIP, PrefixBits: 16, Reduce: p4switch.CountSYN, Threshold: 8, Slots: 1 << 12}
		sc.sonataQuery = p4switch.Query{Name: name, Filter: p4switch.Predicate{Proto: packet.ProtoTCP},
			Key: p4switch.KeySrcIP, PrefixBits: 8, Reduce: p4switch.CountSYN, Threshold: 5, Slots: 1 << 12}

	case "forged-rst":
		for i, c := range cohorts(nEnt, 0, 6) {
			inj := trace.ForgedRST(trace.ForgedRSTConfig{
				Seed: uint64(140 + i), Sessions: c.attempts, ForgedFraction: 1,
				RaceGap: 20e6, DataPackets: 6, DuplicateRSTs: 1,
				// Spread cohorts across the trace so most resets land
				// after steering begins.
				Start: int64(i) * 700e6,
			})
			// Entities: the client addresses of the forged sessions.
			for _, k := range inj.Truth().Flows {
				b1, _, _, _ := k.LoIP.Octets()
				if b1 == 100 {
					sc.entities[k.LoIP] = true
				} else {
					sc.entities[k.HiIP] = true
				}
			}
			streams = append(streams, inj.Stream())
		}
		sc.detector = func() detect.Detector {
			return detect.NewForgedRST(detect.ForgedRSTConfig{TNs: 2e9})
		}
		sc.entity = func(a detect.Alert) packet.Addr {
			b1, _, _, _ := a.Flow.LoIP.Octets()
			if b1 == 100 {
				return a.Flow.LoIP
			}
			return a.Flow.HiIP
		}
		sc.tickNs = 50e6
		sc.steerQuery = p4switch.Query{Name: name, Filter: p4switch.Predicate{Proto: packet.ProtoTCP},
			Key: p4switch.KeyDstIP, PrefixBits: 16, Reduce: p4switch.CountRST, Threshold: 3, Slots: 1 << 12}
		sc.sonataQuery = p4switch.Query{Name: name, Filter: p4switch.Predicate{Proto: packet.ProtoTCP},
			Key: p4switch.KeySrcIP, PrefixBits: 8, Reduce: p4switch.CountRST, Threshold: 6, Slots: 1 << 12}

	case "tcp-incomplete":
		for i, c := range cohorts(nEnt, 100e6, 40) {
			inj := trace.Incomplete(trace.IncompleteConfig{
				Seed: uint64(160 + i), Sources: 1, SynsPerSource: c.attempts,
				Gap: c.gapNs, Start: c.startNs,
			})
			// Sources collide across seeds (source(i) ignores the seed),
			// so each cohort is relocated; entity = shifted source.
			streams = append(streams, shiftSrc(inj.Stream(), byte(i)))
			sc.entities[packet.AddrFrom4(203, 101+byte(i), 0, 1)] = true
		}
		sc.detector = func() detect.Detector {
			return detect.NewIncomplete(1e9, 8, nil)
		}
		sc.steerQuery = p4switch.Query{Name: name, Filter: p4switch.Predicate{Proto: packet.ProtoTCP},
			Key: p4switch.KeyDstIP, PrefixBits: 16, Reduce: p4switch.CountSYN, Threshold: 6, Slots: 1 << 12}
		sc.sonataQuery = p4switch.Query{Name: name, Filter: p4switch.Predicate{Proto: packet.ProtoTCP},
			Key: p4switch.KeySrcIP, PrefixBits: 8, Reduce: p4switch.CountSYN, Threshold: 3, Slots: 1 << 12}

	case "dns-amplification":
		for i, c := range cohorts(nEnt, 100e6, 40) {
			inj := trace.DNSAmplification(trace.DNSAmplificationConfig{
				Seed: uint64(180 + i), Resolvers: 1, Queries: c.attempts,
				Gap: c.gapNs, Start: c.startNs, Victim: packet.AddrFrom4(10, 3, 0, byte(i+1)),
			})
			streams = append(streams, shiftSrc(inj.Stream(), byte(i)))
			sc.entities[packet.AddrFrom4(198, 151+byte(i), 100, 1)] = true
		}
		sc.detector = func() detect.Detector {
			return detect.NewDNSAmplification(10, 2000)
		}
		sc.steerQuery = p4switch.Query{Name: name, Filter: p4switch.Predicate{Proto: packet.ProtoUDP, ServicePort: trace.PortDNS},
			Key: p4switch.KeyDstIP, PrefixBits: 16, Reduce: p4switch.SumBytes, Threshold: 20_000, Slots: 1 << 12}
		sc.sonataQuery = p4switch.Query{Name: name, Filter: p4switch.Predicate{Proto: packet.ProtoUDP},
			Key: p4switch.KeySrcIP, PrefixBits: 8, Reduce: p4switch.SumBytes, Threshold: 20_000, Slots: 1 << 12}

	case "worm":
		for i, c := range cohorts(nEnt, 30e6, 40) {
			inj := trace.Worm(trace.WormConfig{
				Seed: uint64(200 + i), InfectedHosts: 1, TargetsPerHost: c.attempts,
				Gap: c.gapNs, Start: c.startNs, Signature: uint64(1000 + i),
			})
			streams = append(streams, shiftSrc(inj.Stream(), byte(i)))
			sc.entities[packet.AddrFrom4(100, 190+byte(i), 0, 1)] = true
		}
		sc.detector = func() detect.Detector {
			return detect.NewWorm(16, 0)
		}
		sc.steerQuery = p4switch.Query{Name: name, Filter: p4switch.Predicate{Proto: packet.ProtoTCP, ServicePort: 445},
			Key: p4switch.KeyDstIP, PrefixBits: 16, Reduce: p4switch.CountSYN, Threshold: 6, Slots: 1 << 12}
		sc.sonataQuery = p4switch.Query{Name: name, Filter: p4switch.Predicate{Proto: packet.ProtoTCP, DstPort: 445},
			Key: p4switch.KeySrcIP, PrefixBits: 8, Reduce: p4switch.CountSYN, Threshold: 6, Slots: 1 << 12}

	case "ssl-expiry":
		// Two server populations: sustained ones keep handshaking through
		// the trace (refinement can follow them); short-lived ones appear
		// only briefly (volumetric queries lose them, certificate parsing
		// does not).
		sustained := trace.SSLExpiry(trace.SSLExpiryConfig{
			Seed: 220, Servers: 10, ExpiringFraction: 0.5, HandshakesPerServer: 8,
			HandshakeGap: 700e6,
		})
		// The short population is gone before steering begins, so both
		// switch-based pipelines miss it equally — the paper's SSL row is
		// the one attack where Sonata and SmartWatch tie.
		short := trace.SSLExpiry(trace.SSLExpiryConfig{
			Seed: 221, Servers: 6, ExpiringFraction: 0.5, HandshakesPerServer: 2,
			HandshakeGap: 250e6, ServerBase: 1, Start: 200e6,
		})
		for _, inj := range []*trace.SSLExpiryInjector{sustained, short} {
			for _, v := range inj.Truth().Victims {
				sc.entities[v] = true
			}
			streams = append(streams, inj.Stream())
		}
		horizon := sustained.Horizon()
		sc.detector = func() detect.Detector {
			return detect.NewSSLExpiry(horizon)
		}
		sc.entity = func(a detect.Alert) packet.Addr { return a.Victim }
		sc.steerQuery = p4switch.Query{Name: name, Filter: p4switch.Predicate{Proto: packet.ProtoTCP, ServicePort: trace.PortHTTPS},
			Key: p4switch.KeyDstIP, PrefixBits: 16, Reduce: p4switch.CountSYN, Threshold: 3, Slots: 1 << 12}
		sc.sonataQuery = p4switch.Query{Name: name, Filter: p4switch.Predicate{Proto: packet.ProtoTCP, DstPort: trace.PortHTTPS},
			Key: p4switch.KeyDstIP, PrefixBits: 8, Reduce: p4switch.CountSYN, Threshold: 1, Slots: 1 << 12}

	case "slowloris":
		for i, c := range cohorts(nEnt, 0, 0) {
			attacker := packet.AddrFrom4(203, 99, 0, byte(i+1))
			inj := trace.Slowloris(trace.SlowlorisConfig{
				Seed: uint64(240 + i), Attacker: attacker,
				Target:      packet.AddrFrom4(10, 1, 0, byte(80+i)),
				Connections: 120 - 12*i, TrickleGap: 200e6 << uint(i/3),
				Duration: 5e9, Start: c.startNs,
			})
			sc.entities[attacker] = true
			streams = append(streams, inj.Stream())
		}
		sc.steerQuery = p4switch.Query{Name: name, Filter: p4switch.Predicate{Proto: packet.ProtoTCP, ServicePort: trace.PortHTTP},
			Key: p4switch.KeyDstIP, PrefixBits: 16, Reduce: p4switch.CountSYN, Threshold: 15, Slots: 1 << 12}
		sc.sonataQuery = p4switch.Query{Name: name, Filter: p4switch.Predicate{Proto: packet.ProtoTCP, DstPort: trace.PortHTTP},
			Key: p4switch.KeySrcIP, PrefixBits: 8, Reduce: p4switch.CountSYN, Threshold: 18, Slots: 1 << 12}
	}
	// The background's rate scales with its flow count: each flow keeps
	// its packet rate at any scale.
	streams = append(streams, trace.NewWorkload(trace.WorkloadConfig{
		Seed: 77, Flows: scaleInt(3000, math.Max(scale, 0.2)), PacketRate: 50e3 * math.Max(scale, 0.2), Duration: 6e9,
	}).Stream())
	sc.pkts = packet.Collect(pcap.Merge(streams...))
	return sc
}

// shiftSrc relocates a stream's source addresses by a per-cohort offset so
// per-cohort injectors with identical internal numbering stay distinct.
func shiftSrc(s packet.Stream, off byte) packet.Stream {
	return func(yield func(packet.Packet) bool) {
		for p := range s {
			b1, b2, b3, b4 := p.Tuple.SrcIP.Octets()
			d1, d2, d3, d4 := p.Tuple.DstIP.Octets()
			if b1 == 203 || b1 == 100 || b1 == 198 { // attacker-side ranges
				p.Tuple.SrcIP = packet.AddrFrom4(b1, b2+100+off, b3, b4)
			}
			if d1 == 203 || d1 == 100 || d1 == 198 {
				p.Tuple.DstIP = packet.AddrFrom4(d1, d2+100+off, d3, d4)
			}
			if !yield(p) {
				return
			}
		}
	}
}

// runT4 evaluates one scenario under the three pipelines.
func runT4(sc t4Scenario) (hostRate, swRate, sonataRate float64) {
	if len(sc.entities) == 0 || len(sc.pkts) == 0 {
		return 0, 0, 0
	}
	score := func(detected map[packet.Addr]bool) float64 {
		n := 0
		for e := range sc.entities {
			if detected[e] {
				n++
			}
		}
		return float64(n) / float64(len(sc.entities))
	}

	hostRate = score(sc.detect(false))
	swRate = score(sc.detect(true))

	// Sonata: iterative refinement of the volumetric query; an entity is
	// detected when its /32 key survives to the final level.
	sonata := p4switch.New(p4switch.DefaultConfig())
	refiner := p4switch.NewRefiner(sc.sonataQuery, []int{8, 16, 32})
	detected := map[packet.Addr]bool{}
	installed := refiner.CurrentQuery()
	if err := sonata.InstallQueries([]p4switch.Query{installed}); err != nil {
		panic(err)
	}
	str := p4switch.NewTracker(sonata.Queries(), 0)
	next := sc.intervalNs
	for i := range sc.pkts {
		p := &sc.pkts[i]
		for p.Ts >= next {
			fired := sonata.EndInterval(str.Candidates())
			for _, det := range refiner.Advance(fired) {
				if sc.entities[det.Key] {
					detected[det.Key] = true
				}
			}
			installed = refiner.CurrentQuery()
			if err := sonata.InstallQueries([]p4switch.Query{installed}); err != nil {
				panic(err)
			}
			str = p4switch.NewTracker(sonata.Queries(), 0)
			next += sc.intervalNs
		}
		str.Observe(p)
		sonata.Process(p)
	}
	sonataRate = score(detected)
	return hostRate, swRate, sonataRate
}

// detect drives the scenario's packets through a platform — every packet
// to the sNIC (the host column), or behind a switch that steers a subset
// there once steerQuery fires (SmartWatch) — and returns the entities its
// alerts implicate.
func (sc *t4Scenario) detect(steer bool) map[packet.Addr]bool {
	cfg := core.Config{Cache: detectCache(11), IntervalNs: sc.intervalNs, TickNs: sc.tickNs}
	if steer {
		cfg.EnableSwitch, cfg.Queries = true, []p4switch.Query{sc.steerQuery}
	}
	if sc.detector != nil {
		cfg.Detectors = []detect.Detector{sc.detector()}
	}
	pl, rep := drive{cfg: cfg, tailNs: 100e9}.run(packet.StreamOf(sc.pkts))
	if sc.detector == nil {
		rep.Alerts = detect.SlowlorisOffline(pl.Store(), sc.pkts[len(sc.pkts)-1].Ts, 2e9, 40_000, 30)
	}
	out := map[packet.Addr]bool{}
	for _, a := range rep.Alerts {
		out[sc.entity(a)] = true
	}
	return out
}
