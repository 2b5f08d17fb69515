package detect

import (
	"fmt"

	"smartwatch/internal/flowcache"
	"smartwatch/internal/packet"
	"smartwatch/internal/snic"
)

// BruteForce is the Zeek-assisted brute-force detector of §5.1.1, shared
// by SSH, FTP and Kerberos monitoring: new connections to the guarded
// service are pinned in the FlowCache and their packets forwarded to the
// host NF until the authentication outcome is known. Failures are counted
// per remote host over a sliding window (Zeek's SSH::password_guesses
// heuristic); crossing the threshold raises an alert and blacklists the
// source. Successful clients are whitelisted so their remaining traffic
// never touches the host again — the latency win Fig. 8a measures.
type BruteForce struct {
	alertBuf
	name    string
	service uint16
	// psi is the failed-attempt threshold within the window.
	psi int
	// windowNs is the sliding counting window (Zeek default: 30 min).
	windowNs int64
	// detectorCycles is the in-line sNIC cost per observed packet.
	detectorCycles float64
	hooks          Hooks
	fails          map[packet.Addr][]int64
	flagged        map[packet.Addr]bool
	// counters for Table 2 reporting
	hostPkts, totalPkts uint64
}

// BruteForceConfig parameterises the detector.
type BruteForceConfig struct {
	// Service is the guarded port (22 SSH, 21 FTP, 88 Kerberos).
	Service uint16
	// Psi is the failure threshold (paper example: 3 failures).
	Psi int
	// WindowNs is the counting window (default 30 virtual minutes).
	WindowNs int64
	// Hooks receives whitelist/blacklist requests (NopHooks if nil).
	Hooks Hooks
}

// NewBruteForce builds the detector.
func NewBruteForce(cfg BruteForceConfig) *BruteForce {
	if cfg.Service == 0 {
		cfg.Service = 22
	}
	if cfg.Psi <= 0 {
		cfg.Psi = 3
	}
	if cfg.WindowNs <= 0 {
		cfg.WindowNs = 30 * 60 * 1e9
	}
	if cfg.Hooks == nil {
		cfg.Hooks = NopHooks{}
	}
	name := "ssh-bruteforce"
	switch cfg.Service {
	case 21:
		name = "ftp-bruteforce"
	case 88:
		name = "kerberos-monitor"
	}
	return &BruteForce{
		name: name, service: cfg.Service, psi: cfg.Psi, windowNs: cfg.WindowNs,
		detectorCycles: 40, hooks: cfg.Hooks,
		fails: map[packet.Addr][]int64{}, flagged: map[packet.Addr]bool{},
	}
}

// Name implements Detector.
func (d *BruteForce) Name() string { return d.name }

// remote returns the client side of the connection (the guarded service
// is the other end).
func (d *BruteForce) remote(p *packet.Packet) packet.Addr {
	if p.Tuple.DstPort == d.service {
		return p.Tuple.SrcIP
	}
	return p.Tuple.DstIP
}

func (d *BruteForce) server(p *packet.Packet) packet.Addr {
	if p.Tuple.DstPort == d.service {
		return p.Tuple.DstIP
	}
	return p.Tuple.SrcIP
}

// OnPacket implements Detector.
func (d *BruteForce) OnPacket(p *packet.Packet, rec *flowcache.Record, ctx snic.Ctx) Reaction {
	return expand(d.inspect(p, rec, ctx))
}

func (d *BruteForce) inspect(p *packet.Packet, rec *flowcache.Record, _ snic.Ctx) (verdict, float64) {
	if p.Tuple.DstPort != d.service && p.Tuple.SrcPort != d.service {
		return 0, 0
	}
	d.totalPkts++
	if rec == nil {
		return 0, d.detectorCycles
	}
	var v verdict

	// New connection: pin until the host decides the auth outcome.
	if rec.State&(stateAuthPending|stateAuthOK|stateAuthFailed) == 0 {
		rec.State |= stateAuthPending
		v |= vPin
	}

	switch p.App.AuthOutcome {
	case packet.AuthSuccess:
		rec.State &^= stateAuthPending
		rec.State |= stateAuthOK
		// Benign: whitelist at the switch, unpin, stop host processing.
		// This final packet still transits the host NF.
		v |= vWhitelist | vUnpin | vToHost
		d.hostPkts++
	case packet.AuthFailure:
		rec.State &^= stateAuthPending
		rec.State |= stateAuthFailed
		v |= vUnpin | vToHost
		d.hostPkts++
		src := d.remote(p)
		d.recordFailure(src, d.server(p), p.Ts)
	default:
		if rec.State&stateAuthPending != 0 {
			// Auth phase in progress: Zeek on the host sees these packets.
			v |= vToHost
			d.hostPkts++
		}
	}
	if d.flagged[d.remote(p)] {
		v |= vBlacklistSrc | vDrop
	}
	return v, d.detectorCycles
}

func (d *BruteForce) recordFailure(src, server packet.Addr, ts int64) {
	w := d.fails[src]
	// Slide the window.
	keep := w[:0]
	for _, t := range w {
		if ts-t <= d.windowNs {
			keep = append(keep, t)
		}
	}
	keep = append(keep, ts)
	d.fails[src] = keep
	if len(keep) >= d.psi && !d.flagged[src] {
		d.flagged[src] = true
		d.hooks.Blacklist(src)
		d.emit(Alert{
			Detector: d.name, Ts: ts, Attacker: src, Victim: server,
			Info: fmt.Sprintf("%d failed logins within window (psi=%d)", len(keep), d.psi),
		})
	}
}

// Tick implements Detector (window upkeep happens lazily on failures).
func (d *BruteForce) Tick(int64) {}

// HostShare returns the fraction of the detector's packets that needed
// host processing (Table 2's "Host Processed" column).
func (d *BruteForce) HostShare() float64 {
	if d.totalPkts == 0 {
		return 0
	}
	return float64(d.hostPkts) / float64(d.totalPkts)
}

// Flagged reports whether the source has been classified as a brute
// forcer.
func (d *BruteForce) Flagged(a packet.Addr) bool { return d.flagged[a] }
