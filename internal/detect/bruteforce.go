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
	sources        map[packet.Addr]bfSource
	// windows holds every source's failures still inside the window,
	// oldest first, in psi-1 slots per source: one slice that grows by
	// doubling, not a slice per source.
	windows []int64
	// counters for Table 2 reporting
	hostPkts, totalPkts uint64
}

// bfSource is one remote host's state, stored by value: where its window
// starts in BruteForce.windows, how many of its slots hold a failure, and
// whether it has been flagged.
type bfSource struct {
	at      int
	n       int32
	flagged bool
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
		sources: map[packet.Addr]bfSource{},
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

func (d *BruteForce) inspect(p *packet.Packet, rec *flowcache.Record, _ snic.Ctx) (Verdict, float64) {
	if p.Tuple.DstPort != d.service && p.Tuple.SrcPort != d.service {
		return 0, 0
	}
	d.totalPkts++
	if rec == nil {
		return 0, d.detectorCycles
	}
	var v Verdict

	// New connection: pin until the host decides the auth outcome.
	if rec.State&(stateAuthPending|stateAuthOK|stateAuthFailed) == 0 {
		rec.State |= stateAuthPending
		v |= VPin
	}

	switch p.App.AuthOutcome {
	case packet.AuthSuccess:
		rec.State &^= stateAuthPending
		rec.State |= stateAuthOK
		// Benign: whitelist at the switch, unpin, stop host processing.
		// This final packet still transits the host NF.
		v |= VWhitelist | VUnpin | VToHost
		d.hostPkts++
	case packet.AuthFailure:
		rec.State &^= stateAuthPending
		rec.State |= stateAuthFailed
		v |= VUnpin | VToHost
		d.hostPkts++
		src := d.remote(p)
		d.recordFailure(src, d.server(p), p.Ts)
	default:
		if rec.State&stateAuthPending != 0 {
			// Auth phase in progress: Zeek on the host sees these packets.
			v |= VToHost
			d.hostPkts++
		}
	}
	if d.sources[d.remote(p)].flagged {
		v |= VBlacklistSrc | VDrop
	}
	return v, d.detectorCycles
}

// recordFailure counts one failed login. An unflagged source holds at most
// psi-1 failures in its window — the psi-th flags it — and a flagged one
// needs no window, so psi-1 slots per source are all there is.
func (d *BruteForce) recordFailure(src, server packet.Addr, ts int64) {
	s, ok := d.sources[src]
	if s.flagged {
		return
	}
	if !ok {
		s.at = len(d.windows)
		for range d.psi - 1 {
			d.windows = append(d.windows, 0)
		}
	}
	// Slide the window.
	w := d.windows[s.at : s.at+int(s.n) : s.at+d.psi-1]
	keep := w[:0]
	for _, t := range w {
		if ts-t <= d.windowNs {
			keep = append(keep, t)
		}
	}
	if n := len(keep) + 1; n >= d.psi {
		s.flagged = true
		d.hooks.Blacklist(src)
		d.emit(Alert{
			Detector: d.name, Ts: ts, Attacker: src, Victim: server,
			Info: fmt.Sprintf("%d failed logins within window (psi=%d)", n, d.psi),
		})
	} else {
		keep = append(keep, ts)
	}
	s.n = int32(len(keep))
	d.sources[src] = s
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
func (d *BruteForce) Flagged(a packet.Addr) bool { return d.sources[a].flagged }
