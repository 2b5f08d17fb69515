package detect

import (
	"fmt"
	"slices"

	"smartwatch/internal/flowcache"
	"smartwatch/internal/packet"
	"smartwatch/internal/snic"
)

// Incomplete detects TCP incomplete flows (§5.1.2 "similar attacks"):
// SYNs that are never followed by data within a timeout. Unlike forged
// RSTs, SYNs are never blocked; sources accumulating many incomplete
// flows are reported.
type Incomplete struct {
	alertBuf
	timeoutNs int64
	threshold int
	hooks     Hooks
	pending   map[packet.FlowKey]pendingProbe
	due       []dueProbe // Tick's scratch
	sources   map[packet.Addr]incompleteSource
	// hostPkts counts SYN records the host examines (Table 2).
	hostPkts, totalPkts uint64
}

// incompleteSource is one source's state, stored by value: its expired
// half-open flows and whether it has been reported.
type incompleteSource struct {
	count   int
	flagged bool
}

// NewIncomplete builds the detector: sources with at least threshold
// incomplete flows (SYN, then no data for timeoutNs) are reported.
func NewIncomplete(timeoutNs int64, threshold int, hooks Hooks) *Incomplete {
	if timeoutNs <= 0 {
		timeoutNs = 5e9
	}
	if threshold <= 0 {
		threshold = 10
	}
	if hooks == nil {
		hooks = NopHooks{}
	}
	return &Incomplete{
		timeoutNs: timeoutNs, threshold: threshold, hooks: hooks,
		pending: map[packet.FlowKey]pendingProbe{},
		sources: map[packet.Addr]incompleteSource{},
	}
}

// Name implements Detector.
func (d *Incomplete) Name() string { return "tcp-incomplete" }

// OnPacket implements Detector.
func (d *Incomplete) OnPacket(p *packet.Packet, rec *flowcache.Record, ctx snic.Ctx) Reaction {
	return expand(d.inspect(p, rec, ctx))
}

func (d *Incomplete) inspect(p *packet.Packet, rec *flowcache.Record, ctx snic.Ctx) (Verdict, float64) {
	if !p.IsTCP() || rec == nil {
		return 0, 0
	}
	d.totalPkts++
	var k packet.FlowKey
	identity(p, rec, ctx, &k)
	switch {
	case p.Flags.Has(packet.FlagSYN) && !p.Flags.Has(packet.FlagACK):
		// Past the bound a SYN is not tracked: no state, no pin, no entry.
		if rec.State&stateSYNSeen == 0 && len(d.pending) < maxPendingProbes {
			rec.State |= stateSYNSeen
			d.pending[k] = pendingProbe{src: p.Tuple.SrcIP, dst: p.Tuple.DstIP, ts: p.Ts}
			d.hostPkts++ // flow record examined host-side
			return VPin, 25
		}
	case p.PayloadLen > 0:
		if rec.State&stateDataSeen == 0 {
			rec.State |= stateDataSeen
			if _, ok := d.pending[k]; ok {
				delete(d.pending, k)
				return VUnpin, 25
			}
		}
	}
	return 0, 8
}

// Tick expires silent half-open flows, oldest first, and counts them per
// source.
func (d *Incomplete) Tick(now int64) {
	d.due = takeDue(d.pending, now, d.timeoutNs, d.due)
	for _, e := range d.due {
		d.hooks.Unpin(e.key)
		s := d.sources[e.src]
		s.count++
		if s.count >= d.threshold && !s.flagged {
			s.flagged = true
			d.emit(Alert{
				Detector: "tcp-incomplete", Ts: now, Attacker: e.src, Victim: e.dst,
				Info: fmt.Sprintf("%d incomplete flows", s.count),
			})
		}
		d.sources[e.src] = s
	}
}

// HostShare returns the Table 2 host-processed fraction.
func (d *Incomplete) HostShare() float64 {
	if d.totalPkts == 0 {
		return 0
	}
	return float64(d.hostPkts) / float64(d.totalPkts)
}

// ---------------------------------------------------------------------------

// DNSAmplification computes the response/request amplification factor per
// DNS session entirely on the sNIC (the phi-variable substitution of
// §5.1.3): request bytes in the low half of the record state, response
// bytes in the high half.
type DNSAmplification struct {
	alertBuf
	factor  float64
	minResp uint64
	alerted map[packet.FlowKey]bool
}

// NewDNSAmplification builds the detector: sessions whose response volume
// exceeds factor times the request volume (and minResp bytes total) are
// reported.
func NewDNSAmplification(factor float64, minResp uint64) *DNSAmplification {
	if factor <= 1 {
		factor = 10
	}
	if minResp == 0 {
		minResp = 4096
	}
	return &DNSAmplification{factor: factor, minResp: minResp, alerted: map[packet.FlowKey]bool{}}
}

// Name implements Detector.
func (d *DNSAmplification) Name() string { return "dns-amplification" }

// OnPacket implements Detector.
func (d *DNSAmplification) OnPacket(p *packet.Packet, rec *flowcache.Record, ctx snic.Ctx) Reaction {
	return expand(d.inspect(p, rec, ctx))
}

func (d *DNSAmplification) inspect(p *packet.Packet, rec *flowcache.Record, ctx snic.Ctx) (Verdict, float64) {
	if !p.IsUDP() || (p.Tuple.DstPort != 53 && p.Tuple.SrcPort != 53) || rec == nil {
		return 0, 0
	}
	req := rec.State & 0xffffffff
	resp := rec.State >> 32
	if p.Tuple.DstPort == 53 {
		req += uint64(p.Size)
	} else {
		resp += uint64(p.Size)
	}
	if req > 0xffffffff {
		req = 0xffffffff
	}
	if resp > 0xffffffff {
		resp = 0xffffffff
	}
	rec.State = resp<<32 | req
	var k packet.FlowKey
	identity(p, rec, ctx, &k)
	// Reflection fires on an extreme response/request ratio; sessions with
	// no observed request at all (unsolicited large answers) are the
	// purest reflection signal.
	amplified := resp >= d.minResp && req > 0 && float64(resp) >= d.factor*float64(req)
	unsolicited := req == 0 && resp >= 4*d.minResp
	if !d.alerted[k] && (amplified || unsolicited) {
		d.alerted[k] = true
		victim, resolver := p.Tuple.DstIP, p.Tuple.SrcIP
		if p.Tuple.DstPort == 53 {
			victim, resolver = p.Tuple.SrcIP, p.Tuple.DstIP
		}
		d.emit(Alert{
			Detector: "dns-amplification", Ts: p.Ts, Flow: k,
			Attacker: resolver, Victim: victim,
			Info: fmt.Sprintf("amplification %0.1fx (%dB resp / %dB req)", float64(resp)/float64(req), resp, req),
		})
	}
	return 0, 20
}

// Tick implements Detector.
func (d *DNSAmplification) Tick(int64) {}

// ---------------------------------------------------------------------------

// Worm is the EarlyBird-style detector (Singh et al.): an invariant
// payload signature spreading to many distinct destinations marks worm
// propagation. Signatures and destination sets live in the sNIC's
// linear-array memory (the paper's L).
type Worm struct {
	alertBuf
	threshold int
	maxSigs   int
	sigs      map[uint64]map[packet.Addr]bool
	srcs      map[uint64]map[packet.Addr]bool
	alerted   map[uint64]bool
}

// NewWorm builds the detector: signatures reaching threshold distinct
// destinations are reported. maxSigs bounds tracked signatures.
func NewWorm(threshold, maxSigs int) *Worm {
	if threshold <= 0 {
		threshold = 16
	}
	if maxSigs <= 0 {
		maxSigs = 1 << 16
	}
	return &Worm{
		threshold: threshold, maxSigs: maxSigs,
		sigs: map[uint64]map[packet.Addr]bool{}, srcs: map[uint64]map[packet.Addr]bool{},
		alerted: map[uint64]bool{},
	}
}

// Name implements Detector.
func (d *Worm) Name() string { return "earlybird-worm" }

// OnPacket implements Detector.
func (d *Worm) OnPacket(p *packet.Packet, rec *flowcache.Record, ctx snic.Ctx) Reaction {
	return expand(d.inspect(p, rec, ctx))
}

func (d *Worm) inspect(p *packet.Packet, _ *flowcache.Record, _ snic.Ctx) (Verdict, float64) {
	sig := p.App.PayloadSig
	if sig == 0 {
		return 0, 0
	}
	dsts := d.sigs[sig]
	if dsts == nil {
		if len(d.sigs) >= d.maxSigs {
			return 0, 15
		}
		dsts = map[packet.Addr]bool{}
		d.sigs[sig] = dsts
		d.srcs[sig] = map[packet.Addr]bool{}
	}
	dsts[p.Tuple.DstIP] = true
	d.srcs[sig][p.Tuple.SrcIP] = true
	if len(dsts) >= d.threshold && !d.alerted[sig] {
		d.alerted[sig] = true
		// One alert per source, in address order — never the map's.
		srcs := make([]packet.Addr, 0, len(d.srcs[sig]))
		for src := range d.srcs[sig] {
			srcs = append(srcs, src)
		}
		slices.Sort(srcs)
		for _, src := range srcs {
			d.emit(Alert{
				Detector: "earlybird-worm", Ts: p.Ts, Attacker: src,
				Info: fmt.Sprintf("signature %#x hit %d destinations", sig, len(dsts)),
			})
		}
	}
	return 0, 25
}

// Tick implements Detector.
func (d *Worm) Tick(int64) {}

// ---------------------------------------------------------------------------

// SSLExpiry mirrors Zeek's expiring-certs policy: TLS handshakes
// presenting certificates that expire within the horizon are reported
// once per server.
type SSLExpiry struct {
	alertBuf
	horizonNs int64
	alerted   map[packet.Addr]bool
	// host share accounting (certificate parsing happens host-side).
	hostPkts, totalPkts uint64
}

// NewSSLExpiry builds the detector.
func NewSSLExpiry(horizonNs int64) *SSLExpiry {
	if horizonNs <= 0 {
		horizonNs = 30 * 24 * 3600 * 1e9
	}
	return &SSLExpiry{horizonNs: horizonNs, alerted: map[packet.Addr]bool{}}
}

// Name implements Detector.
func (d *SSLExpiry) Name() string { return "ssl-expiry" }

// OnPacket implements Detector.
func (d *SSLExpiry) OnPacket(p *packet.Packet, rec *flowcache.Record, ctx snic.Ctx) Reaction {
	return expand(d.inspect(p, rec, ctx))
}

func (d *SSLExpiry) inspect(p *packet.Packet, _ *flowcache.Record, _ snic.Ctx) (Verdict, float64) {
	if p.Tuple.DstPort != 443 && p.Tuple.SrcPort != 443 {
		return 0, 0
	}
	d.totalPkts++
	if p.App.TLSCertExpiry == 0 {
		return 0, 5
	}
	// Certificate packets go to the host NF for parsing.
	d.hostPkts++
	server := p.Tuple.SrcIP // the certificate travels server -> client
	if p.App.TLSCertExpiry-p.Ts < d.horizonNs && !d.alerted[server] {
		d.alerted[server] = true
		d.emit(Alert{
			Detector: "ssl-expiry", Ts: p.Ts, Victim: server,
			Info: fmt.Sprintf("certificate expires within horizon (notAfter=%d)", p.App.TLSCertExpiry),
		})
	}
	return VToHost, 30
}

// Tick implements Detector.
func (d *SSLExpiry) Tick(int64) {}

// HostShare returns the Table 2 host-processed fraction.
func (d *SSLExpiry) HostShare() float64 {
	if d.totalPkts == 0 {
		return 0
	}
	return float64(d.hostPkts) / float64(d.totalPkts)
}
