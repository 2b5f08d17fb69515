package detect

import (
	"fmt"
	"sort"

	"smartwatch/internal/flowcache"
	"smartwatch/internal/packet"
	"smartwatch/internal/snic"
	"smartwatch/internal/stats"
)

// PortScan is the stealthy-scan detector of §5.1.3: the sNIC determines
// each connection attempt's outcome phi (three-way handshake completed or
// not) by tracking per-packet state with pinned FlowCache records; the
// host runs Jung et al.'s Threshold-Random-Walk hypothesis test per remote
// source over the exported indicator variables. No packets are forwarded
// to the host — only flow records.
type PortScan struct {
	alertBuf
	cfg     PortScanConfig
	hooks   Hooks
	trw     stats.TRWTest
	sources map[packet.Addr]scanSource
	// flaggedBits has flagBit(a) set for every flagged source a. Every TCP
	// packet asks whether its source is flagged; the bit answers almost all
	// of them without probing sources, which holds every source a scan
	// ever touched (6 % of a backbone pass when every packet probed it).
	flaggedBits uint64
	pending     map[packet.FlowKey]pendingProbe
	due         []dueProbe // Tick's scratch
}

// flagBit is a's bit in PortScan.flaggedBits: the top six bits of a
// Fibonacci hash, so neighbouring addresses spread over the word.
func flagBit(a packet.Addr) uint64 { return 1 << (uint64(a) * 0x9e3779b97f4a7c15 >> 58) }

// scanSource is one remote source's state, stored by value: its TRW walk
// and whether it has been flagged. 24 bytes, so a new source costs a map
// slot, not a heap object.
type scanSource struct {
	walk    stats.TRWWalk
	flagged bool
}

// maxPendingProbes is the default bound on a detector's half-open
// tracking table (PortScanConfig.MaxPending; Incomplete's fixed bound).
const maxPendingProbes = 1 << 16

type pendingProbe struct {
	src packet.Addr
	dst packet.Addr
	ts  int64
}

// dueProbe is a pending probe whose response timeout has run out.
type dueProbe struct {
	key packet.FlowKey
	pendingProbe
}

// takeDue removes from pending every probe that has waited timeoutNs by
// now and returns them oldest first, equal timestamps by key. Tick acts in
// that order — the alerts it emits, and whose destination a
// threshold-crossing alert names — never in the map's. buf is reused.
func takeDue(pending map[packet.FlowKey]pendingProbe, now, timeoutNs int64, buf []dueProbe) []dueProbe {
	buf = buf[:0]
	for k, pp := range pending {
		if now-pp.ts >= timeoutNs {
			buf = append(buf, dueProbe{k, pp})
			delete(pending, k)
		}
	}
	if len(buf) < 2 {
		return buf // most ticks: nothing to order, and sort.Slice allocates
	}
	sort.Slice(buf, func(i, j int) bool {
		a, b := &buf[i], &buf[j]
		if a.ts != b.ts {
			return a.ts < b.ts
		}
		return keyLess(a.key, b.key)
	})
	return buf
}

// keyLess orders flow keys field by field.
func keyLess(a, b packet.FlowKey) bool {
	switch {
	case a.LoIP != b.LoIP:
		return a.LoIP < b.LoIP
	case a.HiIP != b.HiIP:
		return a.HiIP < b.HiIP
	case a.LoPort != b.LoPort:
		return a.LoPort < b.LoPort
	case a.HiPort != b.HiPort:
		return a.HiPort < b.HiPort
	}
	return a.Proto < b.Proto
}

// PortScanConfig parameterises the detector.
type PortScanConfig struct {
	// ResponseTimeoutNs is how long a SYN may wait for a SYN-ACK/RST
	// before the attempt counts as failed (no response).
	ResponseTimeoutNs int64
	// TRW is the sequential-test operating point.
	TRW stats.TRWConfig
	// Hooks receives blacklist requests.
	Hooks Hooks
	// MaxPending bounds the half-open tracking table (default 1 << 16). A
	// SYN past it is not tracked: no record state, no pin, no entry.
	MaxPending int
}

// NewPortScan builds the detector.
func NewPortScan(cfg PortScanConfig) *PortScan {
	if cfg.ResponseTimeoutNs <= 0 {
		cfg.ResponseTimeoutNs = 2e9
	}
	if cfg.TRW == (stats.TRWConfig{}) {
		cfg.TRW = stats.DefaultTRWConfig()
	}
	if cfg.Hooks == nil {
		cfg.Hooks = NopHooks{}
	}
	if cfg.MaxPending <= 0 {
		cfg.MaxPending = maxPendingProbes
	}
	return &PortScan{
		cfg: cfg, hooks: cfg.Hooks,
		trw:     stats.NewTRWTest(cfg.TRW),
		sources: map[packet.Addr]scanSource{},
		pending: map[packet.FlowKey]pendingProbe{},
	}
}

// Name implements Detector.
func (d *PortScan) Name() string { return "portscan" }

// OnPacket implements Detector.
func (d *PortScan) OnPacket(p *packet.Packet, rec *flowcache.Record, ctx snic.Ctx) Reaction {
	return expand(d.inspect(p, rec, ctx))
}

func (d *PortScan) inspect(p *packet.Packet, rec *flowcache.Record, ctx snic.Ctx) (Verdict, float64) {
	if !p.IsTCP() || rec == nil {
		return 0, 0
	}
	var v Verdict
	var k packet.FlowKey
	identity(p, rec, ctx, &k)
	switch {
	case p.Flags.Has(packet.FlagSYN) && !p.Flags.Has(packet.FlagACK):
		// A probe the pending table has no room for is not tracked at all:
		// pinned without an entry, nothing would ever unpin it.
		if rec.State&(stateSYNSeen|stateOutcomeReported) == 0 && len(d.pending) < d.cfg.MaxPending {
			rec.State |= stateSYNSeen
			rec.StateTs = p.Ts
			// Pin until the outcome is determined (§3.2 pinning).
			v |= VPin
			d.pending[k] = pendingProbe{src: p.Tuple.SrcIP, dst: p.Tuple.DstIP, ts: p.Ts}
		}
	case p.Flags.Has(packet.FlagSYN | packet.FlagACK):
		if rec.State&stateSYNSeen != 0 && rec.State&stateOutcomeReported == 0 {
			rec.State |= stateSYNACKSeen | stateOutcomeReported
			v |= VUnpin
			if pp, ok := d.pending[k]; ok {
				d.observe(pp.src, true, p.Ts)
				delete(d.pending, k)
			}
		}
	case p.Flags.Has(packet.FlagRST):
		// RST answering a probe: failed attempt (closed port).
		if rec.State&stateSYNSeen != 0 && rec.State&stateOutcomeReported == 0 {
			rec.State |= stateOutcomeReported
			v |= VUnpin
			if pp, ok := d.pending[k]; ok {
				d.observe(pp.src, false, p.Ts)
				delete(d.pending, k)
			}
		}
	}
	if src := p.Tuple.SrcIP; d.flaggedBits&flagBit(src) != 0 && d.sources[src].flagged {
		v |= VDrop
	}
	return v, 30
}

// observe feeds one indicator variable into the source's TRW walk.
func (d *PortScan) observe(src packet.Addr, success bool, ts int64) {
	s := d.sources[src]
	if d.trw.Observe(&s.walk, success) == stats.TRWScanner && !s.flagged {
		s.flagged = true
		d.flaggedBits |= flagBit(src)
		d.hooks.Blacklist(src)
		d.emit(Alert{
			Detector: "portscan", Ts: ts, Attacker: src,
			Info: fmt.Sprintf("TRW verdict scanner after %d attempts", s.walk.Observations()),
		})
	}
	d.sources[src] = s
}

// Tick sweeps timed-out probes, oldest first: no response means a failed
// attempt (filtered port / dead host).
func (d *PortScan) Tick(now int64) {
	d.due = takeDue(d.pending, now, d.cfg.ResponseTimeoutNs, d.due)
	for _, e := range d.due {
		d.hooks.Unpin(e.key)
		d.observe(e.src, false, now)
	}
}

// Flagged reports whether the source is classified as a scanner.
func (d *PortScan) Flagged(a packet.Addr) bool { return d.sources[a].flagged }

// Verdict returns the TRW state for a source (pending if never observed).
func (d *PortScan) Verdict(a packet.Addr) stats.TRWVerdict {
	s := d.sources[a]
	return s.walk.Verdict()
}
