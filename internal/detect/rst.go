package detect

import (
	"smartwatch/internal/flowcache"
	"smartwatch/internal/host"
	"smartwatch/internal/packet"
	"smartwatch/internal/snic"
)

// ForgedRST is the in-sequence forged-reset detector of §5.1.2. RST
// packets are pinned in the FlowCache and held in a host timing wheel for
// T (2 s by default): a genuine data packet arriving on the same session
// inside that window proves a race — the RST was forged — and the buffered
// RST is discarded instead of reaching the victim. RSTs that survive the
// window are released as genuine. A Bloom filter short-circuits the wheel
// scan for first-seen RSTs (the 411 ns fast path of Fig. 8b); duplicate
// RSTs are themselves an attack indicator.
type ForgedRST struct {
	alertBuf
	hooked
	cfg   ForgedRSTConfig
	wheel *host.TimingWheel[rstEntry]
	bloom *host.Bloom
	// stats for Fig. 8b
	BloomFastPath uint64 // RSTs admitted without a wheel scan
	WheelScans    uint64 // RSTs that required the scan
	Forged        uint64 // discarded forged RSTs
	Released      uint64 // RSTs released as genuine
	Duplicates    uint64 // duplicate RSTs (immediate alert)
}

// ForgedRSTConfig parameterises the detector.
type ForgedRSTConfig struct {
	// TNs is the hold window (paper: 2 s).
	TNs int64
	// WheelSlots / WheelTickNs size the timing wheel.
	WheelSlots  int
	WheelTickNs int64
	// BloomN / BloomFP size the uniqueness filter.
	BloomN  int
	BloomFP float64
	// DisableBloom forces every RST through the timing-wheel scan — the
	// ablation of Fig. 8b's 411 ns fast path.
	DisableBloom bool
}

// rstEntry is the buffered packet.
type rstEntry struct {
	pkt packet.Packet
	key packet.FlowKey
}

// NewForgedRST builds the detector.
func NewForgedRST(cfg ForgedRSTConfig) *ForgedRST {
	if cfg.TNs <= 0 {
		cfg.TNs = 2e9
	}
	if cfg.WheelSlots <= 0 {
		cfg.WheelSlots = 256
	}
	if cfg.WheelTickNs <= 0 {
		cfg.WheelTickNs = cfg.TNs / int64(cfg.WheelSlots/2)
	}
	if cfg.BloomN <= 0 {
		cfg.BloomN = 1 << 16
	}
	if cfg.BloomFP <= 0 {
		cfg.BloomFP = 0.01
	}
	return &ForgedRST{
		cfg:   cfg,
		wheel: host.NewTimingWheel[rstEntry](cfg.WheelSlots, cfg.WheelTickNs),
		bloom: host.NewBloom(cfg.BloomN, cfg.BloomFP),
	}
}

// Name implements Detector.
func (d *ForgedRST) Name() string { return "forged-rst" }

// rstID identifies one (session, seq) reset for uniqueness; h is the
// session key's hash.
func rstID(h uint64, seq uint32) uint64 {
	return packet.Hash64(h ^ uint64(seq)<<1 ^ 0xf02d)
}

// OnPacket implements Detector.
func (d *ForgedRST) OnPacket(p *packet.Packet, rec *flowcache.Record, ctx snic.Ctx) Reaction {
	return expand(d.inspect(p, rec, ctx))
}

func (d *ForgedRST) inspect(p *packet.Packet, rec *flowcache.Record, ctx snic.Ctx) (Verdict, float64) {
	if !p.IsTCP() || rec == nil {
		return 0, 0
	}
	var k packet.FlowKey
	h := identity(p, rec, ctx, &k)
	switch {
	case p.Flags.Has(packet.FlagRST):
		id := rstID(h, p.Seq)
		if d.cfg.DisableBloom || d.bloom.Contains(id) {
			// Possible duplicate: scan the wheel to confirm (Fig. 8b slow
			// path). A live buffered RST for the session = duplicate RST.
			d.WheelScans++
			if d.wheel.Scan(h) > 0 {
				d.Duplicates++
				d.emit(Alert{
					Detector: "forged-rst", Ts: p.Ts, Flow: k,
					Attacker: p.Tuple.SrcIP, Victim: p.Tuple.DstIP,
					Info: "duplicate RST while one is buffered",
				})
				return VDrop, 80
			}
		} else {
			d.BloomFastPath++
		}
		d.bloom.Add(id)
		rec.State |= stateRSTSeen
		rec.StateTs = p.Ts
		// Hold the RST: pinned on the sNIC, buffered on the host until T.
		d.wheel.Schedule(h, p.Ts+d.cfg.TNs, rstEntry{pkt: *p, key: k})
		return VPin | VToHost, 60

	case p.PayloadLen > 0 && rec.State&stateRSTSeen != 0:
		// Race: genuine data while an RST is buffered -> the RST was
		// forged. Discard it and alert.
		if p.Ts-rec.StateTs <= d.cfg.TNs {
			if n := d.wheel.Cancel(h); n > 0 {
				d.Forged += uint64(n)
				d.emit(Alert{
					Detector: "forged-rst", Ts: p.Ts, Flow: k,
					Victim: p.Tuple.DstIP,
					Info:   "data raced a buffered RST: forged reset discarded",
				})
			}
			rec.State &^= stateRSTSeen
			return VUnpin, 50
		}
	}
	return 0, 10
}

// Tick advances the wheel: expired RSTs were genuine and are released to
// their destinations and their pins released.
func (d *ForgedRST) Tick(now int64) {
	for _, e := range d.wheel.Advance(now) {
		d.Released++
		d.unpin(e.Payload.key)
	}
}

// Wheel exposes the underlying timing wheel (scan-cost reporting).
func (d *ForgedRST) Wheel() *host.TimingWheel[rstEntry] { return d.wheel }

// WheelDepth is the number of RSTs held (metrics).
func (d *ForgedRST) WheelDepth() int { return d.wheel.Len() }
