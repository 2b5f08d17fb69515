package detect

import (
	"fmt"

	"smartwatch/internal/flowcache"
	"smartwatch/internal/packet"
	"smartwatch/internal/snic"
	"smartwatch/internal/stats"
)

// CovertTiming is the covert-timing-channel detector of §5.2.1: the
// switch's range pre-checks steer suspicious flows to the sNIC, which
// keeps fine-grained (1 µs) inter-packet-delay histograms for programmed
// flows — pinned in the FlowCache — and a CME runs a two-sample
// Kolmogorov–Smirnov test against a known-good IPD distribution when the
// timer expires. Flows whose distribution deviates are modulated channels.
type CovertTiming struct {
	alertBuf
	cfg        CovertTimingConfig
	reference  *stats.Histogram
	flows      map[packet.FlowKey]*covertFlow
	programAll bool
}

type covertFlow struct {
	hist    *stats.Histogram
	lastTs  int64
	hasLast bool
	decided bool
	// positive marks the KS verdict once decided.
	positive bool
}

// CovertTimingConfig parameterises the detector.
type CovertTimingConfig struct {
	// BinNs / Bins shape the IPD histogram (paper: 1 µs bins over
	// 1–100 µs).
	BinNs float64
	Bins  int
	// BenignIPDs is the training sample of known-good delays (ns).
	BenignIPDs []float64
	// DThreshold is the KS-statistic decision threshold.
	DThreshold float64
	// MinSamples before a verdict is attempted.
	MinSamples uint64
}

// NewCovertTiming builds the detector.
func NewCovertTiming(cfg CovertTimingConfig) *CovertTiming {
	if cfg.BinNs <= 0 {
		cfg.BinNs = 1e3
	}
	if cfg.Bins <= 0 {
		cfg.Bins = 100
	}
	if cfg.DThreshold <= 0 {
		cfg.DThreshold = 0.25
	}
	if cfg.MinSamples == 0 {
		cfg.MinSamples = 50
	}
	d := &CovertTiming{cfg: cfg, flows: map[packet.FlowKey]*covertFlow{}}
	d.reference = stats.NewHistogram(0, cfg.BinNs*float64(cfg.Bins), cfg.Bins)
	for _, ipd := range cfg.BenignIPDs {
		d.reference.Add(ipd)
	}
	return d
}

// Name implements Detector.
func (d *CovertTiming) Name() string { return "covert-timing" }

// Program registers a suspicious flow for fine-grained IPD collection
// (called by the control loop when the switch pre-check fires).
func (d *CovertTiming) Program(k packet.FlowKey) {
	if _, ok := d.flows[k]; !ok {
		d.flows[k] = &covertFlow{
			hist: stats.NewHistogram(0, d.cfg.BinNs*float64(d.cfg.Bins), d.cfg.Bins),
		}
	}
}

// ProgramAll treats every observed flow as programmed (standalone
// deployments without a switch pre-check).
func (d *CovertTiming) ProgramAll() { d.programAll = true }

// OnPacket implements Detector.
func (d *CovertTiming) OnPacket(p *packet.Packet, rec *flowcache.Record, ctx snic.Ctx) Reaction {
	return expand(d.inspect(p, rec, ctx))
}

func (d *CovertTiming) inspect(p *packet.Packet, rec *flowcache.Record, ctx snic.Ctx) (Verdict, float64) {
	var k packet.FlowKey
	identity(p, rec, ctx, &k)
	cf := d.flows[k]
	if cf == nil {
		if !d.programAll {
			return 0, 0
		}
		d.Program(k)
		cf = d.flows[k]
	}
	var v Verdict
	if rec != nil && !ctx.Pinned {
		v = VPin // programmed flows must not be evicted (§5.2.1)
	}
	if cf.hasLast {
		cf.hist.Add(float64(p.Ts - cf.lastTs))
	}
	cf.lastTs, cf.hasLast = p.Ts, true
	return v, 25
}

// Tick runs the CME-side KS tests for flows with enough samples.
func (d *CovertTiming) Tick(now int64) {
	if d.reference.Total() == 0 {
		return
	}
	n := len(d.alerts)
	for k, cf := range d.flows {
		if cf.decided || cf.hist.Total() < d.cfg.MinSamples {
			continue
		}
		dstat := stats.KSStatHist(cf.hist, d.reference)
		cf.decided = true
		cf.positive = dstat > d.cfg.DThreshold
		if cf.positive {
			d.emit(Alert{
				Detector: "covert-timing", Ts: now, Flow: k,
				Info: fmt.Sprintf("IPD distribution deviates (KS D=%.3f > %.3f)", dstat, d.cfg.DThreshold),
			})
		}
	}
	d.sortTick(n)
}

// Verdicts returns per-flow decisions (true = modulated channel) for
// decided flows.
func (d *CovertTiming) Verdicts() map[packet.FlowKey]bool {
	out := map[packet.FlowKey]bool{}
	for k, cf := range d.flows {
		if cf.decided {
			out[k] = cf.positive
		}
	}
	return out
}

// MemoryBytes reports the sNIC memory the per-flow bins consume.
func (d *CovertTiming) MemoryBytes() int {
	n := 0
	for _, cf := range d.flows {
		n += cf.hist.MemoryBytes(4)
	}
	return n
}
