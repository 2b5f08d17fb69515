package detect

import (
	"fmt"

	"smartwatch/internal/flowcache"
	"smartwatch/internal/packet"
	"smartwatch/internal/snic"
	"smartwatch/internal/stats"
)

// Fingerprint is the website-fingerprinting classifier of §5.2.2: for
// flows steered by the switch pre-check it collects packet-length
// distributions (PLDs) in per-flow bins and, on the CME timer, feeds them
// to a multinomial naive Bayes classifier that names the hidden site.
type Fingerprint struct {
	alertBuf
	bins       int
	maxLen     float64
	minPkts    uint64
	classifier *stats.NaiveBayes
	flows      map[packet.FlowKey]*fpFlow
	programAll bool
	monitored  map[string]bool
}

type fpFlow struct {
	hist    *stats.Histogram
	decided bool
	label   string
}

// NewFingerprint builds the classifier-backed detector. classifier must
// be pre-trained on per-site PLD histograms with the same bin count.
// monitored (optional) lists site labels that raise alerts when matched.
func NewFingerprint(bins int, maxLen float64, minPkts uint64, classifier *stats.NaiveBayes, monitored []string) *Fingerprint {
	if bins <= 0 {
		bins = 32
	}
	if maxLen <= 0 {
		maxLen = 1500
	}
	if minPkts == 0 {
		minPkts = 30
	}
	m := map[string]bool{}
	for _, s := range monitored {
		m[s] = true
	}
	return &Fingerprint{
		bins: bins, maxLen: maxLen, minPkts: minPkts,
		classifier: classifier, flows: map[packet.FlowKey]*fpFlow{}, monitored: m,
	}
}

// Name implements Detector.
func (d *Fingerprint) Name() string { return "website-fingerprint" }

// Program registers a steered flow for PLD collection.
func (d *Fingerprint) Program(k packet.FlowKey) {
	if _, ok := d.flows[k]; !ok {
		d.flows[k] = &fpFlow{hist: stats.NewHistogram(0, d.maxLen, d.bins)}
	}
}

// ProgramAll collects PLDs for every observed flow.
func (d *Fingerprint) ProgramAll() { d.programAll = true }

// OnPacket implements Detector.
func (d *Fingerprint) OnPacket(p *packet.Packet, rec *flowcache.Record, ctx snic.Ctx) Reaction {
	return expand(d.inspect(p, rec, ctx))
}

func (d *Fingerprint) inspect(p *packet.Packet, rec *flowcache.Record, ctx snic.Ctx) (Verdict, float64) {
	var k packet.FlowKey
	identity(p, rec, ctx, &k)
	f := d.flows[k]
	if f == nil {
		if !d.programAll {
			return 0, 0
		}
		d.Program(k)
		f = d.flows[k]
	}
	var v Verdict
	if rec != nil && !ctx.Pinned {
		v = VPin
	}
	f.hist.Add(float64(p.Size))
	return v, 20
}

// Tick classifies flows with enough samples (the CME timer).
func (d *Fingerprint) Tick(now int64) {
	if d.classifier == nil {
		return
	}
	n := len(d.alerts)
	for k, f := range d.flows {
		if f.decided || f.hist.Total() < d.minPkts {
			continue
		}
		label, _, err := d.classifier.ClassifyHist(f.hist)
		if err != nil {
			continue
		}
		f.decided = true
		f.label = label
		if d.monitored[label] {
			d.emit(Alert{
				Detector: "website-fingerprint", Ts: now, Flow: k,
				Info: fmt.Sprintf("flow matches monitored site %q", label),
			})
		}
	}
	d.sortTick(n)
}

// Classifications returns decided flow labels.
func (d *Fingerprint) Classifications() map[packet.FlowKey]string {
	out := map[packet.FlowKey]string{}
	for k, f := range d.flows {
		if f.decided {
			out[k] = f.label
		}
	}
	return out
}
