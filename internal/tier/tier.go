// Package tier defines the explicit tier pipeline of the SmartWatch
// platform: Ingest → Steer → Datapath → Host, the paper's three
// cooperating layers (P4 switch, sNIC FlowCache, host NFs) plus the
// ingest bookkeeping that feeds them. Each packet travels as one Context
// through an ordered list of Stages; cross-tier control actions (detector
// verdicts, interval flushes, mode switchovers, whitelist/blacklist
// installs) travel as typed events on the Bus instead of direct
// struct-to-struct calls, so every tier can be sharded, swapped or
// observed independently (DESIGN.md §8).
//
// The package deliberately knows nothing about internal/core or
// internal/detect: stages live next to the tier they model (p4switch,
// host) or in core where they glue tiers together, and the dependency
// arrows all point here, never back out.
package tier

import (
	"smartwatch/internal/flowcache"
	"smartwatch/internal/packet"
	"smartwatch/internal/snic"
)

// Verdict is a stage's terminal decision about one packet. Continue hands
// the packet to the next stage; anything else short-circuits the pipeline.
type Verdict uint8

// Verdicts.
const (
	// Continue passes the packet to the next stage.
	Continue Verdict = iota
	// ForwardDirect bypasses the remaining tiers entirely (switch fast
	// path for whitelisted/unsteered traffic).
	ForwardDirect
	// DropAtSwitch discards the packet at the switch (blacklist hit).
	DropAtSwitch
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case ForwardDirect:
		return "forward-direct"
	case DropAtSwitch:
		return "drop-at-switch"
	default:
		return "continue"
	}
}

// Context carries one packet through the pipeline. A single Context is
// reused across packets by each driving goroutine (Reset clears it), so
// stages must not retain pointers into it past Handle.
type Context struct {
	// Pkt is the packet under processing.
	Pkt *packet.Packet
	// SNIC carries datapath observations (queueing delay) for stages that
	// run inside the sNIC simulation; zero on the wire side.
	SNIC snic.Ctx
	// Verdict short-circuits the pipeline when set != Continue.
	Verdict Verdict
	// Rec is the packet's FlowCache record, set by the datapath stage (nil
	// on a host punt).
	Rec *flowcache.Record
	// Res is the FlowCache operation report for this packet.
	Res flowcache.Result
	// Punted marks a packet the datapath could not hold (every candidate
	// record pinned): the host takes it whole.
	Punted bool
	// ToHost marks a packet a detector forwarded to a host NF.
	ToHost bool
	// HostDeliveries counts SR-IOV deliveries performed for this packet
	// (a punted packet a detector also forwards is delivered twice, as on
	// the hardware).
	HostDeliveries int
	// Cost is the sNIC cost the datapath reports to the simulator.
	Cost snic.Cost

	// Hash and Key are the packet's flow hash and canonical key, set by
	// the driver after Reset so stages need not re-canonicalise the
	// tuple. Stages must treat them as read-only.
	Hash uint64
	Key  packet.FlowKey
}

// Reset prepares the context for a new packet, clearing every per-packet
// field.
func (c *Context) Reset(p *packet.Packet) {
	*c = Context{Pkt: p}
}

// Stage is one tier of the pipeline.
type Stage interface {
	// Name identifies the stage ("ingest", "steer", "datapath", "host").
	Name() string
	// Handle processes the packet, mutating the context.
	Handle(ctx *Context)
}

// Pipeline is an ordered list of stages sharing a Context per packet.
type Pipeline struct {
	stages []Stage
	// scratch is ProcessBatch's survivor vector, reused across batches.
	scratch []*Context
	// m is the optional per-stage instrumentation (nil when metrics are
	// disabled; see Instrument).
	m *pipelineMetrics
}

// NewPipeline builds a pipeline; nil stages are skipped.
func NewPipeline(stages ...Stage) *Pipeline {
	pl := &Pipeline{}
	for _, s := range stages {
		if s != nil {
			pl.stages = append(pl.stages, s)
		}
	}
	return pl
}

// Process runs the stages in order, stopping at the first non-Continue
// verdict, which it returns.
func (pl *Pipeline) Process(ctx *Context) Verdict {
	for i, s := range pl.stages {
		s.Handle(ctx)
		if pl.m != nil {
			pl.ObserveStage(i, ctx)
		}
		if ctx.Verdict != Continue {
			return ctx.Verdict
		}
	}
	return ctx.Verdict
}

// Names lists the stage names in execution order.
func (pl *Pipeline) Names() []string {
	out := make([]string, len(pl.stages))
	for i, s := range pl.stages {
		out[i] = s.Name()
	}
	return out
}
