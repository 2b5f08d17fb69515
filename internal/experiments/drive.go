package experiments

import (
	"fmt"

	"smartwatch/internal/core"
	"smartwatch/internal/flowcache"
	"smartwatch/internal/packet"
)

// drive is how a figure runs the product rather than one component of it:
// core.New, a session, the stream ingested, Drain — the path
// cmd/smartwatch takes, control loop included (pins and unpins, switch
// whitelists and blacklists, detector ticks, interval flushes). A figure is
// the Config, the stream and what it reads afterwards from the Report, the
// platform (switch, host flow store, FlowCache) and the detectors it built.
type drive struct {
	cfg core.Config
	// setup runs on the platform before its first packet: attach a host
	// NF, observe the bus.
	setup func(*core.Platform)
	// between, when set, runs under Exec after every `every` packets.
	every   int
	between func(*core.Platform)
	// tailNs advances the clock that far past the last packet before the
	// drain, so timer work due after the trace runs (idle deadlines, held
	// resets, unanswered probes).
	tailNs int64
}

// run drives s and returns the drained platform and its report. A failed
// drive, or a FlowCache that fails CheckInvariants afterwards, fails the
// figure.
func (d drive) run(s packet.Stream) (*core.Platform, core.Report) {
	pl := core.New(d.cfg)
	if d.setup != nil {
		d.setup(pl)
	}
	ses := pl.NewSession()
	check := func(err error) {
		if err != nil {
			panic(fmt.Sprintf("experiments: drive: %v", err))
		}
	}
	check(ses.Start())
	chunk, last := 512, int64(0)
	if d.between != nil {
		chunk = d.every
	}
	for b := range packet.BufferedBatches(s, chunk) {
		last = b[len(b)-1].Ts
		check(ses.Ingest(b))
		if d.between != nil && len(b) == chunk {
			check(ses.Exec(d.between))
		}
	}
	if d.tailNs > 0 {
		check(ses.Exec(func(pl *core.Platform) { pl.AdvanceClock(last + d.tailNs) }))
	}
	rep, err := ses.Drain()
	check(err)
	check(pl.Cache().CheckInvariants())
	return pl, rep
}

// detectCache is the FlowCache the detection figures run on: 2^rowBits
// rows and 2^18-entry eviction rings.
func detectCache(rowBits int) flowcache.Config {
	cfg := flowcache.DefaultConfig(rowBits)
	cfg.RingEntries = 1 << 18
	return cfg
}
