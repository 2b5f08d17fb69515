package host

import (
	"fmt"

	"smartwatch/internal/packet"
)

// Verdict is an NF's decision about one packet.
type Verdict uint8

// Verdicts.
const (
	// Pass forwards the packet onward.
	Pass Verdict = iota
	// Hold buffers the packet (e.g. in the timing wheel) pending a
	// decision; the NF releases or drops it later.
	Hold
	// Block drops the packet (IPS action).
	Block
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case Hold:
		return "hold"
	case Block:
		return "block"
	default:
		return "pass"
	}
}

// NF is a host network function fed by a dedicated SR-IOV port (§3.4):
// Zeek-style analyzers, the timing wheel, and anything needing the host's
// memory pool. Implementations also receive interval ticks for timer-based
// work.
type NF interface {
	// Name identifies the function (and its SR-IOV port).
	Name() string
	// HandlePacket processes one punted packet.
	HandlePacket(p *packet.Packet) Verdict
	// Tick fires once per measurement interval with the current virtual
	// time.
	Tick(now int64)
}

// Ports routes punted packets to NFs by destination service port,
// emulating the per-function SR-IOV ports.
type Ports struct {
	byService map[uint16]NF
	catchAll  NF
	// ticked lists each attached NF once (by name), in attach order.
	ticked []NF
	store  *FlowStore
	stats  map[string]*PortStats
}

// PortStats counts one NF's traffic.
type PortStats struct {
	Packets uint64
	Held    uint64
	Blocked uint64
}

// NewPorts builds an empty port map; store (optional) is charged PacketNs
// per delivered packet.
func NewPorts(store *FlowStore) *Ports {
	return &Ports{byService: map[uint16]NF{}, store: store, stats: map[string]*PortStats{}}
}

// Attach binds an NF to a destination service port. Port 0 installs the
// catch-all NF.
func (ps *Ports) Attach(service uint16, nf NF) error {
	if nf == nil {
		return fmt.Errorf("host: nil NF")
	}
	if service == 0 {
		if ps.catchAll != nil {
			return fmt.Errorf("host: catch-all NF already attached")
		}
		ps.catchAll = nf
	} else {
		if _, dup := ps.byService[service]; dup {
			return fmt.Errorf("host: service port %d already attached", service)
		}
		ps.byService[service] = nf
	}
	if ps.stats[nf.Name()] == nil {
		ps.stats[nf.Name()] = &PortStats{}
		ps.ticked = append(ps.ticked, nf)
	}
	return nil
}

// Deliver routes one punted packet to its NF and returns the verdict
// (Pass when no NF claims it).
func (ps *Ports) Deliver(p *packet.Packet) Verdict {
	nf := ps.byService[p.Tuple.DstPort]
	if nf == nil {
		nf = ps.byService[p.Tuple.SrcPort] // reverse-direction packets
	}
	if nf == nil {
		nf = ps.catchAll
	}
	if nf == nil {
		return Pass
	}
	if ps.store != nil {
		ps.store.ChargePacket()
	}
	st := ps.stats[nf.Name()]
	st.Packets++
	v := nf.HandlePacket(p)
	switch v {
	case Hold:
		st.Held++
	case Block:
		st.Blocked++
	}
	return v
}

// Tick fans an interval tick to every attached NF, once per NF name.
func (ps *Ports) Tick(now int64) {
	for _, nf := range ps.ticked {
		nf.Tick(now)
	}
}

// Stats returns per-NF counters.
func (ps *Ports) Stats() map[string]PortStats {
	out := map[string]PortStats{}
	for name, st := range ps.stats {
		out[name] = *st
	}
	return out
}
