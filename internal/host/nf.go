package host

import (
	"fmt"

	"smartwatch/internal/packet"
)

// NF is a host network function fed by the host's SR-IOV port (§3.4): a
// Zeek-style analyzer of the packets the sNIC sends up.
type NF interface {
	// HandlePacket processes one punted packet.
	HandlePacket(p *packet.Packet)
}

// Ports is the host's NF slot: every packet the sNIC sends up goes to the
// one attached NF, if any.
type Ports struct {
	nf    NF
	store *FlowStore
}

// NewPorts builds an empty slot; store is charged PacketNs per delivered
// packet.
func NewPorts(store *FlowStore) *Ports {
	return &Ports{store: store}
}

// Attach installs the NF; a nil one or a second one is refused.
func (ps *Ports) Attach(nf NF) error {
	if nf == nil {
		return fmt.Errorf("host: nil NF")
	}
	if ps.nf != nil {
		return fmt.Errorf("host: an NF is already attached")
	}
	ps.nf = nf
	return nil
}

// Deliver hands one punted packet to the NF and charges the store for it;
// with no NF attached the packet costs nothing.
func (ps *Ports) Deliver(p *packet.Packet) {
	if ps.nf == nil {
		return
	}
	ps.store.ChargePacket()
	ps.nf.HandlePacket(p)
}
