package tier

import (
	"testing"
	"unsafe"

	"smartwatch/internal/packet"
)

// TestContextResetClearsEverything: Reset re-points the context and clears
// the verdict; the context stays the four fields the steer stage uses
// (40 bytes zeroed per packet in the platform's identity prep).
func TestContextResetClearsEverything(t *testing.T) {
	p1 := packet.Packet{Size: 1}
	p2 := packet.Packet{Size: 2}
	ctx := Context{}
	ctx.Reset(&p1)
	ctx.Verdict = ForwardDirect
	ctx.Reset(&p2)
	if ctx != (Context{Pkt: &p2}) {
		t.Errorf("Reset left residue: %+v", ctx)
	}
	if size := unsafe.Sizeof(ctx); size > 48 {
		t.Errorf("Context is %d bytes, want <= 48: it carries inter-stage state again", size)
	}
}

// TestContextResetClearsFlowID: Reset must clear the flow identity like
// every other per-packet field.
func TestContextResetClearsFlowID(t *testing.T) {
	p := packet.Packet{Size: 1}
	ctx := Context{}
	ctx.Reset(&p)
	ctx.Hash = 42
	ctx.Key = packet.FlowKey{LoPort: 1}
	ctx.Reset(&p)
	if ctx.Hash != 0 || ctx.Key != (packet.FlowKey{}) {
		t.Errorf("Reset left flow-ID residue: %+v", ctx)
	}
}
