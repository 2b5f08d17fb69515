package tier

import (
	"testing"

	"smartwatch/internal/packet"
)

// batchStubStage is a stubStage that also records the vectors it received
// through ProcessBatch; its verdict applies to packets whose Ts is odd.
type batchStubStage struct {
	stubStage
	vectors [][]int64 // Ts values of each received vector
}

func (s *batchStubStage) Handle(ctx *Context) {
	s.calls++
	if s.verdict != Continue && ctx.Pkt.Ts%2 == 1 {
		ctx.Verdict = s.verdict
	}
}

func (s *batchStubStage) ProcessBatch(ctxs []*Context) {
	tss := make([]int64, len(ctxs))
	for i, c := range ctxs {
		tss[i] = c.Pkt.Ts
		s.calls++
		if s.verdict != Continue && c.Pkt.Ts%2 == 1 {
			c.Verdict = s.verdict
		}
	}
	s.vectors = append(s.vectors, tss)
}

func makeCtxs(n int) ([]*Context, []packet.Packet) {
	pkts := make([]packet.Packet, n)
	ctxs := make([]*Context, n)
	for i := range pkts {
		pkts[i] = packet.Packet{Ts: int64(i)}
		ctxs[i] = &Context{}
		ctxs[i].Reset(&pkts[i])
	}
	return ctxs, pkts
}

// TestProcessBatchFallbackShim: a pipeline of plain Stages must run each
// context through every stage, per packet, in order — existing stages
// work under ProcessBatch without implementing BatchStage.
func TestProcessBatchFallbackShim(t *testing.T) {
	a := &stubStage{name: "a"}
	b := &stubStage{name: "b"}
	pl := NewPipeline(a, b)
	ctxs, _ := makeCtxs(5)
	pl.ProcessBatch(ctxs)
	if a.calls != 5 || b.calls != 5 {
		t.Errorf("calls = %d/%d, want 5/5", a.calls, b.calls)
	}
	for i, c := range ctxs {
		if c.Verdict != Continue {
			t.Errorf("ctx %d verdict = %v", i, c.Verdict)
		}
	}
}

// TestProcessBatchVectorDelivery: a BatchStage receives the whole live
// vector in one call, in slice order.
func TestProcessBatchVectorDelivery(t *testing.T) {
	bs := &batchStubStage{stubStage: stubStage{name: "batch"}}
	pl := NewPipeline(bs)
	ctxs, _ := makeCtxs(4)
	pl.ProcessBatch(ctxs)
	if len(bs.vectors) != 1 {
		t.Fatalf("got %d vectors, want 1", len(bs.vectors))
	}
	for i, ts := range bs.vectors[0] {
		if ts != int64(i) {
			t.Errorf("vector[%d] = Ts %d, want %d (order broken)", i, ts, i)
		}
	}
}

// TestProcessBatchCompaction: packets a stage stops must not reach later
// stages, and survivors keep their relative order.
func TestProcessBatchCompaction(t *testing.T) {
	drop := &batchStubStage{stubStage: stubStage{name: "drop-odd", verdict: DropAtSwitch}}
	after := &batchStubStage{stubStage: stubStage{name: "after"}}
	pl := NewPipeline(drop, after)
	ctxs, _ := makeCtxs(6)
	pl.ProcessBatch(ctxs)

	if len(after.vectors) != 1 {
		t.Fatalf("downstream got %d vectors, want 1", len(after.vectors))
	}
	want := []int64{0, 2, 4}
	got := after.vectors[0]
	if len(got) != len(want) {
		t.Fatalf("downstream saw %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("downstream saw %v, want %v (compaction broke order)", got, want)
		}
	}
	for i, c := range ctxs {
		wantV := Continue
		if i%2 == 1 {
			wantV = DropAtSwitch
		}
		if c.Verdict != wantV {
			t.Errorf("ctx %d verdict = %v, want %v", i, c.Verdict, wantV)
		}
	}
}

// TestProcessBatchMatchesProcess: for stages with no cross-packet state,
// ProcessBatch over a vector must leave every context exactly as a
// Process loop would.
func TestProcessBatchMatchesProcess(t *testing.T) {
	build := func() *Pipeline {
		return NewPipeline(
			&stubStage{name: "a"},
			&batchStubStage{stubStage: stubStage{name: "drop-odd", verdict: ForwardDirect}},
			&stubStage{name: "c"},
		)
	}

	ref := build()
	refCtxs, _ := makeCtxs(9)
	for _, c := range refCtxs {
		ref.Process(c)
	}

	pl := build()
	ctxs, _ := makeCtxs(9)
	pl.ProcessBatch(ctxs)

	for i := range ctxs {
		if ctxs[i].Verdict != refCtxs[i].Verdict {
			t.Errorf("ctx %d: batch verdict %v, per-packet %v", i, ctxs[i].Verdict, refCtxs[i].Verdict)
		}
	}
}

// TestProcessBatchEmptyAndReuse: an empty vector is a no-op and the
// pipeline's scratch reuse must not leak contexts across calls.
func TestProcessBatchEmptyAndReuse(t *testing.T) {
	after := &batchStubStage{stubStage: stubStage{name: "after"}}
	pl := NewPipeline(&batchStubStage{stubStage: stubStage{name: "drop-odd", verdict: DropAtSwitch}}, after)

	pl.ProcessBatch(nil)
	if after.calls != 0 {
		t.Fatalf("empty batch reached a stage")
	}

	big, _ := makeCtxs(8)
	pl.ProcessBatch(big)
	small, _ := makeCtxs(2)
	pl.ProcessBatch(small)
	// 8-batch: 4 survivors; 2-batch: 1 survivor. No stale contexts replayed.
	if after.calls != 5 {
		t.Errorf("downstream calls = %d, want 5 (scratch leaked contexts?)", after.calls)
	}
}

// TestContextResetClearsFlowID: Reset must clear the batch-path flow-ID
// fields like every other per-packet field.
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
