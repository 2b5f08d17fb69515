package sketch

import (
	"testing"
	"testing/quick"

	"smartwatch/internal/packet"
	"smartwatch/internal/stats"
)

func key(i int) packet.FlowKey {
	return packet.FiveTuple{
		SrcIP: packet.Addr(i), DstIP: packet.Addr(i + 1<<20),
		SrcPort: uint16(i), DstPort: 80, Proto: packet.ProtoTCP,
	}.Canonical()
}

// zipfWorkload returns per-key exact counts and feeds the counter.
func zipfWorkload(t *testing.T, fc FlowCounter, flows, packets int) Exact {
	t.Helper()
	rng := stats.NewRand(99)
	z := stats.NewZipf(rng, flows, 1.2)
	truth := Exact{}
	for i := 0; i < packets; i++ {
		k := key(z.Sample())
		truth[k]++
		fc.Update(k, 1)
	}
	return truth
}

func TestCountMinOverestimates(t *testing.T) {
	cm := NewCountMin(1024, 3)
	truth := zipfWorkload(t, cm, 5000, 100000)
	for k, tr := range truth {
		if est := cm.Estimate(k); est < tr {
			t.Fatalf("CountMin underestimated %v: %d < %d", k, est, tr)
		}
	}
}

func TestCountMinExactWhenSparse(t *testing.T) {
	cm := NewCountMin(1<<16, 4)
	for i := 0; i < 10; i++ {
		cm.Update(key(i), uint64(i+1))
	}
	for i := 0; i < 10; i++ {
		if est := cm.Estimate(key(i)); est != uint64(i+1) {
			t.Errorf("sparse estimate(%d) = %d, want %d", i, est, i+1)
		}
	}
}

func TestCountMinOps(t *testing.T) {
	cm := NewCountMin(128, 5)
	cm.Update(key(1), 1)
	h, r, w := cm.Ops().PerUpdate()
	if h != 5 || r != 5 || w != 5 {
		t.Errorf("per-update ops = %g/%g/%g, want 5/5/5", h, r, w)
	}
	cm.Reset()
	if cm.Estimate(key(1)) != 0 || cm.Ops().Updates != 0 {
		t.Error("Reset incomplete")
	}
}

func TestElasticHeavyAccuracy(t *testing.T) {
	e := NewElastic(4096, 1<<16)
	truth := zipfWorkload(t, e, 5000, 200000)
	hh := truth.HeavyHitters(1000)
	if len(hh) == 0 {
		t.Skip("workload produced no heavy hitters")
	}
	for _, h := range hh {
		est := e.Estimate(h.Key)
		rel := (float64(est) - float64(h.Count)) / float64(h.Count)
		if rel < -0.2 || rel > 0.2 {
			t.Errorf("heavy flow %v est %d vs true %d (rel %.2f)", h.Key, est, h.Count, rel)
		}
	}
}

func TestElasticInvertible(t *testing.T) {
	e := NewElastic(1024, 1<<14)
	k := key(7)
	e.Update(k, 5000)
	found := false
	for _, h := range e.HeavyHitters(1000) {
		if h.Key == k {
			found = true
			if h.Count != 5000 {
				t.Errorf("count = %d", h.Count)
			}
		}
	}
	if !found {
		t.Error("heavy flow not enumerated")
	}
}

func TestElasticCheaperThanCountMin(t *testing.T) {
	e := NewElastic(1024, 1<<14)
	cm := NewCountMin(1024, 4)
	zipfWorkload(t, e, 2000, 50000)
	zipfWorkload(t, cm, 2000, 50000)
	_, _, ew := e.Ops().PerUpdate()
	_, _, cw := cm.Ops().PerUpdate()
	if ew >= cw {
		t.Errorf("Elastic writes/update %.2f should be below CountMin %.2f", ew, cw)
	}
}

func TestMVSketchMajority(t *testing.T) {
	mv := NewMVSketch(2048, 3)
	truth := zipfWorkload(t, mv, 5000, 200000)
	hh := truth.HeavyHitters(2000)
	if len(hh) == 0 {
		t.Skip("no heavy hitters")
	}
	got := mv.HeavyHitters(2000)
	found := map[packet.FlowKey]bool{}
	for _, h := range got {
		found[h.Key] = true
	}
	misses := 0
	for _, h := range hh {
		if !found[h.Key] {
			misses++
		}
	}
	if misses > len(hh)/4 {
		t.Errorf("MV-Sketch missed %d/%d heavy hitters", misses, len(hh))
	}
}

func TestNitroSamplesFewerOps(t *testing.T) {
	n := NewNitro(4096, 4, 0.05)
	zipfWorkload(t, n, 2000, 100000)
	h, _, _ := n.Ops().PerUpdate()
	// Expected hashes/update = p*d = 0.2.
	if h > 0.5 {
		t.Errorf("Nitro hashes/update = %.2f, want ~0.2", h)
	}
	// Large flows should still be estimated in the right ballpark.
	truth := Exact{}
	n.Reset()
	k := key(3)
	for i := 0; i < 100000; i++ {
		n.Update(k, 1)
		truth[k]++
	}
	est := float64(n.Estimate(k))
	if est < 50000 || est > 200000 {
		t.Errorf("Nitro estimate %g for true 100000", est)
	}
}

func TestExactHelpers(t *testing.T) {
	e := Exact{key(1): 100, key(2): 5, key(3): 200}
	if e.Total() != 305 {
		t.Errorf("Total = %d", e.Total())
	}
	hh := e.HeavyHitters(100)
	if len(hh) != 2 {
		t.Errorf("HH count = %d", len(hh))
	}
}

func TestHeavyChangeKeys(t *testing.T) {
	prev := Exact{key(1): 100, key(2): 50, key(4): 80}
	cur := Exact{key(1): 105, key(2): 500, key(3): 90}
	keys := HeavyChangeKeys(prev, cur, 60)
	want := map[packet.FlowKey]bool{key(2): true, key(3): true, key(4): true}
	if len(keys) != 3 {
		t.Fatalf("changes = %v", keys)
	}
	for _, k := range keys {
		if !want[k] {
			t.Errorf("unexpected change key %v", k)
		}
	}
}

func TestMeanRelativeErrorZeroForExact(t *testing.T) {
	cm := NewCountMin(1<<16, 4)
	truth := Exact{}
	for i := 0; i < 50; i++ {
		k := key(i)
		truth[k] = uint64(10 * (i + 1))
		cm.Update(k, truth[k])
	}
	keys := make([]packet.FlowKey, 0, len(truth))
	for k := range truth {
		keys = append(keys, k)
	}
	if mre := MeanRelativeError(truth, cm, keys); mre > 0.001 {
		t.Errorf("sparse CountMin MRE = %g, want ~0", mre)
	}
}

func TestFlowSizeDistributionError(t *testing.T) {
	cm := NewCountMin(1<<14, 4)
	truth := Exact{}
	rng := stats.NewRand(5)
	for i := 0; i < 2000; i++ {
		k := key(i)
		c := uint64(1 + rng.IntN(10000))
		truth[k] = c
		cm.Update(k, c)
	}
	buckets := FlowSizeDistributionError(truth, cm, 6)
	totalFlows := 0
	for _, b := range buckets {
		totalFlows += b.TrueFlows
		if b.MRE < 0 {
			t.Errorf("negative MRE in bucket %d-%d", b.Lo, b.Hi)
		}
	}
	if totalFlows != 2000 {
		t.Errorf("FSD buckets cover %d flows, want 2000", totalFlows)
	}
}

// Property: for any update sequence, CountMin never underestimates.
func TestCountMinNeverUnderestimatesProperty(t *testing.T) {
	f := func(updates []uint16) bool {
		cm := NewCountMin(64, 3)
		truth := Exact{}
		for _, u := range updates {
			k := key(int(u) % 50)
			cm.Update(k, 1)
			truth[k]++
		}
		for k, tr := range truth {
			if cm.Estimate(k) < tr {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: MV-Sketch total per bucket equals the number of updates hashed
// there, so the estimate can never exceed the total stream length.
func TestMVSketchBoundedProperty(t *testing.T) {
	f := func(updates []uint8) bool {
		mv := NewMVSketch(32, 2)
		for _, u := range updates {
			mv.Update(key(int(u)%20), 1)
		}
		for i := 0; i < 20; i++ {
			if mv.Estimate(key(i)) > uint64(len(updates)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkCountMinUpdate(b *testing.B) {
	cm := NewCountMin(1<<16, 4)
	k := key(1)
	for i := 0; i < b.N; i++ {
		cm.Update(k, 1)
	}
}

func BenchmarkElasticUpdate(b *testing.B) {
	e := NewElastic(1<<14, 1<<18)
	k := key(1)
	for i := 0; i < b.N; i++ {
		e.Update(k, 1)
	}
}

func BenchmarkNitroUpdate(b *testing.B) {
	n := NewNitro(1<<16, 4, 0.05)
	k := key(1)
	for i := 0; i < b.N; i++ {
		n.Update(k, 1)
	}
}
