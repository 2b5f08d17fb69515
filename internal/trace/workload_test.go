package trace

import (
	"testing"

	"smartwatch/internal/packet"
)

func TestWorkloadDeterminism(t *testing.T) {
	w := NewWorkload(WorkloadConfig{Seed: 7, Flows: 100, PacketRate: 1e6, Duration: 20e6})
	a := packet.Collect(w.Stream())
	b := packet.Collect(w.Stream())
	if len(a) == 0 {
		t.Fatal("empty workload")
	}
	if len(a) != len(b) {
		t.Fatalf("replay lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverges at packet %d", i)
		}
	}
}

func TestWorkloadTimestampsMonotone(t *testing.T) {
	w := NewWorkload(WorkloadConfig{Seed: 3, Flows: 500, PacketRate: 2e6, Duration: 50e6})
	var last int64 = -1
	n := 0
	for p := range w.Stream() {
		if p.Ts < last {
			t.Fatalf("timestamp regression at packet %d: %d < %d", n, p.Ts, last)
		}
		last = p.Ts
		n++
		if p.Ts > 50e6 {
			t.Fatalf("packet beyond duration: %d", p.Ts)
		}
	}
	if n < 50 {
		t.Fatalf("only %d packets generated", n)
	}
}

func TestWorkloadRateApproximation(t *testing.T) {
	// 1 Mpps for 0.1 s of virtual time should give ~100k packets (bursts
	// add some inflation; accept a broad band).
	w := NewWorkload(WorkloadConfig{Seed: 5, Flows: 1000, PacketRate: 1e6, Duration: 1e8})
	n := len(packet.Collect(w.Stream()))
	if n < 60000 || n > 400000 {
		t.Errorf("packet count %d outside plausible band for 1 Mpps x 0.1 s", n)
	}
}

func TestWorkloadHeavyTail(t *testing.T) {
	// A few flows must carry a disproportionate share of packets (the
	// property the FlowCache design depends on).
	w := NewWorkload(WorkloadConfig{Seed: 11, Flows: 2000, ZipfS: 1.2, PacketRate: 2e6, Duration: 1e8})
	counts := map[packet.FlowKey]int{}
	total := 0
	for p := range w.Stream() {
		counts[p.Key()]++
		total++
	}
	if len(counts) < 100 {
		t.Fatalf("too few distinct flows: %d", len(counts))
	}
	// Top 1% of flows should carry >20% of packets.
	top := 0
	maxN := len(counts) / 100
	if maxN < 1 {
		maxN = 1
	}
	best := make([]int, 0, len(counts))
	for _, c := range counts {
		best = append(best, c)
	}
	// Selection without sort package gymnastics: simple partial scan.
	for i := 0; i < maxN; i++ {
		maxIdx := i
		for j := i + 1; j < len(best); j++ {
			if best[j] > best[maxIdx] {
				maxIdx = j
			}
		}
		best[i], best[maxIdx] = best[maxIdx], best[i]
		top += best[i]
	}
	if share := float64(top) / float64(total); share < 0.2 {
		t.Errorf("top 1%% of flows carry only %.1f%% of packets, want heavy tail", share*100)
	}
}

func TestWorkloadTCPHandshakes(t *testing.T) {
	w := NewWorkload(WorkloadConfig{Seed: 9, Flows: 50, PacketRate: 1e6, Duration: 3e7, UDPFraction: 0})
	var syns, synacks, data int
	for p := range w.Stream() {
		switch {
		case p.Flags.Has(packet.FlagSYN | packet.FlagACK):
			synacks++
		case p.Flags.Has(packet.FlagSYN):
			syns++
		case p.PayloadLen > 0:
			data++
		}
	}
	if syns == 0 || synacks == 0 || data == 0 {
		t.Errorf("missing session structure: syn=%d synack=%d data=%d", syns, synacks, data)
	}
}

func TestCAIDAPresetsDiffer(t *testing.T) {
	years := []int{2015, 2016, 2018, 2019}
	counts := map[int]int{}
	for _, y := range years {
		w := CAIDA(y)
		cfg := w.Config()
		cfg.Duration = 2e7
		counts[y] = len(packet.Collect(NewWorkload(cfg).Stream()))
	}
	// Later years are configured with higher rates, so packet counts
	// should broadly increase.
	if !(counts[2019] > counts[2015]) {
		t.Errorf("2019 (%d pkts) should exceed 2015 (%d pkts)", counts[2019], counts[2015])
	}
}

func TestWisconsinDCBurstier(t *testing.T) {
	dc := WisconsinDC()
	if dc.Config().MeanBurst <= CAIDA(2018).Config().MeanBurst {
		t.Errorf("DC preset should be burstier than backbone")
	}
}

func TestWorkloadEarlyStop(t *testing.T) {
	w := NewWorkload(WorkloadConfig{Seed: 1, Flows: 10, PacketRate: 1e6, Duration: 1e9})
	n := 0
	for range w.Stream() {
		n++
		if n == 10 {
			break
		}
	}
	if n != 10 {
		t.Errorf("early stop consumed %d", n)
	}
}

func BenchmarkWorkloadGenerate(b *testing.B) {
	w := NewWorkload(WorkloadConfig{Seed: 1, Flows: 10000, PacketRate: 1e6, Duration: 1e12})
	n := 0
	b.ResetTimer()
	for p := range w.Stream() {
		_ = p
		n++
		if n >= b.N {
			break
		}
	}
}
