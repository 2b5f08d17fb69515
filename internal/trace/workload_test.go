package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"runtime"
	"testing"

	"smartwatch/internal/packet"
)

// manyFlowsConfig is the benchmark's 2^20-flow background population
// (manyflows and churn draw from it) at seed 1 and manyflows' rate.
func manyFlowsConfig() WorkloadConfig {
	return WorkloadConfig{Seed: 1, Flows: 1 << 20, ZipfS: 1.05, PacketRate: 2e6,
		Duration: 600e9, MeanBurst: 3, UDPFraction: 0.12}
}

// streamDigest is the SHA-256 over every field of the first n packets of s.
func streamDigest(s packet.Stream, n int) string {
	h := sha256.New()
	var buf []byte
	i := 0
	for p := range s {
		if i == n {
			break
		}
		i++
		buf = binary.LittleEndian.AppendUint64(buf[:0], uint64(p.Ts))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(p.Tuple.SrcIP))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(p.Tuple.DstIP))
		buf = binary.LittleEndian.AppendUint16(buf, p.Tuple.SrcPort)
		buf = binary.LittleEndian.AppendUint16(buf, p.Tuple.DstPort)
		buf = append(buf, byte(p.Tuple.Proto), byte(p.Flags), byte(p.AuthOutcome))
		buf = binary.LittleEndian.AppendUint16(buf, p.Size)
		buf = binary.LittleEndian.AppendUint16(buf, p.PayloadLen)
		buf = binary.LittleEndian.AppendUint32(buf, p.Seq)
		buf = binary.LittleEndian.AppendUint32(buf, p.Ack)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(p.App.TLSCertExpiry))
		buf = binary.LittleEndian.AppendUint64(buf, p.App.PayloadSig)
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestWorkloadStreamPinned: the first 200 k packets of every preset and of
// the benchmark's 2^20-flow population hash to the values recorded before
// the generator's per-flow state was compacted, so a layout change to the
// generator cannot move a packet.
func TestWorkloadStreamPinned(t *testing.T) {
	cases := []struct {
		name string
		w    *Workload
		want string
	}{
		{"caida2015", CAIDA(2015),
			"83a1f671ba457a98680405568e5efc7092fabbda451622e352d482852fb18ac6"},
		{"caida2016", CAIDA(2016),
			"fe9b37688d918428575aa2a0d7aaa2d93aa3714dfbb0846623f897c1bfc65e7e"},
		{"caida2018", CAIDA(2018),
			"5dae25c48f821285ab112f035f6bd1a8a6a93df9ca19c571004f0e680b619c96"},
		{"caida2019", CAIDA(2019),
			"fdab5713a13b4c49a33afe26ddc62097968b67c4d01fffccc24b1f87a19fc641"},
		{"wisconsin", WisconsinDC(),
			"1787d06a6cf577163453ce207d71a0dc7f87354e61a8346f9c68ebd35c649cb8"},
		{"manyflows", NewWorkload(manyFlowsConfig()),
			"89db3104cf4506dc3e29c0f591b733aea612f7b05190aebe0197139fe2e31075"},
	}
	for _, c := range cases {
		if got := streamDigest(c.w.Stream(), 200_000); got != c.want {
			t.Errorf("%s: stream digest %s, want %s", c.name, got, c.want)
		}
	}
}

// TestWorkloadHeapPerFlow: a 2^20-flow stream allocates at most 30 bytes a
// flow before its first packet — the 20-byte flowState, the Zipf CDF's 8
// and its guide's half — so a generator fits beside a full-size FlowCache.
func TestWorkloadHeapPerFlow(t *testing.T) {
	w := NewWorkload(manyFlowsConfig())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range w.Stream() {
		runtime.ReadMemStats(&after)
		break
	}
	perFlow := float64(after.TotalAlloc-before.TotalAlloc) / float64(w.Config().Flows)
	if perFlow > 30 {
		t.Errorf("generator allocated %.1f B a flow before its first packet, want <= 30", perFlow)
	}
}

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

// BenchmarkWorkloadGenerate draws packets from the benchmark's 2^20-flow
// population. B/flow is what the stream allocates before its first packet
// (the population and its Zipf tables); ns/op is per packet after it.
func BenchmarkWorkloadGenerate(b *testing.B) {
	w := NewWorkload(manyFlowsConfig())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n := 0
	for range w.Stream() {
		if n == 0 {
			runtime.ReadMemStats(&after)
			b.ResetTimer()
		}
		if n++; n > b.N {
			break
		}
	}
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(w.Config().Flows), "B/flow")
}
