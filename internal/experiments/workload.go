package experiments

import (
	"smartwatch/internal/packet"
	"smartwatch/internal/stats"
)

// stressStream is the 64 B stress workload shared by the FlowCache
// figures: a Zipf elephant population plus a churn of short-lived mice
// flows, each arriving as a small train of packets interleaved with other
// traffic — the three CAIDA properties §3.2 names (elephants dominate,
// mice collide, packets arrive in trains). Re-timed to the offered rate by
// the caller.
func stressStream(n, flows int, churn float64, seed uint64) packet.Stream {
	return func(yield func(packet.Packet) bool) {
		rng := stats.NewRand(seed)
		z := stats.NewZipf(rng, flows, 1.2)
		next := 1 << 24
		mouse, mouseLeft := 0, 0
		for i := 0; i < n; i++ {
			var fl int
			switch {
			case mouseLeft > 0 && rng.Float64() < 0.5:
				// Continue the active mouse's packet train.
				fl = mouse
				mouseLeft--
			case rng.Float64() < churn:
				next++
				fl = next
				mouse, mouseLeft = fl, 2+rng.IntN(3)
			default:
				fl = z.Sample()
			}
			p := packet.Packet{
				Ts: int64(i),
				Tuple: packet.FiveTuple{
					SrcIP: packet.Addr(fl*2654435761 + 17), DstIP: packet.Addr(fl + 3),
					SrcPort: uint16(fl), DstPort: 443, Proto: packet.ProtoTCP,
				},
				Size: 64,
			}
			if !yield(p) {
				return
			}
		}
	}
}
