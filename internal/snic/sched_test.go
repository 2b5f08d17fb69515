package snic

import (
	"math"
	"testing"

	"smartwatch/internal/packet"
	"smartwatch/internal/stats"
)

// scanSched states the scheduler's order as plainly as it can be: a
// slice of threads, where the next to dispatch is the least (free, pme)
// found by a scan and rearm sets that thread's free time. The heap the
// engine used before the sorted ring kept this order; the scan is the
// oracle the ring must match step for step.
type scanSched struct {
	threads []thread
	next    int // index of the thread earliest last returned
}

func newScanSched(pmes, threadsPerPME int) *scanSched {
	s := &scanSched{}
	for pme := 0; pme < pmes; pme++ {
		for t := 0; t < threadsPerPME; t++ {
			s.threads = append(s.threads, thread{pme: pme})
		}
	}
	return s
}

func (s *scanSched) earliest() thread {
	s.next = 0
	for i, th := range s.threads {
		if best := s.threads[s.next]; th.free < best.free || (th.free == best.free && th.pme < best.pme) {
			s.next = i
		}
	}
	return s.threads[s.next]
}

func (s *scanSched) rearm(free float64) { s.threads[s.next].free = free }

// schedRegimes are the service/arrival shapes the ring must survive. gap
// and service return virtual nanoseconds for step i.
var schedRegimes = []struct {
	name    string
	gap     func(rng *stats.Rand, i int) float64
	service func(rng *stats.Rand, i int) float64
}{
	{"idle-gaps", // every thread stale on arrival: re-arms always land at the tail
		func(rng *stats.Rand, i int) float64 { return 5_000 + rng.Float64()*50_000 },
		func(rng *stats.Rand, i int) float64 { return 1_000 + rng.Float64()*3_000 }},
	{"overload", // arrivals far faster than service: start is always the thread's free time
		func(rng *stats.Rand, i int) float64 { return rng.Float64() * 4 },
		func(rng *stats.Rand, i int) float64 { return 500 + rng.Exp(2_000) }},
	{"exact-ties", // integer gaps, three service times: most free times collide exactly
		func(rng *stats.Rand, i int) float64 { return float64(rng.IntN(3)) },
		func(rng *stats.Rand, i int) float64 { return float64(1+rng.IntN(3)) * 1_024 }},
	{"outlier", // one 1 000-read stall parks a thread far behind the rest
		func(rng *stats.Rand, i int) float64 { return 20 + rng.Float64()*20 },
		func(rng *stats.Rand, i int) float64 {
			if i%50_000 == 777 {
				return 1_000 + 1000*137
			}
			return 1_000 + float64(rng.IntN(8))*137
		}},
	{"mixed", // short services interleaved with long: deep insertions
		func(rng *stats.Rand, i int) float64 { return rng.Exp(30) },
		func(rng *stats.Rand, i int) float64 { return rng.Pareto(200, 1.1) }},
}

// TestThreadRingMatchesHeap drives the ring and scanSched (the heap's
// order) with the same seeded arrivals and service times and requires the
// same (pme, start) at every step: over a million steps across all three
// NIC profiles, a single-PME profile and a single-thread one. -short runs
// a tenth of the steps so the race build still exercises every regime.
func TestThreadRingMatchesHeap(t *testing.T) {
	profiles := []Profile{Netronome(), BlueField(), LiquidIO(), Netronome().WithPMEs(1)}
	single := Netronome().WithPMEs(1)
	single.ThreadsPerPME = 1
	profiles = append(profiles, single)

	steps := 50_000
	if testing.Short() {
		steps = 5_000
	}
	total := 0
	for pi, prof := range profiles {
		for ri, reg := range schedRegimes {
			ring := newThreadRing(prof.PMEs, prof.ThreadsPerPME)
			scan := newScanSched(prof.PMEs, prof.ThreadsPerPME)
			rng := stats.NewRand(uint64(1 + pi*16 + ri))
			now := 0.0
			for i := 0; i < steps; i++ {
				now += reg.gap(rng, i)
				got, want := ring.earliest(), scan.earliest()
				if got != want {
					t.Fatalf("%s x%d/%s step %d: ring picked (pme %d, free %v), scan (pme %d, free %v)",
						prof.Name, prof.PMEs, reg.name, i, got.pme, got.free, want.pme, want.free)
				}
				end := math.Max(now, got.free) + reg.service(rng, i)
				ring.rearm(end)
				scan.rearm(end)
			}
			total += steps
			// The ring must still be sorted and hold every thread.
			for k := 1; k < ring.n; k++ {
				a := ring.slots[(ring.head+k-1)&(len(ring.slots)-1)]
				b := ring.slots[(ring.head+k)&(len(ring.slots)-1)]
				if a.free > b.free || (a.free == b.free && a.pme > b.pme) {
					t.Fatalf("%s/%s: ring unsorted at %d: %+v then %+v", prof.Name, reg.name, k, a, b)
				}
			}
		}
	}
	if !testing.Short() && total < 1_000_000 {
		t.Fatalf("only %d steps compared, want >= 1e6", total)
	}
}

// oracleRun is Engine.Run as it was with the heap scheduler, its order
// kept by scanSched, reduced to what the comparison needs: the same
// dispatch, drop and cost arithmetic, recording each processed packet's
// (queue delay, latency) instead of building quantiles.
func oracleRun(cfg Config, handler Handler, pkts []packet.Packet) (rep Report, perPkt [][2]float64) {
	prof := cfg.Profile
	threads := newScanSched(prof.PMEs, prof.ThreadsPerPME)
	engineFree := make([]float64, prof.PMEs)
	nsPerCycle := 1e9 / prof.ClockHz
	baseNs, readCostNs, writeCostNs := prof.BaseCycles*nsPerCycle, prof.CyclesPerRead*nsPerCycle, prof.CyclesPerWrite*nsPerCycle
	var dispatch, firstTs, lastDone float64
	for i := range pkts {
		cur := pkts[i]
		arrival := float64(cur.Ts)
		if i == 0 {
			firstTs = arrival
		}
		dispatchStart := math.Max(arrival, dispatch)
		if dispatchStart-arrival > cfg.QueueDropNs {
			rep.Dropped++
			continue
		}
		dispatch = dispatchStart + prof.DispatchNsPerPkt
		next := threads.earliest()
		start := math.Max(dispatch, next.free)
		if start-arrival > cfg.QueueDropNs {
			rep.Dropped++
			continue
		}
		cost := handler(&cur, Ctx{QueueDelayNs: start - arrival})
		engineTime := baseNs + readCostNs*float64(cost.Reads) + writeCostNs*float64(cost.Writes) + cost.ExtraCycles*nsPerCycle
		engineEnd := math.Max(start, engineFree[next.pme]) + engineTime
		engineFree[next.pme] = engineEnd
		threadEnd := engineEnd + float64(cost.Reads)*prof.ReadNs
		threads.rearm(threadEnd)
		rep.Processed++
		rep.EngineBusyNs += engineTime
		perPkt = append(perPkt, [2]float64{start - arrival, threadEnd - arrival})
		lastDone = math.Max(lastDone, threadEnd)
	}
	rep.SpanNs = lastDone - firstTs
	return rep, perPkt
}

// hostileArrivals is TestEngineHostileTime's trace: mostly duplicates and
// small steps, with backwards steps, a zero, a negative and a far-future
// timestamp mixed in.
func hostileArrivals() []packet.Packet {
	rng := stats.NewRand(99)
	var pkts []packet.Packet
	add := func(ts int64) {
		pkts = append(pkts, packet.Packet{Ts: ts, Size: 64,
			Tuple: packet.FiveTuple{SrcIP: packet.Addr(len(pkts)), SrcPort: uint16(rng.Uint64()), Proto: packet.ProtoTCP}})
	}
	ts := int64(50_000)
	for i := 0; i < 60_000; i++ {
		switch {
		case i%1000 < 300: // duplicates
		case i%1000 < 320: // backwards, up to 2 µs
			ts -= rng.Int64N(2_000)
		case i == 20_500 || i == 20_501: // zero and negative
			add(int64(20_500 - i))
			continue
		case i == 40_700: // far future: ~292 years, exact in neither int64 nor float64 arithmetic
			add(math.MaxInt64 - 1)
			continue
		default:
			ts += rng.Int64N(200)
		}
		add(ts)
	}
	return pkts
}

// TestEngineHostileTime feeds Engine.Run arrival timestamps a capture can
// really contain — duplicates, backwards steps, zero, negative, a
// far-future jump and a return from it — and requires no panic, every
// offered packet accounted for, and per-packet agreement with the scan
// oracle. The model's defined behaviour for the far-future packet is that
// it is processed and drags the front end's clock with it, so every later
// packet waits past the input buffer and drops.
func TestEngineHostileTime(t *testing.T) {
	pkts := hostileArrivals()
	for _, prof := range []Profile{Netronome(), BlueField(), Netronome().WithPMEs(1)} {
		cfg := DefaultConfig()
		cfg.Profile = prof
		var got [][2]float64
		var delay float64
		cfg.Observer = func(_ *packet.Packet, lat float64) { got = append(got, [2]float64{delay, lat}) }
		rep := New(cfg, func(p *packet.Packet, ctx Ctx) Cost {
			delay = ctx.QueueDelayNs
			return goldenCost(p, ctx)
		}).Run(packet.StreamOf(pkts))

		oCfg := DefaultConfig()
		oCfg.Profile = prof
		want, wantPkts := oracleRun(oCfg, goldenCost, pkts)

		if rep.Processed+rep.Dropped != uint64(len(pkts)) {
			t.Errorf("%s: processed %d + dropped %d != offered %d", prof.Name, rep.Processed, rep.Dropped, len(pkts))
		}
		if rep.Processed == 0 || rep.Dropped == 0 {
			t.Errorf("%s: processed %d dropped %d: the trace must exercise both paths", prof.Name, rep.Processed, rep.Dropped)
		}
		t.Logf("%s x%d: processed %d, dropped %d", prof.Name, prof.PMEs, rep.Processed, rep.Dropped)
		if rep.Processed != want.Processed || rep.Dropped != want.Dropped ||
			rep.EngineBusyNs != want.EngineBusyNs || rep.SpanNs != want.SpanNs {
			t.Errorf("%s: report %+v, oracle %+v", prof.Name, rep, want)
		}
		if len(got) != len(wantPkts) {
			t.Fatalf("%s: %d processed packets observed, oracle %d", prof.Name, len(got), len(wantPkts))
		}
		for i := range got {
			if got[i] != wantPkts[i] {
				t.Fatalf("%s: packet %d (queue delay, latency) = %v, oracle %v", prof.Name, i, got[i], wantPkts[i])
			}
		}
	}
}

// TestEngineStepMatchesRun: Run is Begin, a Step per packet, End — so a
// caller that steps through its own vector gets Run's report bit for bit
// (every float, p50 and p99 included) on the golden trace at the four
// golden profiles and on the hostile arrivals. Step hands the handler and
// the observer the caller's packet itself, and allocates nothing.
func TestEngineStepMatchesRun(t *testing.T) {
	type tc struct {
		name string
		prof Profile
		pkts []packet.Packet
	}
	golden, hostile := goldenTrace(200_000, 0x5eed), hostileArrivals()
	cases := []tc{{"hostile", Netronome(), hostile}}
	for _, prof := range []Profile{Netronome(), BlueField(), LiquidIO(), Netronome().WithPMEs(1)} {
		cases = append(cases, tc{"golden", prof, golden})
	}
	for _, c := range cases {
		cfg := DefaultConfig()
		cfg.Profile = c.prof
		want := New(cfg, goldenCost).Run(packet.StreamOf(c.pkts))

		var cur *packet.Packet
		var foreign int
		cfg.Observer = func(p *packet.Packet, _ float64) {
			if p != cur {
				foreign++
			}
		}
		e := New(cfg, func(p *packet.Packet, ctx Ctx) Cost {
			if p != cur {
				foreign++
			}
			return goldenCost(p, ctx)
		})
		e.Begin()
		for i := range c.pkts {
			cur = &c.pkts[i]
			e.Step(cur)
		}
		got := e.End()

		if foreign != 0 {
			t.Errorf("%s %s x%d: handler/observer saw a packet other than the stepped one %d times", c.name, c.prof.Name, c.prof.PMEs, foreign)
		}
		gl, wl := got.Latency, want.Latency
		got.Latency, want.Latency = nil, nil
		if got != want {
			t.Errorf("%s %s x%d: stepped report %+v, Run %+v", c.name, c.prof.Name, c.prof.PMEs, got, want)
		}
		for _, q := range []float64{0.5, 0.99} {
			if g, w := gl.Quantile(q), wl.Quantile(q); g != w {
				t.Errorf("%s %s x%d: stepped p%v = %v, Run %v", c.name, c.prof.Name, c.prof.PMEs, q*100, g, w)
			}
		}
		if p, d, busy := e.LiveCounts(); p != got.Processed || d != got.Dropped || busy != got.EngineBusyNs {
			t.Errorf("%s: LiveCounts after End = %d/%d/%v, report %d/%d/%v", c.name, p, d, busy, got.Processed, got.Dropped, got.EngineBusyNs)
		}
	}

	e := New(DefaultConfig(), goldenCost)
	e.Begin()
	i := 0
	if avg := testing.AllocsPerRun(10_000, func() { e.Step(&golden[i]); i++ }); avg != 0 {
		t.Errorf("Step allocates %.2f times per packet", avg)
	}
}

// BenchmarkEngineDispatch measures the simulator's own per-packet cost with
// a free handler, so the scheduler is what is timed: paced (threads go
// stale between packets; re-arms land at the tail) and overload (every
// thread busy, the input buffer full, drops interleaved with dispatches).
func BenchmarkEngineDispatch(b *testing.B) {
	for _, bc := range []struct {
		name string
		pps  float64
	}{{"paced", 20e6}, {"overload", 60e6}} {
		b.Run(bc.name, func(b *testing.B) {
			pkts := packet.Collect(RetimeUniform(synthetic(1<<16, 1000, 9), bc.pps))
			rng := stats.NewRand(7)
			costs := make([]Cost, 1<<12)
			for i := range costs {
				costs[i] = Cost{Reads: 1 + rng.IntN(12), Writes: rng.IntN(3)}
			}
			var n int
			cfg := DefaultConfig()
			cfg.LatencySamples = 1 << 10
			e := New(cfg, func(*packet.Packet, Ctx) Cost { n++; return costs[n&(len(costs)-1)] })
			span := pkts[len(pkts)-1].Ts + 1
			b.ReportAllocs()
			b.ResetTimer()
			e.Run(func(yield func(packet.Packet) bool) {
				for i := 0; i < b.N; i++ {
					p := pkts[i&(len(pkts)-1)]
					p.Ts += int64(i>>16) * span
					if !yield(p) {
						return
					}
				}
			})
		})
	}
}
