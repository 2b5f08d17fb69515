package flowcache

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"smartwatch/internal/packet"
)

func TestControllerConfigValidate(t *testing.T) {
	ad := func(a AdaptiveConfig) ControllerConfig {
		a.Enabled = true
		return ControllerConfig{Adaptive: a}
	}
	cases := []struct {
		name string
		cfg  ControllerConfig
		want string // error substring; "" = valid
	}{
		{"zero", ControllerConfig{}, ""},
		{"default", DefaultControllerConfig(), ""},
		{"adaptive-zero", ad(AdaptiveConfig{}), ""},
		{"alpha-high", ControllerConfig{Alpha: 1.5}, "Alpha"},
		{"alpha-negative", ControllerConfig{Alpha: -0.1}, "Alpha"},
		{"window-negative", ControllerConfig{WindowNs: -1}, "WindowNs"},
		{"eta-negative", ControllerConfig{EtaHigh: -5}, "thresholds"},
		{"eta-inverted", ControllerConfig{EtaHigh: 20e6, EtaLow: 30e6}, "EtaLow"},
		{"eta-equal", ControllerConfig{EtaHigh: 20e6, EtaLow: 20e6}, "EtaLow"},
		{"occ-high-range", ad(AdaptiveConfig{OccHigh: 1.5}), "occupancy"},
		{"occ-inverted", ad(AdaptiveConfig{OccHigh: 0.5, OccLow: 0.8}), "OccLow"},
		{"scale-step", ad(AdaptiveConfig{ScaleStep: 0.5}), "ScaleStep"},
		{"scale-min", ad(AdaptiveConfig{ScaleMin: 1.5}), "ScaleMin"},
		{"scale-max", ad(AdaptiveConfig{ScaleMax: 0.5}), "ScaleMax"},
		{"gap-step", ad(AdaptiveConfig{GapStep: 1.2}), "GapStep"},
		{"gap-min", ad(AdaptiveConfig{GapMin: 2}), "GapMin"},
		{"confirm-negative", ad(AdaptiveConfig{Confirm: -1}), "Confirm"},
		{"pin-fraction", ad(AdaptiveConfig{PinBudgetFraction: 1.5}), "PinBudgetFraction"},
		{"pin-step", ad(AdaptiveConfig{PinStep: 1}), "PinStep"},
		{"pin-scale-min", ad(AdaptiveConfig{PinScaleMin: 1.5}), "PinScaleMin"},
		{"fbwindow-negative", ad(AdaptiveConfig{FeedbackWindowNs: -1}), "FeedbackWindowNs"},
		// Disabled adaptive: bad fields are inert and must not reject.
		{"adaptive-off-ignored", ControllerConfig{Adaptive: AdaptiveConfig{ScaleStep: 0.5}}, ""},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: invalid config accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestNewControllerPanicsOnInvalid(t *testing.T) {
	c := New(smallConfig())
	defer func() {
		if recover() == nil {
			t.Error("NewController accepted an invalid config")
		}
	}()
	NewController(c, ControllerConfig{Alpha: 7})
}

// driveWindows feeds one observation per rate window: counts[i] events in
// window i. With Alpha=1 the smoothed rate seen in window i+1 is exactly
// counts[i] * 1000 (window = 1e6 ns = 1e-3 s).
func driveWindows(ctl *Controller, counts []int64) {
	for i, n := range counts {
		ctl.Observe(int64(i)*1e6+1, n)
	}
}

func repeat(pattern []int64, times int) []int64 {
	out := make([]int64, 0, len(pattern)*times)
	for i := 0; i < times; i++ {
		out = append(out, pattern...)
	}
	return out
}

// TestControllerHysteresis is the table-driven no-flapping check: rate
// trajectories around the thresholds (EtaHigh 10k, EtaLow 5k; one count
// = 1k pps) and the exact switchover count each must produce.
func TestControllerHysteresis(t *testing.T) {
	cases := []struct {
		name      string
		counts    []int64
		wantFlips uint64
		wantMode  Mode
	}{
		// Steady in the hysteresis band: never flips.
		{"steady-in-band", repeat([]int64{7}, 50), 0, General},
		// Rate just above EtaHigh, then dipping into the band but never
		// below EtaLow: one flip to Lite, no flap back.
		{"dip-into-band", repeat([]int64{12, 7}, 25), 1, Lite},
		// Hugging EtaHigh exactly: threshold is strict, no flip.
		{"at-threshold", repeat([]int64{10}, 50), 0, General},
		// Calm after a burst: exactly two flips (out and back).
		{"burst-then-calm", append(repeat([]int64{12}, 10), repeat([]int64{2}, 20)...), 2, General},
	}
	for _, tc := range cases {
		c := New(smallConfig())
		ctl := NewController(c, ControllerConfig{Alpha: 1, WindowNs: 1e6, EtaHigh: 10_000, EtaLow: 5_000})
		driveWindows(ctl, tc.counts)
		if got := ctl.Switchovers(); got != tc.wantFlips {
			t.Errorf("%s: switchovers = %d, want %d", tc.name, got, tc.wantFlips)
		}
		if got := c.Mode(); got != tc.wantMode {
			t.Errorf("%s: mode = %v, want %v", tc.name, got, tc.wantMode)
		}
	}
}

// TestAdaptiveFlapDamping: a rate square wave crossing BOTH thresholds
// flips a static controller every window; the adaptive gap widens the
// hysteresis band until the low swing no longer re-enters General.
func TestAdaptiveFlapDamping(t *testing.T) {
	wave := repeat([]int64{12, 3}, 100) // 12k / 3k pps around 10k/5k
	static := NewController(New(smallConfig()),
		ControllerConfig{Alpha: 1, WindowNs: 1e6, EtaHigh: 10_000, EtaLow: 5_000})
	driveWindows(static, wave)

	adaptive := NewController(New(smallConfig()), ControllerConfig{
		Alpha: 1, WindowNs: 1e6, EtaHigh: 10_000, EtaLow: 5_000,
		Adaptive: AdaptiveConfig{
			Enabled: true, FeedbackWindowNs: 2e6,
			FlapFlips: 1, GapStep: 0.5, GapMin: 0.1, Confirm: 1,
		},
	})
	driveWindows(adaptive, wave)

	sf, af := static.Switchovers(), adaptive.Switchovers()
	if sf < 100 {
		t.Fatalf("static controller flipped %d times; square wave should flap hard", sf)
	}
	if af*2 >= sf {
		t.Errorf("adaptive flips = %d vs static %d; gap damping should cut flapping at least in half", af, sf)
	}
	st := adaptive.State()
	if st.Gap >= 1 {
		t.Errorf("gap = %g after sustained flapping, want < 1", st.Gap)
	}
	if st.Retunes == 0 {
		t.Error("no retunes recorded despite gap movement")
	}
	if st.EtaLowEff >= 5_000 {
		t.Errorf("effective low threshold %g not lowered", st.EtaLowEff)
	}
}

// distinctStream returns n all-distinct flows at a fixed inter-arrival.
func distinctStream(n int, stepNs int64) []packet.Packet {
	pkts := make([]packet.Packet, n)
	for i := range pkts {
		pkts[i] = pkt(i, int64(i+1)*stepNs)
	}
	return pkts
}

func TestAdaptiveScalesUpOnRingDrops(t *testing.T) {
	cfg := smallConfig()
	cfg.Rings, cfg.RingEntries = 1, 8 // never drained: drops immediately
	c := New(cfg)
	ctl := NewController(c, ControllerConfig{
		Alpha: 0.75, WindowNs: 1e5, EtaHigh: 1e12, EtaLow: 1e11, // never flip
		Adaptive: AdaptiveConfig{Enabled: true, FeedbackWindowNs: 1e6},
	})
	for i := range distinctStream(40_000, 1000) {
		p := pkt(i, int64(i+1)*1000)
		ctl.Observe(p.Ts, 1)
		c.Process(&p)
	}
	st := ctl.State()
	if c.directRingDrops() == 0 {
		t.Fatal("workload produced no ring drops; test premise broken")
	}
	if st.Scale <= 1 {
		t.Errorf("scale = %g under sustained ring drops, want > 1 (bias toward General)", st.Scale)
	}
	if st.EtaHighEff <= 1e12 {
		t.Errorf("effective high threshold %g not raised", st.EtaHighEff)
	}
}

func TestAdaptiveScalesDownOnSaturation(t *testing.T) {
	cfg := smallConfig() // 8 rings x 4096: no drops for this stream
	c := New(cfg)
	ctl := NewController(c, ControllerConfig{
		Alpha: 0.75, WindowNs: 1e5, EtaHigh: 1e12, EtaLow: 1e11,
		Adaptive: AdaptiveConfig{Enabled: true, FeedbackWindowNs: 1e6},
	})
	for i := range distinctStream(30_000, 1000) {
		p := pkt(i, int64(i+1)*1000)
		ctl.Observe(p.Ts, 1)
		c.Process(&p)
	}
	if drops := c.directRingDrops(); drops != 0 {
		t.Fatalf("unexpected ring drops (%d); saturation signal would be shadowed", drops)
	}
	occ := float64(c.LiveRecords()) / float64(cfg.Entries())
	if occ < 0.85 {
		t.Fatalf("occupancy %.2f below OccHigh; test premise broken", occ)
	}
	st := ctl.State()
	if st.Scale >= 1 {
		t.Errorf("scale = %g at sustained %.0f%% occupancy, want < 1 (shed into Lite earlier)", st.Scale, occ*100)
	}
}

func TestAdaptivePinBudget(t *testing.T) {
	// Tiny budget: only PinBudgetFraction * entries pins admitted.
	cfg := smallConfig() // 3072 entries
	c := New(cfg)
	NewController(c, ControllerConfig{
		Adaptive: AdaptiveConfig{Enabled: true, PinBudgetFraction: 0.001}, // budget 3
	})
	var pinned int
	for i := 0; i < 10; i++ {
		p := pkt(i, int64(i+1))
		c.Process(&p)
		if c.Pin(p.Key()) {
			pinned++
		}
	}
	if pinned != 3 || c.LivePinned() != 3 {
		t.Errorf("pinned %d (live %d), want budget cap 3", pinned, c.LivePinned())
	}
	if c.PinRefused() != 7 {
		t.Errorf("pin refusals = %d, want 7", c.PinRefused())
	}

	// Punt pressure contracts the budget: pin a full row, punt against
	// it, and cross a feedback window.
	c2 := New(cfg)
	ctl2 := NewController(c2, ControllerConfig{
		Alpha: 1, WindowNs: 1e6, EtaHigh: 1e12, EtaLow: 1e11,
		Adaptive: AdaptiveConfig{Enabled: true, FeedbackWindowNs: 1e6, PinBudgetFraction: 1, Confirm: 1},
	})
	flows := collideRow(t, c2, smallConfig().Buckets+1)
	ts := int64(0)
	for _, f := range flows[:cfg.Buckets] {
		ts++
		q := f
		q.Ts = ts
		ctl2.Observe(ts, 1)
		c2.Process(&q)
		if !c2.Pin(q.Key()) {
			t.Fatalf("pin refused with full budget")
		}
	}
	ts++
	q := flows[cfg.Buckets]
	q.Ts = ts
	ctl2.Observe(ts, 1)
	if _, res := c2.Process(&q); res.Outcome != HostPunt {
		t.Fatalf("outcome %v, want host-punt against fully pinned row", res.Outcome)
	}
	if c2.Punts() == 0 {
		t.Fatal("punt not tracked")
	}
	// Cross exactly ONE feedback window so the contraction applies
	// (punt-free windows deliberately re-expand the budget).
	ctl2.Observe(ts+1e6, 0)
	st := ctl2.State()
	if st.PinScale >= 1 {
		t.Errorf("pin scale = %g after punt pressure, want < 1", st.PinScale)
	}
	if st.PinBudget >= int64(cfg.Entries()) {
		t.Errorf("pin budget = %d, want contracted below %d", st.PinBudget, cfg.Entries())
	}
}

// adaptiveShardedCfg is the determinism workload: 4 shards, small rings
// (drops occur), adaptive controllers with pin budgets, rate thresholds
// the square-ish arrival pattern actually crosses.
func adaptiveShardedCfg() (Config, ControllerConfig) {
	cfg := DefaultConfig(8)
	cfg.Rings, cfg.RingEntries = 2, 256
	ctl := ControllerConfig{
		Alpha: 0.75, WindowNs: 1e5, EtaHigh: 3e6, EtaLow: 1e6,
		Adaptive: AdaptiveConfig{Enabled: true, FeedbackWindowNs: 1e6, PinBudgetFraction: 0.5},
	}
	return cfg, ctl
}

// adaptiveStream: Zipf flows with a bursty clock (idle gap every 4096
// packets) so the rate EWMA actually crosses the thresholds both ways.
func adaptiveStream(n int) []packet.Packet {
	pkts := policyStream(n)
	ts := int64(0)
	for i := range pkts {
		ts += 300
		if i%4096 == 0 {
			ts += 3e6
		}
		pkts[i].Ts = ts
	}
	return pkts
}

// TestAdaptiveDeterminism: the adaptive trajectory — cache end state AND
// each shard's tuned controller state — must be byte-identical across
// the sequential drive and the batched drive (ObserveProcessHashed, one
// FlushAcc per vector) at different vector sizes. The cache state is
// compared whole: a batched flush lands every shard's stat deltas in
// shard 0, which only the aggregate view is blind to.
func TestAdaptiveDeterminism(t *testing.T) {
	type result struct {
		dump   string
		states []ControllerState
		flips  uint64
	}
	run := func(drive func(s *Sharded, pkts []packet.Packet)) result {
		cfg, ctlCfg := adaptiveShardedCfg()
		s := NewSharded(4, cfg, ctlCfg)
		drive(s, adaptiveStream(60_000))
		var r result
		for i := 0; i < s.NumShards(); i++ {
			r.states = append(r.states, s.ShardController(i).State())
		}
		r.flips = s.Switchovers()
		r.dump = dumpState(s)
		return r
	}
	ref := run(func(s *Sharded, pkts []packet.Packet) {
		for i := range pkts {
			s.ObserveProcess(&pkts[i])
		}
	})
	if ref.flips == 0 {
		t.Fatal("workload produced no mode flips; determinism check too weak")
	}
	var anyRetune bool
	for _, st := range ref.states {
		if st.Retunes > 0 {
			anyRetune = true
		}
	}
	if !anyRetune {
		t.Fatal("no controller retuned; determinism check too weak")
	}
	for _, vec := range []int{32, 512} {
		name := fmt.Sprintf("batch-%d", vec)
		got := run(func(s *Sharded, pkts []packet.Packet) { driveVectors(s, pkts, vec) })
		if got.flips != ref.flips {
			t.Errorf("%s: switchovers = %d, want %d", name, got.flips, ref.flips)
		}
		if got.dump != ref.dump {
			t.Errorf("%s: cache state diverged from sequential:\n%s", name, firstDiff(ref.dump, got.dump))
		}
		for i := range ref.states {
			if got.states[i] != ref.states[i] {
				t.Errorf("%s: shard %d controller state %+v != sequential %+v", name, i, got.states[i], ref.states[i])
			}
		}
	}
}

// TestControllerStateRace: metrics collectors read per-shard controller
// state and obs gauges while another goroutine drives the adaptive loop.
// Run under -race (make race / CI) to validate the locking.
func TestControllerStateRace(t *testing.T) {
	cfg, ctlCfg := adaptiveShardedCfg()
	s := NewSharded(4, cfg, ctlCfg)
	pkts := adaptiveStream(40_000)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var sink float64
		for {
			select {
			case <-done:
				return
			default:
			}
			for i := 0; i < s.NumShards(); i++ {
				st := s.ShardController(i).State()
				sink += st.Scale + st.Gap + float64(st.PinBudget)
				sink += float64(s.Shard(i).LiveRecords() + s.Shard(i).LivePinned())
				sink += float64(s.Shard(i).Punts() + s.Shard(i).PinRefused())
			}
			_ = s.RingStats()
			_ = sink
		}
	}()
	for i := range pkts {
		s.ObserveProcess(&pkts[i])
	}
	close(done)
	wg.Wait()
}
