package flowcache

import (
	"fmt"
	"sync"

	"smartwatch/internal/stats"
)

// Controller is the CME-resident mode switcher of Algorithm 4: it tracks
// the packet arrival rate with an EWMA (alpha = 0.75 over 100-sample
// windows in the paper) and flips the cache between General and Lite mode
// around two thresholds with hysteresis.
//
// With AdaptiveConfig.Enabled the controller closes a second, slower
// loop on top (DESIGN.md §11.3): at fixed virtual-time feedback windows
// it samples its own cache's live occupancy, ring-drop, punt and
// mode-churn counters — all maintained on the direct path, never
// deferred through batch accumulators — and retunes the effective
// thresholds and the pin budget. Because every input is a deterministic
// function of the shard's packet prefix and windows are cut by virtual
// time, the adaptive trajectory is byte-identical across batch sizes.
type Controller struct {
	cache *Cache
	meter *stats.RateMeter
	// etaHigh: switch to Lite above this rate (pps). The paper's General
	// mode is lossless to 30 Mpps on the 40 GbE sNIC.
	etaHigh float64
	// etaLow: switch back to General below this rate (pps).
	etaLow      float64
	onSwitch    func(m Mode, rate float64, ts int64)
	switchovers uint64

	// Mode-residency bookkeeping: how much virtual time the cache has
	// spent in each mode, segmented at flips. segStart opens the current
	// segment, lastTs is the newest observation (the open segment's
	// provisional end). Mutated only on the Observe goroutine.
	resGeneralNs, resLiteNs int64
	segStart, lastTs        int64
	hasSeg                  bool

	// Adaptive feedback loop (inactive unless acfg.Enabled). effHigh /
	// effLow are the thresholds actually compared against the rate; they
	// equal etaHigh/etaLow until the loop retunes them. mu guards the
	// tuned fields against concurrent State() readers (metrics
	// collectors on other goroutines) — Observe itself reads them
	// without the lock, which is safe because feedbackTick runs on the
	// Observe goroutine.
	adaptive        bool
	acfg            AdaptiveConfig
	effHigh, effLow float64
	nextFb          int64
	scale, gap      float64
	pinScale        float64
	retunes         uint64
	lastRate        float64
	prevOcc         float64
	prevDrops       uint64
	prevPunts       uint64
	prevFlips       uint64
	dropStreak      int
	satStreak       int
	relaxStreak     int
	mu              sync.Mutex
}

// AdaptiveConfig parameterises the controller's self-tuning feedback
// loop. The zero value (Enabled=false) keeps the static Alg.-4
// controller; with Enabled, zero fields resolve to the documented
// defaults and out-of-range fields are rejected by Validate.
type AdaptiveConfig struct {
	// Enabled turns the feedback loop on (and enables the cache's live
	// feedback counters).
	Enabled bool
	// FeedbackWindowNs is the virtual-time sampling period. Default:
	// 10× the controller's rate window.
	FeedbackWindowNs int64
	// OccHigh / OccLow bracket the occupancy fraction: sustained
	// occupancy above OccHigh with a non-falling trend lowers the
	// switchover thresholds (shed into Lite earlier); occupancy below
	// OccLow lets the scale relax toward neutral. Defaults: 0.85 / 0.55.
	OccHigh, OccLow float64
	// ScaleStep is the multiplicative threshold adjustment per
	// confirmed signal; ScaleMin/ScaleMax bound the excursion.
	// Defaults: 1.25, bounds [0.5, 2.0].
	ScaleStep, ScaleMin, ScaleMax float64
	// GapStep / GapMin drive flap damping: FlapFlips or more mode flips
	// inside one feedback window multiply the low threshold by GapStep
	// (widening the hysteresis band), down to GapMin; flip-free windows
	// relax it back. Defaults: 0.85, 0.5, 2.
	GapStep, GapMin float64
	FlapFlips       int
	// Confirm is how many consecutive windows a drop/saturation signal
	// must persist before the scale moves — the feedback loop's own
	// hysteresis. Default: 2.
	Confirm int
	// PinBudgetFraction > 0 caps the live pinned population at this
	// fraction of the cache's entries (scaled down further while punts
	// indicate pin starvation). 0 disables pin budgeting.
	PinBudgetFraction float64
	// PinStep / PinScaleMin shape the punt-driven budget contraction.
	// Defaults: 0.8, 0.25.
	PinStep, PinScaleMin float64
}

// ControllerConfig parameterises the switchover policy.
type ControllerConfig struct {
	// Alpha is the EWMA smoothing factor (paper: 0.75).
	Alpha float64
	// WindowNs is the rate-sampling window in virtual ns.
	WindowNs int64
	// EtaHigh / EtaLow are the Lite/General thresholds in packets/second;
	// EtaLow < EtaHigh gives hysteresis.
	EtaHigh, EtaLow float64
	// Adaptive, when Enabled, closes the metrics feedback loop over the
	// thresholds (see AdaptiveConfig).
	Adaptive AdaptiveConfig
	// OnSwitch, when set, observes every mode flip with the smoothed rate
	// and the virtual time of the triggering packet — the control plane
	// publishes these as tier.ModeSwitchEvent. It runs on the Observe
	// caller's goroutine.
	OnSwitch func(m Mode, rate float64, ts int64)
}

// DefaultControllerConfig mirrors the paper's operating point: General
// mode up to 30 Mpps, with re-entry below 25 Mpps.
func DefaultControllerConfig() ControllerConfig {
	return ControllerConfig{Alpha: 0.75, WindowNs: 1e6, EtaHigh: 30e6, EtaLow: 25e6}
}

// Validate rejects explicitly-set invalid values with a descriptive
// error. Zero fields are fine — normalized resolves them to defaults —
// but a negative threshold, an inverted EtaLow/EtaHigh pair, or an
// out-of-range adaptive fraction used to be silently clamped and now
// fails loudly here. NewController and NewSharded call this.
func (cfg ControllerConfig) Validate() error {
	if cfg.Alpha < 0 || cfg.Alpha > 1 {
		return fmt.Errorf("flowcache: controller Alpha %g out of (0,1]", cfg.Alpha)
	}
	if cfg.WindowNs < 0 {
		return fmt.Errorf("flowcache: controller WindowNs %d must be positive", cfg.WindowNs)
	}
	if cfg.EtaHigh < 0 || cfg.EtaLow < 0 {
		return fmt.Errorf("flowcache: controller thresholds (high=%g, low=%g) must be positive", cfg.EtaHigh, cfg.EtaLow)
	}
	if cfg.EtaHigh > 0 && cfg.EtaLow > 0 && cfg.EtaLow >= cfg.EtaHigh {
		return fmt.Errorf("flowcache: controller EtaLow %g must be below EtaHigh %g (hysteresis)", cfg.EtaLow, cfg.EtaHigh)
	}
	return cfg.Adaptive.validate()
}

func (a AdaptiveConfig) validate() error {
	if !a.Enabled {
		return nil
	}
	if a.FeedbackWindowNs < 0 {
		return fmt.Errorf("flowcache: adaptive FeedbackWindowNs %d must be positive", a.FeedbackWindowNs)
	}
	if a.OccHigh < 0 || a.OccHigh > 1 || a.OccLow < 0 || a.OccLow > 1 {
		return fmt.Errorf("flowcache: adaptive occupancy thresholds (high=%g, low=%g) out of (0,1)", a.OccHigh, a.OccLow)
	}
	if a.OccHigh > 0 && a.OccLow > 0 && a.OccLow >= a.OccHigh {
		return fmt.Errorf("flowcache: adaptive OccLow %g must be below OccHigh %g", a.OccLow, a.OccHigh)
	}
	if a.ScaleStep != 0 && a.ScaleStep <= 1 {
		return fmt.Errorf("flowcache: adaptive ScaleStep %g must exceed 1", a.ScaleStep)
	}
	if a.ScaleMin < 0 || a.ScaleMin > 1 {
		return fmt.Errorf("flowcache: adaptive ScaleMin %g out of (0,1]", a.ScaleMin)
	}
	if a.ScaleMax < 0 || (a.ScaleMax != 0 && a.ScaleMax < 1) {
		return fmt.Errorf("flowcache: adaptive ScaleMax %g must be >= 1", a.ScaleMax)
	}
	if a.GapStep < 0 || a.GapStep >= 1 {
		return fmt.Errorf("flowcache: adaptive GapStep %g out of (0,1)", a.GapStep)
	}
	if a.GapMin < 0 || a.GapMin > 1 {
		return fmt.Errorf("flowcache: adaptive GapMin %g out of (0,1]", a.GapMin)
	}
	if a.FlapFlips < 0 || a.Confirm < 0 {
		return fmt.Errorf("flowcache: adaptive FlapFlips %d / Confirm %d must be positive", a.FlapFlips, a.Confirm)
	}
	if a.PinBudgetFraction < 0 || a.PinBudgetFraction > 1 {
		return fmt.Errorf("flowcache: adaptive PinBudgetFraction %g out of [0,1]", a.PinBudgetFraction)
	}
	if a.PinStep < 0 || a.PinStep >= 1 {
		return fmt.Errorf("flowcache: adaptive PinStep %g out of (0,1)", a.PinStep)
	}
	if a.PinScaleMin < 0 || a.PinScaleMin > 1 {
		return fmt.Errorf("flowcache: adaptive PinScaleMin %g out of (0,1]", a.PinScaleMin)
	}
	return nil
}

// Normalized resolves zero/invalid fields to the documented defaults —
// the values NewController actually runs with. The cluster runner uses it
// to scale a fully resolved base by the worker count BEFORE each worker's
// Sharded divides by the shard count again: both divisors are powers of
// two, so (eta/W)/S is bit-exact equal to the single platform's eta/(W·S)
// and the per-shard switchover thresholds match across the partition.
func (cfg ControllerConfig) Normalized() ControllerConfig { return cfg.normalized() }

// normalized resolves zero/invalid fields to the documented defaults; the
// result is what NewController actually runs with. Sharded uses it to
// scale per-shard thresholds from a fully resolved base.
func (cfg ControllerConfig) normalized() ControllerConfig {
	if cfg.Alpha <= 0 || cfg.Alpha > 1 {
		cfg.Alpha = 0.75
	}
	if cfg.WindowNs <= 0 {
		cfg.WindowNs = 1e6
	}
	if cfg.EtaHigh <= 0 {
		cfg.EtaHigh = 30e6
	}
	if cfg.EtaLow <= 0 || cfg.EtaLow >= cfg.EtaHigh {
		cfg.EtaLow = cfg.EtaHigh * 5 / 6
	}
	a := &cfg.Adaptive
	if a.FeedbackWindowNs <= 0 {
		a.FeedbackWindowNs = 10 * cfg.WindowNs
	}
	if a.OccHigh <= 0 {
		a.OccHigh = 0.85
	}
	if a.OccLow <= 0 {
		a.OccLow = 0.55
	}
	if a.ScaleStep <= 1 {
		a.ScaleStep = 1.25
	}
	if a.ScaleMin <= 0 {
		a.ScaleMin = 0.5
	}
	if a.ScaleMax < 1 {
		a.ScaleMax = 2.0
	}
	if a.GapStep <= 0 {
		a.GapStep = 0.85
	}
	if a.GapMin <= 0 {
		a.GapMin = 0.5
	}
	if a.FlapFlips <= 0 {
		a.FlapFlips = 2
	}
	if a.Confirm <= 0 {
		a.Confirm = 2
	}
	if a.PinStep <= 0 {
		a.PinStep = 0.8
	}
	if a.PinScaleMin <= 0 {
		a.PinScaleMin = 0.25
	}
	return cfg
}

// NewController attaches a switchover controller to the cache. It panics
// on an invalid configuration (programmer error; Validate pre-checks
// user input, mirroring New/Config).
func NewController(c *Cache, cfg ControllerConfig) *Controller {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	cfg = cfg.normalized()
	ctl := &Controller{
		cache:    c,
		meter:    stats.NewRateMeter(cfg.Alpha, cfg.WindowNs),
		etaHigh:  cfg.EtaHigh,
		etaLow:   cfg.EtaLow,
		effHigh:  cfg.EtaHigh,
		effLow:   cfg.EtaLow,
		onSwitch: cfg.OnSwitch,
		adaptive: cfg.Adaptive.Enabled,
		acfg:     cfg.Adaptive,
		scale:    1, gap: 1, pinScale: 1,
	}
	if ctl.adaptive {
		// Must happen before the first Process: the feedback counters
		// start from an empty table.
		c.enableFeedback()
		ctl.applyPinBudget()
	}
	return ctl
}

// Observe records n packet arrivals at virtual time ts and applies the
// Alg.-4 switchover rule (against the adaptively tuned thresholds when
// the feedback loop is on). It returns the mode in force afterwards.
func (ctl *Controller) Observe(ts int64, n int64) Mode {
	if !ctl.hasSeg {
		ctl.segStart, ctl.hasSeg = ts, true
		if ctl.adaptive {
			ctl.nextFb = ts + ctl.acfg.FeedbackWindowNs
		}
	}
	ctl.lastTs = ts
	rate := ctl.meter.Observe(ts, n)
	if ctl.adaptive {
		for ts >= ctl.nextFb {
			ctl.feedbackTick(rate)
			ctl.nextFb += ctl.acfg.FeedbackWindowNs
		}
	}
	mode := ctl.cache.Mode()
	switch {
	case rate > ctl.effHigh && mode != Lite:
		ctl.closeSegment(mode, ts)
		ctl.cache.SetMode(Lite)
		ctl.switchovers++
		ctl.notify(Lite, rate, ts)
	case rate < ctl.effLow && mode != General:
		ctl.closeSegment(mode, ts)
		ctl.cache.SetMode(General)
		ctl.switchovers++
		ctl.notify(General, rate, ts)
	}
	return ctl.cache.Mode()
}

// feedbackTick closes one feedback window: sample the cache's live
// counters, apply the control law, and publish the retuned thresholds.
// Runs on the Observe goroutine; mu only fences State() readers.
//
// The law, in priority order (each signal must persist Confirm
// consecutive windows before the scale moves — the loop's own
// hysteresis):
//
//  1. Ring drops this window → the host cannot absorb the eviction
//     rate; raise both thresholds (bias toward General, which evicts
//     ~half as much) up to ScaleMax.
//  2. Occupancy ≥ OccHigh and not falling → the table is saturating;
//     lower the thresholds (shed into Lite earlier) down to ScaleMin.
//  3. Occupancy ≤ OccLow and no drops → pressure is gone; relax the
//     scale one step toward neutral 1.0.
//
// Orthogonally, FlapFlips+ mode flips inside one window shrink the low
// threshold (widening the hysteresis band, damping the flapping);
// flip-free windows relax it back. And when pin budgeting is on, punt
// activity (inserts refused because every candidate was pinned)
// contracts the pin budget; quiet windows re-expand it.
func (ctl *Controller) feedbackTick(rate float64) {
	c := ctl.cache
	occ := float64(c.LiveRecords()) / float64(c.cfg.Entries())
	drops := c.directRingDrops()
	punts := c.Punts()
	flips := ctl.switchovers
	dDrops := drops - ctl.prevDrops
	dPunts := punts - ctl.prevPunts
	dFlips := flips - ctl.prevFlips
	a := &ctl.acfg

	ctl.mu.Lock()
	defer ctl.mu.Unlock()
	ctl.lastRate = rate
	changed := false
	switch {
	case dDrops > 0:
		ctl.satStreak, ctl.relaxStreak = 0, 0
		if ctl.dropStreak++; ctl.dropStreak >= a.Confirm {
			ctl.dropStreak = 0
			if s := minF(ctl.scale*a.ScaleStep, a.ScaleMax); s != ctl.scale {
				ctl.scale, changed = s, true
			}
		}
	case occ >= a.OccHigh && occ >= ctl.prevOcc:
		ctl.dropStreak, ctl.relaxStreak = 0, 0
		if ctl.satStreak++; ctl.satStreak >= a.Confirm {
			ctl.satStreak = 0
			if s := maxF(ctl.scale/a.ScaleStep, a.ScaleMin); s != ctl.scale {
				ctl.scale, changed = s, true
			}
		}
	case occ <= a.OccLow:
		ctl.dropStreak, ctl.satStreak = 0, 0
		if ctl.relaxStreak++; ctl.relaxStreak >= a.Confirm {
			ctl.relaxStreak = 0
			if s := stepToward(ctl.scale, 1, a.ScaleStep); s != ctl.scale {
				ctl.scale, changed = s, true
			}
		}
	default:
		ctl.dropStreak, ctl.satStreak, ctl.relaxStreak = 0, 0, 0
	}
	if int(dFlips) >= a.FlapFlips {
		if g := maxF(ctl.gap*a.GapStep, a.GapMin); g != ctl.gap {
			ctl.gap, changed = g, true
		}
	} else if dFlips == 0 && ctl.gap < 1 {
		ctl.gap, changed = minF(ctl.gap/a.GapStep, 1), true
	}
	if a.PinBudgetFraction > 0 {
		switch {
		case dPunts > 0:
			if p := maxF(ctl.pinScale*a.PinStep, a.PinScaleMin); p != ctl.pinScale {
				ctl.pinScale, changed = p, true
			}
		case ctl.pinScale < 1:
			ctl.pinScale, changed = minF(ctl.pinScale/a.PinStep, 1), true
		}
		ctl.applyPinBudget()
	}
	ctl.effHigh = ctl.etaHigh * ctl.scale
	ctl.effLow = ctl.etaLow * ctl.scale * ctl.gap
	if changed {
		ctl.retunes++
	}
	ctl.prevOcc, ctl.prevDrops, ctl.prevPunts, ctl.prevFlips = occ, drops, punts, flips
}

// applyPinBudget publishes the effective pin budget to the cache.
func (ctl *Controller) applyPinBudget() {
	if ctl.acfg.PinBudgetFraction <= 0 {
		return
	}
	budget := int64(ctl.acfg.PinBudgetFraction * ctl.pinScale * float64(ctl.cache.cfg.Entries()))
	if budget < 1 {
		budget = 1
	}
	ctl.cache.SetPinBudget(budget)
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// stepToward moves v one multiplicative step toward target without
// overshooting it.
func stepToward(v, target, step float64) float64 {
	switch {
	case v < target:
		return minF(v*step, target)
	case v > target:
		return maxF(v/step, target)
	}
	return v
}

// ControllerState is a snapshot of the controller's tuned state, for
// metrics collectors and tests. Safe to read from any goroutine.
type ControllerState struct {
	// Adaptive reports whether the feedback loop is active.
	Adaptive bool
	// EtaHighEff / EtaLowEff are the thresholds currently in force
	// (equal to the configured ones until the loop retunes).
	EtaHighEff, EtaLowEff float64
	// Scale / Gap / PinScale are the loop's tuned multipliers.
	Scale, Gap, PinScale float64
	// Retunes counts feedback windows that changed at least one knob.
	Retunes uint64
	// Rate is the smoothed arrival rate at the last feedback window.
	Rate float64
	// PinBudget is the live pin cap (0 = unlimited).
	PinBudget int64
}

// State returns the controller's tuned state. Unlike the other
// accessors it is safe from any goroutine — the metrics collector reads
// per-shard controllers while workers drive them.
func (ctl *Controller) State() ControllerState {
	ctl.mu.Lock()
	defer ctl.mu.Unlock()
	return ControllerState{
		Adaptive:   ctl.adaptive,
		EtaHighEff: ctl.effHigh, EtaLowEff: ctl.effLow,
		Scale: ctl.scale, Gap: ctl.gap, PinScale: ctl.pinScale,
		Retunes: ctl.retunes,
		Rate:    ctl.lastRate,
		PinBudget: func() int64 {
			if !ctl.adaptive {
				return 0
			}
			return ctl.cache.PinBudget()
		}(),
	}
}

// closeSegment books the residency segment ending at ts against the mode
// that was in force, and opens the next segment.
func (ctl *Controller) closeSegment(mode Mode, ts int64) {
	if mode == Lite {
		ctl.resLiteNs += ts - ctl.segStart
	} else {
		ctl.resGeneralNs += ts - ctl.segStart
	}
	ctl.segStart = ts
}

// ModeResidency reports the virtual time spent in each mode, including
// the still-open segment up to the latest observation. Call from the
// Observe goroutine (or after processing quiesces).
func (ctl *Controller) ModeResidency() (generalNs, liteNs int64) {
	generalNs, liteNs = ctl.resGeneralNs, ctl.resLiteNs
	if ctl.hasSeg {
		open := ctl.lastTs - ctl.segStart
		if ctl.cache.Mode() == Lite {
			liteNs += open
		} else {
			generalNs += open
		}
	}
	return generalNs, liteNs
}

func (ctl *Controller) notify(m Mode, rate float64, ts int64) {
	if ctl.onSwitch != nil {
		ctl.onSwitch(m, rate, ts)
	}
}

// Rate returns the smoothed arrival rate (pps).
func (ctl *Controller) Rate() float64 { return ctl.meter.Rate() }

// Switchovers returns how many mode flips have occurred.
func (ctl *Controller) Switchovers() uint64 { return ctl.switchovers }
