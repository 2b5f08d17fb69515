package flowcache

import (
	"fmt"

	"smartwatch/internal/stats"
)

// Controller is the CME-resident mode switcher of Algorithm 4: it tracks
// the packet arrival rate with an EWMA (alpha = 0.75 over 100-sample
// windows in the paper) and flips the cache between General and Lite mode
// around two thresholds with hysteresis.
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
// but a negative threshold or an inverted EtaLow/EtaHigh pair used to be
// silently clamped and now fails loudly here. NewController and NewSharded call this.
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
	return &Controller{
		cache:    c,
		meter:    stats.NewRateMeter(cfg.Alpha, cfg.WindowNs),
		etaHigh:  cfg.EtaHigh,
		etaLow:   cfg.EtaLow,
		onSwitch: cfg.OnSwitch,
	}
}

// Observe records n packet arrivals at virtual time ts and applies the
// Alg.-4 switchover rule. It returns the mode in force afterwards.
func (ctl *Controller) Observe(ts int64, n int64) Mode {
	if !ctl.hasSeg {
		ctl.segStart, ctl.hasSeg = ts, true
	}
	ctl.lastTs = ts
	rate := ctl.meter.Observe(ts, n)
	mode := ctl.cache.Mode()
	switch {
	case rate > ctl.etaHigh && mode != Lite:
		ctl.closeSegment(mode, ts)
		ctl.cache.SetMode(Lite)
		ctl.switchovers++
		ctl.notify(Lite, rate, ts)
	case rate < ctl.etaLow && mode != General:
		ctl.closeSegment(mode, ts)
		ctl.cache.SetMode(General)
		ctl.switchovers++
		ctl.notify(General, rate, ts)
	}
	return ctl.cache.Mode()
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

// Switchovers returns how many mode flips have occurred.
func (ctl *Controller) Switchovers() uint64 { return ctl.switchovers }
