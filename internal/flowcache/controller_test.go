package flowcache

import (
	"strings"
	"testing"
)

func TestControllerConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  ControllerConfig
		want string // error substring; "" = valid
	}{
		{"zero", ControllerConfig{}, ""},
		{"default", DefaultControllerConfig(), ""},
		{"alpha-high", ControllerConfig{Alpha: 1.5}, "Alpha"},
		{"alpha-negative", ControllerConfig{Alpha: -0.1}, "Alpha"},
		{"window-negative", ControllerConfig{WindowNs: -1}, "WindowNs"},
		{"eta-negative", ControllerConfig{EtaHigh: -5}, "thresholds"},
		{"eta-inverted", ControllerConfig{EtaHigh: 20e6, EtaLow: 30e6}, "EtaLow"},
		{"eta-equal", ControllerConfig{EtaHigh: 20e6, EtaLow: 20e6}, "EtaLow"},
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
