package experiments

import (
	"math"

	"smartwatch/internal/core"
	"smartwatch/internal/detect"
	"smartwatch/internal/flowcache"
	"smartwatch/internal/packet"
	"smartwatch/internal/pcap"
	"smartwatch/internal/snic"
	"smartwatch/internal/tier"
	"smartwatch/internal/trace"
)

// lsConfig is the platform every lowslow section drives: the LowSlow
// detector alone on a 2^rowBits-row FlowCache, ticking every 25 ms.
func lsConfig(rowBits int) core.Config {
	return core.Config{Cache: detectCache(rowBits), TickNs: 25e6, Detectors: []detect.Detector{
		detect.NewLowSlow(detect.LowSlowConfig{IdleNs: 150e6, MinAgeNs: 400e6, MinDrips: 4, ExhaustThreshold: 32}),
	}}
}

// firstAlertMs is the earliest alert's time in ms (+Inf without one),
// over the alerts of the named detector ("" for every detector).
func firstAlertMs(alerts []detect.Alert, detector string) float64 {
	first := math.Inf(1)
	for _, a := range alerts {
		if detector == "" || a.Detector == detector {
			first = math.Min(first, float64(a.Ts)/1e6)
		}
	}
	return first
}

// LowSlowSuite evaluates the low-and-slow suite through the platform:
// (1) online detection quality of the three low-and-slow injectors (plus
// classic Slowloris through the same online path) against ground truth;
// (2) punt rate under ConnExhaust pin starvation, before and after the
// starve-evict + pin-aging fixes, across pin budgets; (3) pinned-state
// retention through General<->Lite mode churn.
func LowSlowSuite(scale float64) *Table {
	t := &Table{
		ID: "lowslow", Title: "Low-and-slow attacks: detection quality, pin starvation, mode churn",
		Columns: []string{"scenario", "metric", "value"},
	}
	sc := math.Max(scale, 0.25)

	// ---- 1. Detection quality per injector --------------------------------
	bg := func(seed uint64) packet.Stream {
		return trace.NewWorkload(trace.WorkloadConfig{
			Seed: seed, Flows: scaleInt(2000, sc), PacketRate: 2e5, Duration: 3e9,
		}).Stream()
	}
	for i, q := range []struct {
		name string
		inj  trace.Injector
	}{
		{"slow-read", trace.SlowRead(trace.SlowReadConfig{Seed: 31, Connections: scaleInt(60, sc), DripGap: 100e6, Duration: 3e9})},
		{"slow-post", trace.SlowPost(trace.SlowPostConfig{Seed: 32, Connections: scaleInt(60, sc), ByteGap: 100e6, Duration: 3e9})},
		{"conn-exhaust", trace.ConnExhaust(trace.ConnExhaustConfig{Seed: 33, Connections: scaleInt(300, sc), ConnGap: 8e6})},
		{"slowloris-online", trace.Slowloris(trace.SlowlorisConfig{Seed: 34, Connections: scaleInt(60, sc), TrickleGap: 100e6, Duration: 3e9})},
	} {
		// The detector's blacklists, as the platform publishes them.
		implicated := map[packet.Addr]bool{}
		_, rep := drive{cfg: lsConfig(10), tailNs: 4e9, setup: func(pl *core.Platform) {
			pl.Bus().Subscribe(tier.KindBlacklist, "lowslow-score", func(e tier.Event) {
				implicated[e.(tier.BlacklistEvent).Addr] = true
			})
		}}.run(pcap.Merge(bg(41+uint64(i)), q.inj.Stream()))

		truthSet := map[packet.Addr]bool{}
		for _, a := range q.inj.Truth().Attackers {
			truthSet[a] = true
		}
		tp := 0
		for a := range implicated {
			if truthSet[a] {
				tp++
			}
		}
		precision, recall := 0.0, 0.0
		if len(implicated) > 0 {
			precision = float64(tp) / float64(len(implicated))
		}
		if len(truthSet) > 0 {
			recall = float64(tp) / float64(len(truthSet))
		}
		t.AddRow(q.name, "precision", f2(precision))
		t.AddRow(q.name, "recall", f2(recall))
		if first := firstAlertMs(rep.Alerts, ""); math.IsInf(first, 1) {
			t.AddRow(q.name, "first-alert-ms", "never")
		} else {
			t.AddRow(q.name, "first-alert-ms", f2(first))
		}
	}

	// ---- 2. Pin starvation under ConnExhaust ------------------------------
	// A small cache (64 rows) with hundreds of pinned accreting connections
	// plus background insert pressure: the seed policy punts every insert
	// that finds its row all-pinned; the hardened policy (starve-evict +
	// pin aging) keeps the datapath inserting. The background's span scales
	// with the ConnExhaust connection count, so a reduced scale keeps the
	// insert pressure per connection.
	starve := func(budget int64, hardened bool) (puntsPerKpkt float64, firstMs float64, starved uint64) {
		cfg := lsConfig(6)
		if hardened {
			cfg.Cache.PinStarveEvict = true
			cfg.Cache.PinAgeNs = 250e6
		}
		_, rep := drive{cfg: cfg, tailNs: 4e9, setup: func(pl *core.Platform) {
			c := pl.Cache().Shard(0)
			c.EnableFeedback()
			c.SetPinBudget(budget)
		}}.run(pcap.Merge(
			trace.NewWorkload(trace.WorkloadConfig{
				Seed: 45, Flows: scaleInt(4000, sc), PacketRate: 1e6, Duration: int64(2e9 * sc),
			}).Stream(),
			trace.ConnExhaust(trace.ConnExhaustConfig{Seed: 35, Connections: scaleInt(500, sc), ConnGap: 3e6}).Stream(),
		))
		st := rep.Cache
		if st.Processed() == 0 {
			return 0, 0, 0
		}
		return float64(st.HostPunts) / float64(st.Processed()) * 1000, firstAlertMs(rep.Alerts, "conn-exhaust"), st.StarveEvictions
	}
	for _, budget := range []int64{128, 512, 0} {
		name := "pin-budget=" + d(budget)
		if budget == 0 {
			name = "pin-budget=unlimited"
		}
		seedPunts, seedMs, _ := starve(budget, false)
		hardPunts, hardMs, starved := starve(budget, true)
		t.AddRow(name, "punts-per-kpkt-seed", f2(seedPunts))
		t.AddRow(name, "punts-per-kpkt-hardened", f2(hardPunts))
		t.AddRow(name, "starve-evictions", d(starved))
		t.AddRow(name, "detect-ms-seed", f2(seedMs))
		t.AddRow(name, "detect-ms-hardened", f2(hardMs))
	}

	// ---- 3. Mode-switch churn with pinned flows ---------------------------
	// Flip General<->Lite every 4000 packets while the detector pins
	// low-and-slow flows: no pinned record may be lost (the Lite retention
	// fix parks slice overflow instead of evicting it). The rate controller
	// is parked — its thresholds are out of the traffic's reach — so the
	// figure's flips are the only ones.
	{
		cfg := lsConfig(6)
		cfg.Controller = flowcache.ControllerConfig{EtaHigh: 1e15, EtaLow: 1}
		ledger := &pinLedger{Detector: cfg.Detectors[0], pinned: map[packet.FlowKey]bool{}}
		cfg.Detectors = []detect.Detector{ledger}
		flips := 0
		pl, rep := drive{cfg: cfg, tailNs: 4e9, every: 4000,
			setup: func(pl *core.Platform) {
				pl.Cache().Shard(0).EnableFeedback()
				pl.Bus().Subscribe(tier.KindUnpin, "pin-ledger", func(e tier.Event) {
					delete(ledger.pinned, e.(tier.UnpinEvent).Key)
				})
				pl.Bus().Subscribe(tier.KindWhitelist, "pin-ledger", func(e tier.Event) {
					delete(ledger.pinned, e.(tier.WhitelistEvent).Key)
				})
			},
			between: func(pl *core.Platform) {
				pl.Cache().SetMode([2]flowcache.Mode{flowcache.Lite, flowcache.General}[flips%2])
				flips++
			},
		}.run(pcap.Merge(
			bg(46),
			trace.SlowPost(trace.SlowPostConfig{Seed: 36, Connections: scaleInt(40, sc), ByteGap: 100e6, Duration: 3e9}).Stream(),
			trace.ConnExhaust(trace.ConnExhaustConfig{Seed: 37, Connections: scaleInt(200, sc), ConnGap: 10e6}).Stream(),
		))
		// Every flow the ledger still holds must still have a pinned record.
		lost := 0
		for k := range ledger.pinned {
			if _, pinned, ok := pl.Cache().Lookup(k); !ok || !pinned {
				lost++
			}
		}
		live := len(ledger.pinned)
		retained := 1.0
		if live > 0 {
			retained = float64(live-lost) / float64(live)
		}
		t.AddRow("mode-churn", "mode-flips", d(flips))
		t.AddRow("mode-churn", "live-pins-at-end", d(live))
		t.AddRow("mode-churn", "retained-pinned", f2(retained))
		t.AddRow("mode-churn", "pinned-lost", d(lost))
		t.AddRow("mode-churn", "alerts-under-churn", d(len(rep.Alerts)))
	}

	t.Notes = append(t.Notes,
		"precision/recall score hook-blacklisted sources against injector ground truth;",
		"punts-per-kpkt: HostPunts per 1000 processed packets on a 64-row cache under",
		"ConnExhaust pin pressure — the hardened column has PinStarveEvict+PinAgeNs on;",
		"retained-pinned must be 1.00: the Lite-mode parking fix keeps every live pinned",
		"record reachable across General<->Lite churn")
	return t
}

// pinLedger is the mode-churn section's ground truth on pins: it wraps a
// detector and records every flow whose record the detector had the
// platform pin; the platform's unpins and whitelists take the flow back
// out (the section subscribes those on the bus — LowSlow unpins only
// through its hooks, never by verdict). To the platform it is a detector
// from outside package detect, driven through OnPacket.
type pinLedger struct {
	detect.Detector
	pinned map[packet.FlowKey]bool
}

// SetHooks hands the platform's hooks on to the wrapped detector.
func (l *pinLedger) SetHooks(h detect.Hooks) {
	l.Detector.(interface{ SetHooks(detect.Hooks) }).SetHooks(h)
}

func (l *pinLedger) OnPacket(p *packet.Packet, rec *flowcache.Record, ctx snic.Ctx) detect.Reaction {
	verdict := l.Detector.OnPacket(p, rec, ctx)
	if rec != nil && verdict.Pin {
		l.pinned[rec.Key] = true
	}
	return verdict
}
