package detect

import (
	"testing"
	"unsafe"

	"smartwatch/internal/lpmap"
	"smartwatch/internal/packet"
	"smartwatch/internal/snic"
	"smartwatch/internal/trace"
)

// The slot is the flow table's memory and its cache footprint: 104 bytes
// grown at half load cost churn +13 % peak RSS in a prototype (DESIGN.md
// §17). Keep it at one line.
func TestLowSlowTableSlotSize(t *testing.T) {
	if got := unsafe.Sizeof(lpmap.Slot[packet.FlowKey, lsFlow]{}); got > 64 {
		t.Fatalf("the flow table's slot is %d bytes, want <= 64 (tag 8 + key 16 + flow 40)", got)
	}
}

// tailTicks drives the detector's clock past the end of the stream so
// idle deadlines (and their re-armed successors) all expire.
func tailTicks(det Detector, from, until, step int64) {
	for ts := from; ts <= until; ts += step {
		det.Tick(ts)
	}
}

func alertLabels(alerts []Alert) map[string]int {
	m := map[string]int{}
	for _, a := range alerts {
		m[a.Detector]++
	}
	return m
}

func TestLowSlowDetectsSlowPost(t *testing.T) {
	inj := trace.SlowPost(trace.SlowPostConfig{Seed: 3, Connections: 12, ByteGap: 100e6, Duration: 3e9})
	det := NewLowSlow(LowSlowConfig{ExhaustThreshold: 1 << 20}) // isolate the drip signatures
	dr := newDriver(det)
	dr.run(inj.Stream(), 50e6)
	tailTicks(det, 3e9, 6e9, 100e6)

	alerts := det.Drain()
	labels := alertLabels(alerts)
	if labels["slow-post"] == 0 {
		t.Fatalf("no slow-post alerts; got %v", labels)
	}
	attacker := inj.Truth().Attackers[0]
	for _, a := range alerts {
		if a.Attacker != attacker {
			t.Errorf("alert implicates %s, attacker is %s", a.Attacker, attacker)
		}
	}
}

func TestLowSlowDetectsSlowlorisOnline(t *testing.T) {
	// The drip signature catches classic Slowloris too — the online upgrade
	// over the post-hoc SlowlorisOffline analytic.
	inj := trace.Slowloris(trace.SlowlorisConfig{Seed: 3, Connections: 20, TrickleGap: 100e6, Duration: 3e9})
	det := NewLowSlow(LowSlowConfig{ExhaustThreshold: 1 << 20})
	dr := newDriver(det)
	dr.run(inj.Stream(), 50e6)
	tailTicks(det, 3e9, 6e9, 100e6)

	if labels := alertLabels(det.Drain()); labels["slow-post"] == 0 {
		t.Fatalf("slowloris not confirmed online; got %v", labels)
	}
}

func TestLowSlowDetectsSlowRead(t *testing.T) {
	inj := trace.SlowRead(trace.SlowReadConfig{Seed: 3, Connections: 10, DripGap: 100e6, Duration: 3e9})
	det := NewLowSlow(LowSlowConfig{ExhaustThreshold: 1 << 20})
	dr := newDriver(det)
	dr.run(inj.Stream(), 50e6)
	tailTicks(det, 3e9, 6e9, 100e6)

	alerts := det.Drain()
	labels := alertLabels(alerts)
	if labels["slow-read"] == 0 {
		t.Fatalf("no slow-read alerts; got %v", labels)
	}
	if labels["slow-post"] != 0 {
		t.Errorf("slow-read misclassified as slow-post: %v", labels)
	}
}

func TestLowSlowDetectsConnExhaust(t *testing.T) {
	inj := trace.ConnExhaust(trace.ConnExhaustConfig{Seed: 3, Connections: 120, ConnGap: 10e6})
	hooks := &hookRecorder{}
	det := NewLowSlow(LowSlowConfig{IdleNs: 200e6, ExhaustThreshold: 16})
	det.SetHooks(hooks)
	dr := newDriver(det)
	dr.run(inj.Stream(), 50e6)
	tailTicks(det, 2e9, 5e9, 100e6)

	alerts := det.Drain()
	labels := alertLabels(alerts)
	if labels["conn-exhaust"] == 0 {
		t.Fatalf("no conn-exhaust alerts; got %v", labels)
	}
	truth := inj.Truth()
	block := truth.Attackers[0] &^ 0xff
	for _, a := range alerts {
		if a.Detector == "conn-exhaust" && a.Victim != truth.Victims[0] {
			t.Errorf("alert victim %s, want %s", a.Victim, truth.Victims[0])
		}
	}
	if len(hooks.blacklists) == 0 {
		t.Fatal("no blacklist hooks fired")
	}
	for _, b := range hooks.blacklists {
		if b&^0xff != block {
			t.Errorf("blacklisted %s outside the attacking /24", b)
		}
	}
	if len(hooks.unpins) == 0 {
		t.Error("idle flows were never unpinned — pins would leak forever")
	}
}

func TestLowSlowQuietOnBenignTraffic(t *testing.T) {
	// Brute-force traffic is malicious but not low-and-slow: every attempt
	// completes and closes quickly. The low-and-slow detector must stay
	// quiet (the SSH detector owns that traffic).
	inj := trace.BruteForce(trace.BruteForceConfig{Seed: 3, Attackers: 4, AttemptsPerAttacker: 5, LegitClients: 3})
	det := NewLowSlow(LowSlowConfig{})
	dr := newDriver(det)
	dr.run(inj.Stream(), 50e6)
	tailTicks(det, 2e9, 5e9, 100e6)

	if alerts := det.Drain(); len(alerts) != 0 {
		t.Fatalf("false positives on closing traffic: %v", alerts)
	}
}

// SetHooks rewires the hooks Tick work acts on, and nil leaves a detector
// that acts on nothing: an unanswered SYN's expiry unpins into the
// recorder while it is set and into nowhere once it is cleared.
func TestLowSlowSetHooks(t *testing.T) {
	det := NewLowSlow(LowSlowConfig{IdleNs: 200e6})
	expire := func(i int) {
		ts := int64(i) * 10e9
		p, r := synTo(ts+1, 0xc6000001+packet.Addr(i), 0x0a000001, 80)
		det.OnPacket(p, r, snic.Ctx{})
		det.Tick(ts + 5e9)
	}
	rec := &hookRecorder{}
	det.SetHooks(rec)
	expire(0)
	det.SetHooks(nil)
	expire(1)
	if len(rec.unpins) != 1 {
		t.Fatalf("recorder saw %d unpins, want 1: the expiry after SetHooks(nil) must reach nothing", len(rec.unpins))
	}
}
