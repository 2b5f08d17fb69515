package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"smartwatch/internal/detect"
	"smartwatch/internal/flowcache"
	"smartwatch/internal/obs"
	"smartwatch/internal/p4switch"
	"smartwatch/internal/packet"
	"smartwatch/internal/snic"
	"smartwatch/internal/tier"
)

func wlKey() packet.FlowKey {
	return packet.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 22, Proto: packet.ProtoTCP}.Canonical()
}

// seedRecord inserts and pins one record so whitelist/unpin have a
// target.
func seedRecord(pl *Platform, k packet.FlowKey) {
	p := packet.Packet{Tuple: k.Tuple(), Size: 64}
	pl.Cache().ObserveProcess(&p)
	pl.Cache().Pin(k)
}

// checkEventsGolden fails unless line is one of legacy_events.golden's: the
// end states the direct-call Whitelist / Blacklist left.
func checkEventsGolden(t *testing.T, line string) {
	t.Helper()
	if want := golden(t, "legacy_events.golden"); !strings.Contains(want, line+"\n") {
		t.Errorf("end state %q is not the direct-call one:\n%s", line, want)
	}
}

// TestWhitelistEventGolden: the whitelist action leaves the end state the
// first direct-call Whitelist left — switch entry installed, cache record
// unpinned — and publishes one event.
func TestWhitelistEventGolden(t *testing.T) {
	pl := New(Config{EnableSwitch: true, Queries: sshQueries()})
	k := wlKey()
	seedRecord(pl, k)
	pl.whitelist(k, operatorOrigin)

	_, pinned, ok := pl.Cache().Lookup(k)
	checkEventsGolden(t, fmt.Sprintf("whitelist: switch_entries=%d resident=%v pinned=%v", pl.Switch().WhitelistCount(), ok, pinned))
	if got := pl.Bus().Stats().PublishedFor(tier.KindWhitelist); got != 1 {
		t.Errorf("whitelist events = %d, want 1", got)
	}
}

// TestBlacklistEventGolden: the blacklist hook installs the same switch
// drop rule as the first direct call.
func TestBlacklistEventGolden(t *testing.T) {
	pl := New(Config{EnableSwitch: true, Queries: sshQueries()})
	a := packet.MustParseAddr("203.0.113.9")
	pl.Blacklist(a)
	checkEventsGolden(t, fmt.Sprintf("blacklist: blacklisted=%v", pl.Switch().Blacklisted(a)))
	if got := pl.Bus().Stats().PublishedFor(tier.KindBlacklist); got != 1 {
		t.Errorf("blacklist events = %d, want 1", got)
	}
}

// TestUnpinEvent: the hook-driven unpin releases the pin and publishes
// one event.
func TestUnpinEvent(t *testing.T) {
	pl := New(Config{})
	k := wlKey()
	seedRecord(pl, k)
	pl.Unpin(k)
	_, pinned, ok := pl.Cache().Lookup(k)
	if !ok || pinned {
		t.Errorf("unpin event did not release the record (ok=%v)", ok)
	}
	if got := pl.Bus().Stats().PublishedFor(tier.KindUnpin); got != 1 {
		t.Errorf("unpin events = %d, want 1", got)
	}
}

// scriptedDetector fires one fixed reaction on the first packet.
type scriptedDetector struct {
	react detect.Reaction
	fired bool
}

func (d *scriptedDetector) Name() string { return "scripted" }
func (d *scriptedDetector) OnPacket(p *packet.Packet, rec *flowcache.Record, ctx snic.Ctx) detect.Reaction {
	if d.fired {
		return detect.Reaction{}
	}
	d.fired = true
	return d.react
}
func (d *scriptedDetector) Tick(int64)            {}
func (d *scriptedDetector) Drain() []detect.Alert { return nil }

// handle runs p through the sNIC tier alone, on a context prepped as
// consume leaves it.
func handle(pl *Platform, p packet.Packet) {
	pkts := []packet.Packet{p}
	prepIdentity(pkts, pl.ctxs)
	pl.cur = &pl.ctxs[0]
	pl.tierHandler(&pkts[0], snic.Ctx{})
}

// TestDetectorReactionsBecomeEvents: in-datapath detector verdicts reach
// the switch and are published tagged with their origin.
func TestDetectorReactionsBecomeEvents(t *testing.T) {
	det := &scriptedDetector{react: detect.Reaction{Whitelist: true, BlacklistSrc: true}}
	pl := New(Config{
		EnableSwitch: true, Queries: sshQueries(),
		Detectors: []detect.Detector{det},
	})
	var origins []string
	pl.Bus().Subscribe(tier.KindWhitelist, "test-observer", func(e tier.Event) {
		origins = append(origins, e.(tier.WhitelistEvent).Origin)
	})
	src := packet.MustParseAddr("198.51.100.1")
	p := packet.Packet{
		Ts: 1e6,
		Tuple: packet.FiveTuple{SrcIP: src, DstIP: 2, SrcPort: 40000, DstPort: 8080,
			Proto: packet.ProtoTCP},
		Size: 64,
	}
	// Drive the sNIC tier directly, on a context prepped as consume leaves
	// it: with the switch enabled the wire side would fast-path this
	// unsteered packet, and the point here is tierHandler's reactions.
	handle(pl, p)
	if !pl.Switch().Blacklisted(src) {
		t.Error("detector blacklist reaction never reached the switch")
	}
	if pl.Switch().WhitelistCount() != 1 {
		t.Error("detector whitelist reaction never reached the switch")
	}
	if len(origins) != 1 || origins[0] != "detector" {
		t.Errorf("whitelist origins = %v, want [detector]", origins)
	}
}

// TestIntervalEventSequence: interval events carry 1-based sequence
// numbers matching the interval counter.
func TestIntervalEventSequence(t *testing.T) {
	pl := New(Config{IntervalNs: 10e6})
	var seqs []uint64
	pl.Bus().Subscribe(tier.KindInterval, "test-observer", func(e tier.Event) {
		seqs = append(seqs, e.(tier.IntervalEvent).Seq)
	})
	var pkts []packet.Packet
	for i := 0; i < 50; i++ {
		pkts = append(pkts, packet.Packet{
			Ts: int64(i) * 1e6,
			Tuple: packet.FiveTuple{SrcIP: packet.Addr(i%5 + 1), DstIP: 99,
				SrcPort: uint16(1000 + i), DstPort: 443, Proto: packet.ProtoTCP},
			Size: 64,
		})
	}
	rep := mustRun(t, pl, packet.StreamOf(pkts))
	if len(seqs) == 0 {
		t.Fatal("no interval events")
	}
	for i, s := range seqs {
		if s != uint64(i+1) {
			t.Fatalf("interval seq = %v, want 1..n contiguous", seqs)
		}
	}
	if rep.Counts.Intervals != uint64(len(seqs)) {
		t.Errorf("Counts.Intervals = %d, events = %d", rep.Counts.Intervals, len(seqs))
	}
}

// TestObserversSeeReactionsApplied is the observer contract: for every
// kind and every origin — a detector verdict, a detector's hook, an
// operator's Session call — an observer runs after the platform applied
// the reaction (switch entry installed, pin released, host flush done,
// metrics line written) and sees who asked.
func TestObserversSeeReactionsApplied(t *testing.T) {
	k := wlKey()
	src := k.Tuple().SrcIP
	detector := func(pl *Platform, _ *Session) { handle(pl, packet.Packet{Ts: 1, Tuple: k.Tuple(), Size: 64}) }
	operator := func(fn func(*Session) error) func(*Platform, *Session) {
		return func(_ *Platform, ses *Session) {
			if err := fn(ses); err != nil {
				t.Fatal(err)
			}
		}
	}
	cases := []struct {
		name, origin string
		kind         tier.Kind
		react        detect.Reaction
		act          func(*Platform, *Session)
	}{
		{"whitelist/detector", "detector", tier.KindWhitelist, detect.Reaction{Whitelist: true}, detector},
		{"whitelist/operator", operatorOrigin, tier.KindWhitelist, detect.Reaction{}, operator(func(s *Session) error { return s.Whitelist(k) })},
		{"blacklist/detector", "detector", tier.KindBlacklist, detect.Reaction{BlacklistSrc: true}, detector},
		{"blacklist/hooks", "hooks", tier.KindBlacklist, detect.Reaction{}, func(pl *Platform, _ *Session) { pl.Blacklist(src) }},
		{"blacklist/operator", operatorOrigin, tier.KindBlacklist, detect.Reaction{}, operator(func(s *Session) error { return s.Blacklist(src) })},
		{"unpin/hooks", "hooks", tier.KindUnpin, detect.Reaction{}, func(pl *Platform, _ *Session) { pl.Unpin(k) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			pl := New(Config{EnableSwitch: true, Queries: sshQueries(),
				Detectors: []detect.Detector{&scriptedDetector{react: c.react}}})
			ses := pl.NewSession()
			if err := ses.Start(); err != nil {
				t.Fatal(err)
			}
			seedRecord(pl, k)
			var seen []string
			pl.Bus().Subscribe(c.kind, "test-observer", func(e tier.Event) {
				_, pinned, _ := pl.Cache().Lookup(k)
				switch ev := e.(type) {
				case tier.WhitelistEvent:
					seen = append(seen, fmt.Sprintf("%s entries=%d pinned=%v", ev.Origin, pl.Switch().WhitelistCount(), pinned))
				case tier.BlacklistEvent:
					seen = append(seen, fmt.Sprintf("%s blacklisted=%v", ev.Origin, pl.Switch().Blacklisted(ev.Addr)))
				case tier.UnpinEvent:
					seen = append(seen, fmt.Sprintf("%s pinned=%v", ev.Origin, pinned))
				}
			})
			c.act(pl, ses)
			want := map[tier.Kind]string{
				tier.KindWhitelist: c.origin + " entries=1 pinned=false",
				tier.KindBlacklist: c.origin + " blacklisted=true",
				tier.KindUnpin:     c.origin + " pinned=false",
			}[c.kind]
			if len(seen) != 1 || seen[0] != want {
				t.Errorf("observer saw %q, want [%s]", seen, want)
			}
		})
	}

	t.Run("interval", func(t *testing.T) {
		var lines bytes.Buffer
		pl := New(Config{EnableSwitch: true, Queries: sshQueries(), IntervalNs: 10e6,
			Metrics: obs.NewRegistry(), MetricsWriter: &lines})
		var seen []string
		pl.Bus().Subscribe(tier.KindInterval, "test-observer", func(e tier.Event) {
			seen = append(seen, fmt.Sprintf("seq=%d steered=%d flushed=%d lines=%d", e.(tier.IntervalEvent).Seq,
				pl.Switch().Stats().Intervals, pl.flusher.Stats().Flushes, strings.Count(lines.String(), "\n")))
		})
		pl.AdvanceClock(20e6)
		if want := "[seq=1 steered=1 flushed=1 lines=1 seq=2 steered=2 flushed=2 lines=2]"; fmt.Sprint(seen) != want {
			t.Errorf("observer saw %v, want %s", seen, want)
		}
	})
}

// TestEventsCountedWithoutObservers: with nothing subscribed, every kind
// is still counted as published, and Delivered counts the reactions the
// platform applied — switch entry and unpin for a whitelist, the drop rule
// for a blacklist, the unpin, the switch steer and host flush for an
// interval, nothing for a mode flip.
func TestEventsCountedWithoutObservers(t *testing.T) {
	pl := New(Config{EnableSwitch: true, Queries: sshQueries(), IntervalNs: 10e6})
	k := wlKey()
	pl.whitelist(k, operatorOrigin)
	pl.Blacklist(k.Tuple().SrcIP)
	pl.Unpin(k)
	pl.AdvanceClock(10e6)
	pl.Cache().OnModeSwitch(0, flowcache.Lite, 0, 0)

	st := pl.Bus().Stats()
	for kind := tier.KindWhitelist; kind <= tier.KindModeSwitch; kind++ {
		if got := st.PublishedFor(kind); got != 1 {
			t.Errorf("published %v = %d, want 1", kind, got)
		}
	}
	if st.Delivered != 2+1+1+2 || st.Panics != 0 {
		t.Errorf("delivered = %d, panics = %d; want 6 reactions, 0", st.Delivered, st.Panics)
	}
}

// TestRefusedWhitelistNotDelivered: a whitelist the switch refuses (its
// table is full) delivers only the unpin, not a switch entry.
func TestRefusedWhitelistNotDelivered(t *testing.T) {
	sw := p4switch.DefaultConfig()
	sw.MaxWhitelist = 1
	pl := New(Config{EnableSwitch: true, Switch: sw, Queries: sshQueries()})
	k := wlKey()
	pl.whitelist(k, operatorOrigin)
	first := pl.Bus().Stats().Delivered
	other := packet.FiveTuple{SrcIP: 5, DstIP: 6, SrcPort: 7, DstPort: 22, Proto: packet.ProtoTCP}.Canonical()
	pl.whitelist(other, operatorOrigin)
	if got := pl.Bus().Stats().Delivered - first; first != 2 || got != 1 {
		t.Errorf("delivered %d for an installed whitelist, %d for a refused one; want 2, 1", first, got)
	}
	if n := pl.Switch().WhitelistCount(); n != 1 {
		t.Errorf("whitelist holds %d entries, want 1", n)
	}
}

// TestUnobservedUnpinDoesNotAllocate: a control action with no observer
// of its kind builds no event value (DESIGN.md §7.3).
func TestUnobservedUnpinDoesNotAllocate(t *testing.T) {
	pl := New(Config{})
	k := wlKey()
	seedRecord(pl, k)
	if n := testing.AllocsPerRun(100, func() { pl.Unpin(k) }); n != 0 {
		t.Errorf("Platform.Unpin: %v allocs, want 0", n)
	}
	if got := pl.Bus().Stats().PublishedFor(tier.KindUnpin); got != 101 {
		t.Errorf("unpin events = %d, want 101", got)
	}
}
