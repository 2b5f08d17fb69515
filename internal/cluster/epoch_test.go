package cluster

import (
	"fmt"
	"reflect"
	"testing"

	"smartwatch/internal/core"
	"smartwatch/internal/detect"
	"smartwatch/internal/flowcache"
	"smartwatch/internal/p4switch"
	"smartwatch/internal/packet"
	"smartwatch/internal/snic"
)

// The fold-contract tests script everything: every packet goes to one /16,
// which a steer entry installed before Start sends to the lanes, so until
// the first blacklist drop "steered so far" is the packet's index; the
// attackers are single flows, so one lane's detector sees all of each; and
// the detector below raises its events at scripted packets and ticks.

var (
	scriptDst = packet.MustParseAddr("10.1.0.22")
	attackerA = packet.MustParseAddr("203.0.113.7")
	attackerB = packet.MustParseAddr("203.0.113.8")
)

const scriptStep = 1000 // ns between scripted packets

// scriptDetector asks for attackerA to be blacklisted on its nth packet
// and, through the hooks, blacklists attackerB at the first Tick at or
// after tickAt (0: never).
type scriptDetector struct {
	nth, seen int
	tickAt    int64
	hooks     detect.Hooks
}

func (d *scriptDetector) Name() string { return "script" }
func (d *scriptDetector) OnPacket(p *packet.Packet, rec *flowcache.Record, ctx snic.Ctx) detect.Reaction {
	if p.Tuple.SrcIP != attackerA {
		return detect.Reaction{}
	}
	d.seen++
	return detect.Reaction{BlacklistSrc: d.seen == d.nth}
}
func (d *scriptDetector) SetHooks(h detect.Hooks) { d.hooks = h }
func (d *scriptDetector) Tick(now int64) {
	if d.tickAt > 0 && now >= d.tickAt {
		d.hooks.Blacklist(attackerB)
		d.tickAt = 0
	}
}
func (d *scriptDetector) Drain() []detect.Alert { return nil }

// scriptedPackets is n packets, one per scriptStep: attackerA's wherever
// attack(i) says so, otherwise background whose flow changes every 300
// packets — so for stretches longer than a 64-packet epoch one lane
// receives nothing but the odd attacker packet.
func scriptedPackets(n int, attack func(i int) bool) []packet.Packet {
	pkts := make([]packet.Packet, n)
	for i := range pkts {
		t := packet.FiveTuple{
			SrcIP: packet.AddrFrom4(172, 16, 0, byte(i/300)), DstIP: scriptDst,
			SrcPort: uint16(2000 + i/300), DstPort: 80, Proto: packet.ProtoTCP,
		}
		if attack(i) {
			t.SrcIP, t.SrcPort = attackerA, 4444
		}
		pkts[i] = packet.Packet{Ts: int64(i) * scriptStep, Tuple: t, Size: 64, Flags: packet.FlagACK}
	}
	return pkts
}

// scriptedCluster is a started 2-worker runner over the scripted setup.
func scriptedCluster(t *testing.T, sequential bool, syncPackets int, intervalNs int64, det scriptDetector) *Runner {
	t.Helper()
	r := New(Config{
		Workers: 2,
		Worker: core.Config{
			EnableSwitch: true,
			Queries: []p4switch.Query{{
				Name: "all", Key: p4switch.KeyDstIP, PrefixBits: 16,
				Reduce: p4switch.CountPackets, Threshold: 1, Slots: 64,
			}},
			IntervalNs: intervalNs, BatchSize: 1, SNIC: noDropSNIC(),
		},
		Detectors:   func() []detect.Detector { d := det; return []detect.Detector{&d} },
		QueueBatch:  256,
		SyncPackets: syncPackets,
		Sequential:  sequential,
	})
	if err := r.Switch().Steer(p4switch.FiredKey{Query: "all", Key: scriptDst.Prefix(16), PrefixBits: 16}); err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	return r
}

// firstBlacklistHit feeds pkts one per Ingest — the feeders get every
// chance to run ahead of the router — and returns the index of the first
// packet the shared switch dropped (-1 for none).
func firstBlacklistHit(t *testing.T, r *Runner, pkts []packet.Packet) int {
	t.Helper()
	first := -1
	for i := range pkts {
		if err := r.Ingest(pkts[i : i+1]); err != nil {
			t.Fatal(err)
		}
		if first < 0 && r.Switch().Stats().BlacklistHits > 0 {
			first = i
		}
	}
	return first
}

// nextAttack is the index of attackerA's first packet at or after from.
func nextAttack(pkts []packet.Packet, from int) int {
	for i := from; i < len(pkts); i++ {
		if pkts[i].Tuple.SrcIP == attackerA {
			return i
		}
	}
	return -1
}

// TestFoldDelayBound pins the one-epoch delay: an event raised by a packet
// of epoch e is folded by the close of epoch e+1, so the shared switch
// drops the source's first packet after that close — never an epoch
// earlier, however far ahead the feeders are, never later — identically in
// the sequential and parallel drives, with epochs shorter than a handoff
// buffer (lanes see empty epochs) and longer.
func TestFoldDelayBound(t *testing.T) {
	const every, nth = 37, 20 // attacker packets at 5, 42, ...; the 20th raises the event
	pkts := scriptedPackets(6000, func(i int) bool { return i%every == 5 })
	raised := 5 + (nth-1)*every
	for _, sync := range []int{64, 1024} {
		// Packet index i is steered packet i+1, and close k follows steered
		// packet k·sync: the raising packet sits in epoch raised/sync + 1.
		closeIdx := (raised/sync + 2) * sync
		want := nextAttack(pkts, closeIdx)
		if early := nextAttack(pkts, closeIdx-sync); early >= closeIdx {
			t.Fatalf("script error: no attacker packet in the epoch before the fold (sync %d)", sync)
		}
		for _, sequential := range []bool{true, false} {
			t.Run(fmt.Sprintf("sync%d_sequential=%v", sync, sequential), func(t *testing.T) {
				r := scriptedCluster(t, sequential, sync, 1e15, scriptDetector{nth: nth})
				defer r.Close()
				if got := firstBlacklistHit(t, r, pkts); got != want {
					t.Errorf("first blacklist hit at packet %d, want %d (event raised at %d, folded by the close after %d)",
						got, want, raised, closeIdx-1)
				}
				rep, err := r.Drain()
				if err != nil {
					t.Fatal(err)
				}
				if rep.Steer.FoldedEvents != 1 {
					t.Errorf("folded %d events, want 1", rep.Steer.FoldedEvents)
				}
			})
		}
	}
}

// TestFullBarrierFoldsEverything: an interval boundary and Drain keep the
// full barrier. An event raised in the last, still open epoch before an
// interval boundary takes effect on the first packet after the boundary,
// and one raised inside the workers' own Drain (a detector tick between the
// last packet and the final interval close) is in the final tables —
// identically in both drives.
func TestFullBarrierFoldsEverything(t *testing.T) {
	const intervalNs = 1000 * 1000 // a boundary every 1000 packets
	// The attacker's 100th packet is 990, in the epoch 768..1023.
	pkts := scriptedPackets(2500, func(i int) bool { return i%10 == 0 })
	final := map[bool][]packet.Addr{}
	for _, sequential := range []bool{true, false} {
		// The tick: after the last packet, before the final close at 3 ms.
		r := scriptedCluster(t, sequential, 256, intervalNs, scriptDetector{nth: 100, tickAt: 2900 * 1000})
		if got := firstBlacklistHit(t, r, pkts); got != 1000 {
			t.Errorf("sequential=%v: first blacklist hit at packet %d, want 1000 (the first after the boundary)", sequential, got)
		}
		if got := r.BlacklistEntries(); !reflect.DeepEqual(got, []packet.Addr{attackerA}) {
			t.Errorf("sequential=%v: blacklist before Drain = %v, want only %v", sequential, got, attackerA)
		}
		if _, err := r.Drain(); err != nil {
			t.Fatal(err)
		}
		final[sequential] = r.BlacklistEntries()
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if want := []packet.Addr{attackerA, attackerB}; !reflect.DeepEqual(final[true], want) || !reflect.DeepEqual(final[false], want) {
		t.Errorf("final blacklist: sequential %v, parallel %v, want %v", final[true], final[false], want)
	}
}

// TestOperatorWhitelistWhileFeedersRun: Runner.Whitelist publishes on the
// owning worker's bus from the router's goroutine (Session.Exec) while the
// feeders publish from theirs; both land in the same tagged event list.
// Run under -race -count=10 (make cluster).
func TestOperatorWhitelistWhileFeedersRun(t *testing.T) {
	r := New(oracleAConfig(2, 1, 64))
	defer r.Close()
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	var installed []packet.FlowKey
	n := 0
	for b := range packet.BufferedBatches(mixedStream(), 100) {
		if err := r.Ingest(b); err != nil {
			t.Fatal(err)
		}
		if n++; n%25 == 0 && len(installed) < 40 {
			k := b[0].Tuple.Canonical()
			if err := r.Whitelist(k); err != nil {
				t.Fatal(err)
			}
			installed = append(installed, k)
		}
	}
	rep, err := r.Drain()
	if err != nil {
		t.Fatal(err)
	}
	have := map[packet.FlowKey]bool{}
	for _, k := range r.WhitelistEntries() {
		have[k] = true
	}
	for _, k := range installed {
		if !have[k] {
			t.Errorf("operator whitelist entry %v missing from the final table", k)
		}
	}
	// Every operator install comes back through the uplink and is folded
	// (a second, idempotent install) by Drain at the latest.
	if rep.Steer.FoldedEvents < uint64(len(installed)) {
		t.Errorf("folded %d events, want at least the %d operator installs", rep.Steer.FoldedEvents, len(installed))
	}
}

// TestSwitchlessClusterClosesNoEpochs: with no shared switch there is
// nothing to fold, so buffers are handed over when full (and at interval
// boundaries and Drain), not flushed half empty every SyncPackets packets.
func TestSwitchlessClusterClosesNoEpochs(t *testing.T) {
	pkts := scriptedPackets(8192, func(int) bool { return false })
	r := New(Config{
		Workers:    2,
		Worker:     core.Config{IntervalNs: 1e15, SNIC: noDropSNIC()},
		QueueBatch: 256, SyncPackets: 64,
	})
	defer r.Close()
	rep, err := r.Run(packet.StreamOf(pkts))
	if err != nil {
		t.Fatal(err)
	}
	var batches uint64
	for _, ing := range rep.Ingress {
		batches += ing.Batches
	}
	// Full buffers plus one final partial one per lane.
	if max := uint64(len(pkts)/256 + 2); batches > max || rep.Steer.Folds != 0 {
		t.Errorf("%d handoffs (want <= %d), %d folds (want 0)", batches, max, rep.Steer.Folds)
	}
}

// TestRunnerLifecycleBeforeStart: the -serve control plane answers
// /control/status and /control/snapshot before the ingest loop has called
// Start, and a caller that defers Close may never reach Start at all.
func TestRunnerLifecycleBeforeStart(t *testing.T) {
	for _, sequential := range []bool{true, false} {
		cfg := oracleAConfig(2, 1, 64)
		cfg.Sequential = sequential
		r := New(cfg)
		for i, snap := range r.Snapshots() {
			if snap != nil {
				t.Errorf("lane %d has a snapshot before Start", i)
			}
		}
		if err := r.Close(); err != nil {
			t.Errorf("Close of an idle runner = %v", err)
		}
		if r.State() != core.SessionDone {
			t.Errorf("state after idle Close = %v, want done", r.State())
		}
		if err := r.Start(); err != ErrRunnerState {
			t.Errorf("Start after Close = %v, want ErrRunnerState", err)
		}
		if err := r.Close(); err != nil {
			t.Errorf("second Close = %v", err)
		}
	}
}
