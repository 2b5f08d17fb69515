package detect

import (
	"strings"
	"testing"

	"smartwatch/internal/flowcache"
	"smartwatch/internal/host"
	"smartwatch/internal/packet"
	"smartwatch/internal/snic"
)

func storeWith(records ...flowcache.Record) *host.FlowStore {
	fs := host.NewFlowStore(host.DefaultCostModel())
	for _, r := range records {
		fs.Ingest(r)
	}
	return fs
}

func okey(i int) packet.FlowKey {
	return packet.FiveTuple{
		SrcIP: packet.Addr(i + 1), DstIP: packet.Addr(i + 5000),
		SrcPort: uint16(40000 + i), DstPort: 80, Proto: packet.ProtoTCP,
	}.Canonical()
}

func TestSlowlorisOffline(t *testing.T) {
	server := packet.MustParseAddr("10.1.0.80")
	attacker := packet.MustParseAddr("203.0.113.99")
	var recs []flowcache.Record
	// 40 stalling connections from the attacker.
	for i := 0; i < 40; i++ {
		k := packet.FiveTuple{SrcIP: attacker, DstIP: server, SrcPort: uint16(10000 + i), DstPort: 80, Proto: packet.ProtoTCP}.Canonical()
		recs = append(recs, flowcache.Record{Key: k, Pkts: 20, Bytes: 1500, FirstTs: 0, LastTs: 10e9})
	}
	// Plenty of healthy short connections elsewhere.
	for i := 0; i < 100; i++ {
		recs = append(recs, flowcache.Record{Key: okey(i), Pkts: 50, Bytes: 60000, FirstTs: 0, LastTs: 100e6})
	}
	fs := storeWith(recs...)
	alerts := SlowlorisOffline(fs, 10e9, 2e9, 40000, 30)
	if len(alerts) != 1 {
		t.Fatalf("alerts = %v", alerts)
	}
	if alerts[0].Victim != server || alerts[0].Attacker != attacker {
		t.Errorf("alert = %+v", alerts[0])
	}
	// Healthy traffic alone must not alert.
	if extra := SlowlorisOffline(storeWith(recs[40:]...), 10e9, 2e9, 40000, 30); len(extra) != 0 {
		t.Errorf("false positives: %v", extra)
	}
}

func TestChainFansOutAndMerges(t *testing.T) {
	a := NewBruteForce(BruteForceConfig{Service: 22, Psi: 1})
	b := NewWorm(1, 0)
	ch := NewChain(a, b)
	if ch.Name() != "chain" || len(ch.detectors) != 2 {
		t.Fatalf("chain malformed")
	}
	// A packet that triggers both: SSH failure with a worm signature.
	p := packet.Packet{
		Ts: 1,
		Tuple: packet.FiveTuple{
			SrcIP: packet.MustParseAddr("203.0.113.1"), DstIP: packet.MustParseAddr("10.0.0.1"),
			SrcPort: 999, DstPort: 22, Proto: packet.ProtoTCP,
		},
		AuthOutcome: packet.AuthFailure,
		App:         packet.AppInfo{PayloadSig: 77},
	}
	rec := &flowcache.Record{}
	r := ch.OnPacket(&p, rec, snic.Ctx{})
	if !r.ToHost {
		t.Error("merged reaction lost ToHost")
	}
	if r.ExtraCycles <= 0 {
		t.Error("merged reaction lost cycles")
	}
	ch.Tick(100)
	alerts := ch.Drain()
	var dets []string
	for _, al := range alerts {
		dets = append(dets, al.Detector)
		if al.String() == "" || !strings.Contains(al.String(), al.Detector) {
			t.Errorf("alert String() malformed: %q", al.String())
		}
	}
	if len(alerts) != 2 {
		t.Fatalf("alerts from chain = %v", dets)
	}
}

func TestOutcomeAndVerdictStrings(t *testing.T) {
	if flowcache.PHit.String() == "" || flowcache.HostPunt.String() == "" {
		t.Error("outcome strings empty")
	}
}
