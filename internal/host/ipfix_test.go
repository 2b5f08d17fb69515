package host

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"

	"smartwatch/internal/flowcache"
	"smartwatch/internal/stats"
)

func TestIPFIXRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	exp := NewIPFIXExporter(&buf, 7)
	recs := []HostRecord{
		{Key: hkey(1), Pkts: 100, Bytes: 6400, FirstTs: 1e9, LastTs: 2e9},
		{Key: hkey(2), Pkts: 7, Bytes: 448, FirstTs: 3e9, LastTs: 3e9},
	}
	if err := exp.ExportInterval(5, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ParseIPFIX(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("parsed %d records", len(got))
	}
	byKey := map[string]HostRecord{}
	for _, hr := range got {
		byKey[hr.Key.String()] = hr
	}
	for _, want := range recs {
		hr, ok := byKey[want.Key.String()]
		if !ok {
			t.Fatalf("record %v missing", want.Key)
		}
		if hr.Pkts != want.Pkts || hr.Bytes != want.Bytes ||
			hr.FirstTs != want.FirstTs || hr.LastTs != want.LastTs {
			t.Errorf("round trip mismatch: %+v vs %+v", hr, want)
		}
	}
}

func TestIPFIXTemplateOnlyOnce(t *testing.T) {
	var buf bytes.Buffer
	exp := NewIPFIXExporter(&buf, 1)
	r := []HostRecord{{Key: hkey(3), Pkts: 1}}
	_ = exp.ExportInterval(1, r)
	first := buf.Len()
	_ = exp.ExportInterval(2, r)
	second := buf.Len() - first
	if second >= first {
		t.Errorf("template must only be sent once: msg1=%dB msg2=%dB", first, second)
	}
	// Sequence number advances per record.
	if exp.seq != 2 {
		t.Errorf("sequence = %d", exp.seq)
	}
}

func TestIPFIXExportKV(t *testing.T) {
	fs := NewFlowStore(DefaultCostModel())
	kv := NewKVStore(fs, nil)
	fs.Ingest(flowcache.Record{Key: hkey(1), Pkts: 10, Bytes: 640})
	if err := kv.FlushInterval(1e9); err != nil {
		t.Fatal(err)
	}
	fs.Ingest(flowcache.Record{Key: hkey(2), Pkts: 20, Bytes: 1280})
	if err := kv.FlushInterval(2e9); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := NewIPFIXExporter(&buf, 9).ExportKV(kv); err != nil {
		t.Fatal(err)
	}
	got, err := ParseIPFIX(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// Interval 1 has one record; interval 2 has the two aggregates.
	if len(got) != 3 {
		t.Fatalf("parsed %d records, want 3", len(got))
	}
}

func TestParseIPFIXRejectsGarbage(t *testing.T) {
	bad := make([]byte, 16)
	binary.BigEndian.PutUint16(bad[0:2], 9) // NetFlow v9, not IPFIX
	if _, err := ParseIPFIX(bytes.NewReader(bad)); err == nil {
		t.Error("wrong version accepted")
	}
	short := make([]byte, 16)
	binary.BigEndian.PutUint16(short[0:2], 10)
	binary.BigEndian.PutUint16(short[2:4], 8) // shorter than the header
	if _, err := ParseIPFIX(bytes.NewReader(short)); err == nil {
		t.Error("implausible length accepted")
	}
}

// ParseIPFIX faces collector-side input; it must never panic on garbage.
func TestParseIPFIXNeverPanics(t *testing.T) {
	f := func(seed uint64, size uint16) bool {
		rng := stats.NewRand(seed)
		buf := make([]byte, int(size))
		for i := range buf {
			buf[i] = byte(rng.Uint64())
		}
		_, _ = ParseIPFIX(bytes.NewReader(buf))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
