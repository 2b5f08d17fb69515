package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"smartwatch/internal/cluster"
	"smartwatch/internal/core"
	"smartwatch/internal/detect"
	"smartwatch/internal/flowcache"
	"smartwatch/internal/stats"
)

// TestReportAlertSummaryOrder: the per-detector alert summary is printed in
// name order, so two runs over the same capture print the same bytes. It
// used to range over the tally map: with two detectors, half of all
// renderings came out swapped.
func TestReportAlertSummaryOrder(t *testing.T) {
	rep := core.Report{Alerts: []detect.Alert{
		{Detector: "ssh-bruteforce"}, {Detector: "portscan"}, {Detector: "ssh-bruteforce"},
	}}
	rep.SNIC.Latency = stats.NewQuantiles(0)
	render := func() string {
		var b bytes.Buffer
		printReportCore(&b, "lru-lpc", 3, rep, false)
		return b.String()
	}
	first := render()
	if !strings.HasSuffix(first, "alerts: 3\n  portscan             1\n  ssh-bruteforce       2\n") {
		t.Errorf("alert summary not in name order:\n%s", first)
	}
	for i := 0; i < 16; i++ {
		if again := render(); again != first {
			t.Fatalf("rendering %d differs from the first:\n%s\nfirst:\n%s", i+2, again, first)
		}
	}
}

// TestCheckShards: every -shards / -workers / -rowbits geometry that
// flowcache.NewShardedOffset would panic on is an error here, and the
// geometries the determinism sweeps run are not.
func TestCheckShards(t *testing.T) {
	cases := []struct {
		name                     string
		shards, workers, rowBits int
		want                     string // error substring; "" = valid
	}{
		{"default", 1, 1, 14, ""},
		{"four shards", 4, 1, 14, ""},
		{"cluster split", 2, 4, 14, ""},
		{"default table", 8, 2, 0, ""},
		{"one row bit left", 4, 2, 4, ""},
		{"zero", 0, 1, 14, "power of two"},
		{"negative", -4, 1, 14, "power of two"},
		{"three", 3, 1, 14, "power of two"},
		{"no row bits left", 4, 1, 2, "leave 0 of 2 row bits"},
		{"workers take the rest", 2, 4, 3, "leave 0 of 3 row bits"},
		{"default table exhausted", 4096, 1, 0, "leave 0 of 12 row bits"},
	}
	for _, tc := range cases {
		err := checkShards(tc.shards, tc.workers, tc.rowBits)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// TestCheckGeometry: a FlowCache layout flowcache.New would panic on —
// `-rowbits 40` did, with a goroutine dump — is an error naming the field,
// and the shard check still runs behind a layout that passes.
func TestCheckGeometry(t *testing.T) {
	wide := flowcache.DefaultConfig(14)
	wide.Buckets, wide.EvictionBuckets = 60, 56
	widest := flowcache.DefaultConfig(14)
	widest.Buckets, widest.EvictionBuckets = flowcache.MaxBuckets, flowcache.MaxBuckets-4
	cases := []struct {
		name            string
		cache           flowcache.Config
		shards, workers int
		want            string // error substring; "" = valid
	}{
		{"default flag", flowcache.DefaultConfig(14), 1, 1, ""},
		{"core's default table", flowcache.Config{}, 4, 2, ""},
		{"largest table", flowcache.DefaultConfig(28), 1, 1, ""},
		{"widest row", widest, 1, 1, ""},
		{"rowbits 40", flowcache.DefaultConfig(40), 1, 1, "RowBits 40 out of range"},
		{"rowbits 29", flowcache.DefaultConfig(29), 4, 2, "RowBits 29 out of range"},
		{"row wider than the mask", wide, 1, 1, "Buckets 60 out of range"},
		{"valid layout, bad split", flowcache.DefaultConfig(2), 4, 1, "leave 0 of 2 row bits"},
	}
	for _, tc := range cases {
		err := checkGeometry(tc.cache, tc.shards, tc.workers)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// TestClusterDaemonAnswersBeforeStart: main registers the control API and
// opens the listener before daemon.run starts the cluster runner, so
// /control/status and /control/snapshot must answer for an idle runner.
func TestClusterDaemonAnswersBeforeStart(t *testing.T) {
	cl := buildCluster(core.Config{EnableSwitch: true}, 2, cluster.SteerHash, "ssh")
	defer cl.Close()
	d := newClusterDaemon(cl, nil, 512)
	for name, h := range map[string]http.HandlerFunc{"status": d.handleStatus, "snapshot": d.handleSnapshot} {
		rec := httptest.NewRecorder()
		h(rec, httptest.NewRequest(http.MethodGet, "/control/"+name, nil))
		if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"workers"`) {
			t.Errorf("%s before Start: %d %s", name, rec.Code, rec.Body.String())
		}
	}
}
