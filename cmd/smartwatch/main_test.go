package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"smartwatch/internal/cluster"
	"smartwatch/internal/core"
	"smartwatch/internal/detect"
	"smartwatch/internal/flowcache"
	"smartwatch/internal/packet"
	"smartwatch/internal/snic"
	"smartwatch/internal/stats"
	"smartwatch/internal/trace"
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
		printReport(&b, "lru-lpc", 3, rep, false)
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

// engineKinds builds each engine the CLI drives: a session over one
// platform, and a two-worker cluster runner. dets (nil for none) makes one
// fresh detector set per platform.
var engineKinds = []struct {
	name  string
	lanes int // the worker count /control/status reports
	new   func(cfg core.Config, dets func() []detect.Detector) engine
}{
	{"session", 1, func(cfg core.Config, dets func() []detect.Detector) engine {
		if dets != nil {
			cfg.Detectors = dets()
		}
		return core.New(cfg).NewSession()
	}},
	{"workers2", 2, func(cfg core.Config, dets func() []detect.Detector) engine {
		return cluster.New(cluster.Config{Workers: 2, Worker: cfg, Detectors: dets})
	}},
}

// TestDaemonAnswersBeforeStart: main registers the control API and opens
// the listener before daemon.run starts the engine, so /control/status and
// /control/snapshot must answer for an idle engine of either kind, and the
// status must already count the engine's lanes.
func TestDaemonAnswersBeforeStart(t *testing.T) {
	for _, k := range engineKinds {
		e := k.new(core.Config{EnableSwitch: true}, nil)
		d := newDaemon(e, nil, 512)
		for name, h := range map[string]http.HandlerFunc{"status": d.handleStatus, "snapshot": d.handleSnapshot} {
			rec := httptest.NewRecorder()
			h(rec, httptest.NewRequest(http.MethodGet, "/control/"+name, nil))
			if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"workers"`) {
				t.Errorf("%s: %s before Start: %d %s", k.name, name, rec.Code, rec.Body.String())
			}
			if want := fmt.Sprintf(`"workers": %d`, k.lanes); name == "status" && !strings.Contains(rec.Body.String(), want) {
				t.Errorf("%s: status before Start %s, want %s", k.name, rec.Body.String(), want)
			}
		}
		if err := e.Close(); err != nil {
			t.Errorf("%s: Close of an idle engine: %v", k.name, err)
		}
	}
}

// TestControlBlacklistNeedsSwitch: an operator blacklist is refused with
// 409 and installs nothing when there is no switch tier, on either engine,
// and is installed and dumped when there is one. The single platform used
// to answer 200 "blacklisted" and then dump an empty table.
func TestControlBlacklistNeedsSwitch(t *testing.T) {
	for _, k := range engineKinds {
		for _, withSwitch := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/switch=%v", k.name, withSwitch), func(t *testing.T) {
				e := k.new(core.Config{EnableSwitch: withSwitch}, nil)
				if err := e.Start(); err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				d := newDaemon(e, nil, 512)
				post := httptest.NewRecorder()
				d.handleBlacklist(post, httptest.NewRequest(http.MethodPost, "/control/blacklist?addr=10.3.3.3", nil))
				get := httptest.NewRecorder()
				d.handleBlacklist(get, httptest.NewRequest(http.MethodGet, "/control/blacklist", nil))
				var dump struct {
					Count   int
					Entries []string
				}
				if err := json.Unmarshal(get.Body.Bytes(), &dump); err != nil {
					t.Fatalf("GET: %v: %s", err, get.Body.String())
				}
				wantCode, wantEntries := http.StatusConflict, []string{}
				if withSwitch {
					wantCode, wantEntries = http.StatusOK, []string{"10.3.3.3"}
				}
				if post.Code != wantCode {
					t.Errorf("POST: %d %s, want %d", post.Code, post.Body.String(), wantCode)
				}
				if !withSwitch && !strings.Contains(post.Body.String(), core.ErrNoSwitch.Error()) {
					t.Errorf("POST refusal %s does not carry %q", post.Body.String(), core.ErrNoSwitch)
				}
				if dump.Count != len(wantEntries) || fmt.Sprint(dump.Entries) != fmt.Sprint(wantEntries) {
					t.Errorf("GET after POST: %+v, want entries %v", dump, wantEntries)
				}
			})
		}
	}
}

// TestRunDrainsBudgetedSource: the one drive, batch and -serve alike,
// replays a generator source to its packet budget on either engine and
// leaves the engine drained.
func TestRunDrainsBudgetedSource(t *testing.T) {
	const budget = 20_000
	for _, k := range engineKinds {
		e := k.new(core.Config{IntervalNs: 10e6, EnableSwitch: true, Queries: defaultQueries(), BatchSize: 64}, nil)
		src := trace.NewSource(trace.SourceConfig{Workload: trace.CAIDA(2019).Config(), Repeat: -1, MaxPackets: budget})
		rep, err := newDaemon(e, src, 512).run()
		if err != nil {
			t.Fatalf("%s: run: %v", k.name, err)
		}
		if rep.Counts.Total != budget {
			t.Errorf("%s: Counts.Total = %d, want the %d-packet budget", k.name, rep.Counts.Total, budget)
		}
		if got := e.State(); got != core.SessionDone {
			t.Errorf("%s: state after run = %v, want done", k.name, got)
		}
	}
}

// bomb is a detector that panics on its after-th packet.
type bomb struct{ after, seen int }

func (d *bomb) Name() string { return "bomb" }
func (d *bomb) OnPacket(*packet.Packet, *flowcache.Record, snic.Ctx) detect.Reaction {
	if d.seen++; d.seen == d.after {
		panic("bomb: boom")
	}
	return detect.Reaction{}
}
func (d *bomb) Tick(int64)            {}
func (d *bomb) Drain() []detect.Alert { return nil }

// TestRunReportsDriveFailure: a detector panic ends the drive with an
// error wrapping core.ErrDriveFailed — which main prints and exits 1 on —
// instead of a panic, on either engine — and leaves both engines done, so
// a poller waiting for SessionDone ends on a failed run too.
func TestRunReportsDriveFailure(t *testing.T) {
	for _, k := range engineKinds {
		e := k.new(core.Config{IntervalNs: 10e6}, func() []detect.Detector { return []detect.Detector{&bomb{after: 1000}} })
		src := trace.NewSource(trace.SourceConfig{Workload: trace.CAIDA(2019).Config(), Repeat: -1, MaxPackets: 20_000})
		_, err := newDaemon(e, src, 512).run()
		if !errors.Is(err, core.ErrDriveFailed) || !strings.Contains(err.Error(), "boom") {
			t.Errorf("%s: run = %v, want ErrDriveFailed carrying the panic", k.name, err)
		}
		if got := e.State(); got != core.SessionDone {
			t.Errorf("%s: state after a failed run = %v, want done", k.name, got)
		}
	}
}
