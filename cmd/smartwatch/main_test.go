package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"smartwatch/internal/core"
	"smartwatch/internal/detect"
	"smartwatch/internal/flowcache"
	"smartwatch/internal/obs"
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
		printReport(&b, 3, rep, false)
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

// TestCheckShards: every -workers / -rowbits split that leaves a cluster
// worker's FlowCache no row bit — core.New would read a zero as its
// default table — is an error here, and the splits the determinism sweeps
// run are not.
func TestCheckShards(t *testing.T) {
	cases := []struct {
		name             string
		workers, rowBits int
		want             string // error substring; "" = valid
	}{
		{"default", 1, 14, ""},
		{"cluster split", 4, 14, ""},
		{"default table", 2, 0, ""},
		{"one row bit left", 2, 2, ""},
		{"no row bits left", 4, 2, "leave 0 of 2 row bits"},
		{"workers take the rest", 8, 3, "leave 0 of 3 row bits"},
		{"default table exhausted", 4096, 0, "leave 0 of 12 row bits"},
	}
	for _, tc := range cases {
		cache := flowcache.Config{}
		if tc.rowBits != 0 {
			cache = flowcache.DefaultConfig(tc.rowBits)
		}
		err := checkGeometry(cache, tc.workers)
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
// and the -workers split check still runs behind a layout that passes.
func TestCheckGeometry(t *testing.T) {
	wide := flowcache.DefaultConfig(14)
	wide.Buckets, wide.EvictionBuckets = 60, 56
	widest := flowcache.DefaultConfig(14)
	widest.Buckets, widest.EvictionBuckets = flowcache.MaxBuckets, flowcache.MaxBuckets-4
	cases := []struct {
		name    string
		cache   flowcache.Config
		workers int
		want    string // error substring; "" = valid
	}{
		{"default flag", flowcache.DefaultConfig(14), 1, ""},
		{"core's default table", flowcache.Config{}, 2, ""},
		{"largest table", flowcache.DefaultConfig(28), 1, ""},
		{"widest row", widest, 1, ""},
		{"rowbits 40", flowcache.DefaultConfig(40), 1, "RowBits 40 out of range"},
		{"rowbits 29", flowcache.DefaultConfig(29), 2, "RowBits 29 out of range"},
		{"row wider than the mask", wide, 1, "Buckets 60 out of range"},
		{"valid layout, bad split", flowcache.DefaultConfig(2), 4, "leave 0 of 2 row bits"},
	}
	for _, tc := range cases {
		err := checkGeometry(tc.cache, tc.workers)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// TestOutOfRangeFlagsFail: a numeric flag below its range is an error, not
// a silent run on another value, and an output flag that cannot be
// honoured fails before the drive, not after the report. Each case
// re-executes the test binary as the CLI and must exit 1 with only the
// error on its output.
func TestOutOfRangeFlagsFail(t *testing.T) {
	dir := t.TempDir()
	missing := filepath.Join(dir, "missing")
	for _, tc := range []struct {
		args []string
		want string // output prefix after "smartwatch: "
	}{
		{[]string{"-rowbits", "0"}, "-rowbits must be"}, {[]string{"-rowbits", "-1"}, "-rowbits must be"},
		{[]string{"-interval", "0"}, "-interval must be"}, {[]string{"-interval", "-5"}, "-interval must be"},
		{[]string{"-gen-max", "-1"}, "-gen-max must be"}, {[]string{"-kv-retention", "-1"}, "-kv-retention must be"},
		{[]string{"-emit-p4", filepath.Join(dir, "q.p4")}, "-emit-p4 requires -switch"},
		{[]string{"-ipfix", filepath.Join(missing, "f.ipfix")}, "open " + missing},
		{[]string{"-switch", "-emit-p4", filepath.Join(missing, "q.p4")}, "open " + missing},
		{[]string{"-detectors", "bogus"}, "unknown detector"},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		cmd := exec.CommandContext(ctx, os.Args[0], append([]string{"-gen", "caida2019", "-gen-max", "1000"}, tc.args...)...)
		cmd.Env = append(os.Environ(), runMainEnv+"=1")
		out, err := cmd.CombinedOutput()
		cancel()
		var exit *exec.ExitError
		want := "smartwatch: " + tc.want
		if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.HasPrefix(string(out), want) {
			t.Errorf("%v: exit %v, output %q; want exit 1 and %q", tc.args, err, out, want)
		}
	}
}

// engineKinds are the runner widths (and /control/status lane counts) the
// tests build with buildCluster; one worker is one platform's session.
var engineKinds = []struct {
	name    string
	workers int
}{{"session", 1}, {"workers2", 2}}

// TestDaemonAnswersBeforeStart: main registers the control API and opens
// the listener before daemon.run starts the engine, so /control/status and
// /control/snapshot must answer for an idle engine of either kind, and the
// status must already count the engine's lanes.
func TestDaemonAnswersBeforeStart(t *testing.T) {
	for _, k := range engineKinds {
		e := buildCluster(core.Config{EnableSwitch: true}, k.workers, nil)
		d := newDaemon(e, nil, 512)
		for name, h := range map[string]http.HandlerFunc{"status": d.handleStatus, "snapshot": d.handleSnapshot} {
			rec := httptest.NewRecorder()
			h(rec, httptest.NewRequest(http.MethodGet, "/control/"+name, nil))
			if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"workers"`) {
				t.Errorf("%s: %s before Start: %d %s", k.name, name, rec.Code, rec.Body.String())
			}
			if want := fmt.Sprintf(`"workers": %d`, k.workers); name == "status" && !strings.Contains(rec.Body.String(), want) {
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
				e := buildCluster(core.Config{EnableSwitch: withSwitch}, k.workers, nil)
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
		e := buildCluster(core.Config{IntervalNs: 10e6, EnableSwitch: true, Queries: defaultQueries(), BatchSize: 64}, k.workers, nil)
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

// TestMetricsLiveMidRun: while the drive is still running, on either
// engine, /metrics serves a snapshot with series in it, /control/snapshot
// serves each lane's registry snapshot — at one worker the very object
// /metrics serves — and /control/status's intervals is the most advanced
// lane's packets.intervals. A cluster's registry used to be snapshotted
// only at the merge, so `-serve -workers N` served {} until the drain.
func TestMetricsLiveMidRun(t *testing.T) {
	for _, k := range engineKinds {
		reg := obs.NewRegistry()
		e := buildCluster(core.Config{IntervalNs: 1e6, Metrics: reg}, k.workers, nil)
		if err := e.Start(); err != nil {
			t.Fatal(err)
		}
		src := trace.NewSource(trace.SourceConfig{Workload: trace.CAIDA(2019).Config(), Repeat: -1, MaxPackets: 20_000})
		for b := range packet.BufferedBatches(src.Stream(), 512) {
			if err := e.Ingest(b); err != nil {
				t.Fatalf("%s: ingest: %v", k.name, err)
			}
		}
		d := newDaemon(e, nil, 512)
		get := func(h http.HandlerFunc, path string, v any) {
			rec := httptest.NewRecorder()
			h(rec, httptest.NewRequest(http.MethodGet, path, nil))
			if err := json.Unmarshal(rec.Body.Bytes(), v); err != nil {
				t.Fatalf("%s: %s: %v: %s", k.name, path, err, rec.Body.String())
			}
		}
		var metrics obs.Snapshot
		get(metricsHandler(reg), "/metrics", &metrics)
		if len(metrics.Counters) == 0 || metrics.TsNs == 0 {
			t.Errorf("%s: /metrics before the drain = %+v, want a snapshot with series", k.name, metrics)
		}
		// Feeders may still be closing intervals: read the routes and each
		// worker's own snapshot between two equal Snapshots() so they all
		// describe exactly those snapshots.
		var lanes struct{ Workers []*obs.Snapshot }
		var status struct{ Intervals uint64 }
		var snaps, own []*obs.Snapshot
		for stable := false; !stable; {
			snaps = e.Snapshots()
			get(d.handleSnapshot, "/control/snapshot", &lanes)
			get(d.handleStatus, "/control/status", &status)
			own = own[:0]
			for _, w := range e.Workers() {
				own = append(own, w.LastSnapshot())
			}
			stable = slices.Equal(snaps, e.Snapshots())
		}
		if len(lanes.Workers) != k.workers {
			t.Fatalf("%s: %d lanes, want %d", k.name, len(lanes.Workers), k.workers)
		}
		var maxIntervals uint64
		for i, snap := range snaps {
			if snap == nil || snap != own[i] {
				t.Fatalf("%s: lane %d is %v, not its worker's registry snapshot", k.name, i, snap)
			}
			var want obs.Snapshot
			if b, err := json.Marshal(snap); err != nil || json.Unmarshal(b, &want) != nil {
				t.Fatalf("%s: lane %d does not round-trip: %v", k.name, i, err)
			}
			if !reflect.DeepEqual(lanes.Workers[i], &want) {
				t.Errorf("%s: /control/snapshot lane %d = %+v, want %+v", k.name, i, lanes.Workers[i], want)
			}
			maxIntervals = max(maxIntervals, snap.Counters["packets.intervals"])
		}
		if k.workers == 1 && (snaps[0] != reg.LastSnapshot() || !reflect.DeepEqual(lanes.Workers[0], &metrics)) {
			t.Errorf("%s: lane 0 is not the snapshot /metrics serves", k.name)
		}
		if maxIntervals == 0 || status.Intervals != maxIntervals {
			t.Errorf("%s: status intervals = %d, want the lanes' maximum packets.intervals %d", k.name, status.Intervals, maxIntervals)
		}
		if err := e.Close(); err != nil {
			t.Fatalf("%s: Close: %v", k.name, err)
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
		e := buildCluster(core.Config{IntervalNs: 10e6}, k.workers, []func() detect.Detector{func() detect.Detector { return &bomb{after: 1000} }})
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
