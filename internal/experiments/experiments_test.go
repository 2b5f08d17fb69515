package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"smartwatch/internal/core"
	"smartwatch/internal/detect"
	"smartwatch/internal/trace"
)

// testScale keeps the per-experiment runtime in unit-test territory; the
// full-scale outputs are regenerated by cmd/experiments (EXPERIMENTS.md).
const testScale = 0.2

// cell finds the column index by name.
func col(t *testing.T, tb *Table, name string) int {
	t.Helper()
	for i, c := range tb.Columns {
		if c == name {
			return i
		}
	}
	t.Fatalf("%s: no column %q in %v", tb.ID, name, tb.Columns)
	return -1
}

func cellF(t *testing.T, row []string, idx int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(row[idx], 64)
	if err != nil {
		t.Fatalf("cell %q: %v", row[idx], err)
	}
	return v
}

// rows filters table rows by a predicate on one column.
func rows(tb *Table, idx int, val string) [][]string {
	var out [][]string
	for _, r := range tb.Rows {
		if r[idx] == val {
			out = append(out, r)
		}
	}
	return out
}

func TestTableRendering(t *testing.T) {
	t.Parallel()
	tb := &Table{ID: "x", Title: "demo", Columns: []string{"a", "b"}}
	tb.AddRow("1", "2")
	tb.Notes = append(tb.Notes, "n")
	var buf bytes.Buffer
	if _, err := tb.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"== x: demo ==", "a", "1", "note: n"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFig2Shape(t *testing.T) {
	t.Parallel()
	tb := Fig2SwitchState(0.1)
	// For every (attack, year): steered volume must be non-increasing in k
	// and switch state non-decreasing.
	ai, yi, ki := col(t, tb, "attack"), col(t, tb, "year"), col(t, tb, "whitelist_k")
	gi, si := col(t, tb, "steered_gbps"), col(t, tb, "switch_state_mb")
	type key struct{ a, y string }
	last := map[key][3]float64{}
	for _, r := range tb.Rows {
		k := key{r[ai], r[yi]}
		cur := [3]float64{cellF(t, r, ki), cellF(t, r, gi), cellF(t, r, si)}
		if prev, ok := last[k]; ok {
			if cur[1] > prev[1]+1e-9 {
				t.Errorf("%v: steered volume rose with k: %v -> %v", k, prev, cur)
			}
			if cur[2] < prev[2]-1e-9 {
				t.Errorf("%v: switch state shrank with k", k)
			}
		}
		last[k] = cur
	}
}

func TestFig3Shape(t *testing.T) {
	t.Parallel()
	tb := Fig3Scaling(0.1)
	di, ri, ci, ni := col(t, tb, "deployment"), col(t, tb, "rate_mpps"), col(t, tb, "cpu_cores"), col(t, tb, "snics")
	// At the top rate, SmartWatch needs far fewer resources than the
	// switchless variants (paper: >= 14x fewer).
	var swCores, noSwitchCores, hostCores, swNICs, noSwitchNICs float64
	for _, r := range tb.Rows {
		if r[ri] != "2.32e+03" && r[ri] != "2320" {
			continue
		}
		switch r[di] {
		case "smartwatch":
			swCores, swNICs = cellF(t, r, ci), cellF(t, r, ni)
		case "smartwatch-no-switch":
			noSwitchCores, noSwitchNICs = cellF(t, r, ci), cellF(t, r, ni)
		case "host":
			hostCores = cellF(t, r, ci)
		}
	}
	if swCores <= 0 || noSwitchCores <= 0 {
		t.Fatalf("missing top-rate rows")
	}
	if noSwitchCores < 5*swCores {
		t.Errorf("no-switch cores %v should dwarf smartwatch cores %v", noSwitchCores, swCores)
	}
	if noSwitchNICs < 5*swNICs {
		t.Errorf("no-switch sNICs %v should dwarf smartwatch sNICs %v", noSwitchNICs, swNICs)
	}
	if hostCores < noSwitchCores {
		t.Errorf("host-only cores %v must top everything (%v)", hostCores, noSwitchCores)
	}
}

func TestFig4Shape(t *testing.T) {
	t.Parallel()
	tb := Fig4LatencyDist(testScale)
	hi, mi := col(t, tb, "hit_ns"), col(t, tb, "miss_ns")
	for _, r := range tb.Rows {
		if cellF(t, r, mi) < cellF(t, r, hi) {
			t.Errorf("miss latency below hit latency at p%v", r[0])
		}
	}
}

func TestFig5Shape(t *testing.T) {
	t.Parallel()
	tb := Fig5Policies(testScale)
	pi, hr := col(t, tb, "policy"), col(t, tb, "hit_rate")
	p50 := col(t, tb, "p50_ns")
	rates := map[string]float64{}
	lat := map[string]float64{}
	for _, r := range tb.Rows {
		rates[r[pi]] = cellF(t, r, hr)
		lat[r[pi]] = cellF(t, r, p50)
	}
	// Paper: the hybrid wins on hit rate and median latency.
	for _, other := range []string{"lpc-12-0", "fifo-4-8"} {
		if rates["lru-lpc-4-8"] < rates[other] {
			t.Errorf("LRU-LPC hit rate %v below %s %v", rates["lru-lpc-4-8"], other, rates[other])
		}
	}
	if lat["lru-lpc-4-8"] > lat["lru-12-0"]+1 {
		t.Errorf("LRU-LPC median latency %v should not exceed pure LRU %v", lat["lru-lpc-4-8"], lat["lru-12-0"])
	}
}

func TestFig6Shape(t *testing.T) {
	t.Parallel()
	tb := Fig6Throughput(testScale)
	si, xi, ci := col(t, tb, "series"), col(t, tb, "x"), col(t, tb, "capacity_mpps")
	best := map[string]float64{}
	atX := map[[2]string]float64{}
	for _, r := range tb.Rows {
		v := cellF(t, r, ci)
		if v > best[r[si]] {
			best[r[si]] = v
		}
		atX[[2]string{r[si], r[xi]}] = v
	}
	// Lite (2,0) must reach near line rate somewhere.
	if best["lite-2-0"] < 39 {
		t.Errorf("lite-2-0 peak capacity %v, want ~43", best["lite-2-0"])
	}
	// At every matched memory size, General must not beat Lite; under
	// eviction pressure (the smallest table) it must strictly trail.
	smallestChecked := false
	for key, lite := range atX {
		if key[0] != "lite-2-0" {
			continue
		}
		gen, ok := atX[[2]string{"general-4-8", key[1]}]
		if !ok {
			continue
		}
		if gen > lite+0.6 {
			t.Errorf("general-4-8 (%v) beats lite-2-0 (%v) at %s", gen, lite, key[1])
		}
		if key[1] == "0.75MB" || key[1] == "0.786MB" { // smallest sweep point
			smallestChecked = true
			if gen >= lite {
				t.Errorf("under pressure general-4-8 (%v) must strictly trail lite (%v)", gen, lite)
			}
		}
	}
	if !smallestChecked {
		// Fall back: at least one size must show a strict gap.
		strict := false
		for key, lite := range atX {
			if key[0] == "lite-2-0" {
				if gen, ok := atX[[2]string{"general-4-8", key[1]}]; ok && gen < lite-0.5 {
					strict = true
				}
			}
		}
		if !strict {
			t.Error("no memory size shows General trailing Lite")
		}
	}
}

func TestFig7Shape(t *testing.T) {
	t.Parallel()
	tb := Fig7HostOverhead(testScale)
	mi, mbi, ci := col(t, tb, "mode"), col(t, tb, "cache_mb"), col(t, tb, "cpu_scaled")
	// At matched memory, Lite modes must cost the host more CPU.
	gen := map[string]float64{}
	for _, r := range rows(tb, mi, "general-4-8") {
		gen[r[mbi]] = cellF(t, r, ci)
	}
	worse := 0
	for _, r := range rows(tb, mi, "lite-2-0") {
		if g, ok := gen[r[mbi]]; ok && cellF(t, r, ci) > g {
			worse++
		}
	}
	if worse < 2 {
		t.Errorf("lite-2-0 should cost more host CPU than general at most sizes (only %d)", worse)
	}
	// Ring-drop accounting: adequately sized rings lose nothing, the
	// undersized-ring variant must show its overflow instead of silently
	// under-reporting evictions.
	di := col(t, tb, "ring_drops")
	for _, r := range rows(tb, mi, "general-4-8") {
		if cellF(t, r, di) != 0 {
			t.Errorf("general-4-8 at %s MB reports ring drops with 1<<20-entry rings", r[mbi])
		}
	}
	dropped := 0
	for _, r := range rows(tb, mi, "lite-2-0-ring64") {
		if cellF(t, r, di) > 0 {
			dropped++
		}
	}
	if dropped == 0 {
		t.Error("lite-2-0-ring64 should overflow its 64-entry rings at some cache size")
	}
}

func TestFig8aShape(t *testing.T) {
	t.Parallel()
	tb := Fig8aSSHLatency(testScale)
	var sw, zeek, reduction float64
	for _, r := range tb.Rows {
		switch r[0] {
		case "smartwatch-auth-success":
			sw = cellF(t, r, 1)
		case "baseline-zeek":
			zeek = cellF(t, r, 1)
		case "latency-reduction-%":
			reduction = cellF(t, r, 1)
		}
	}
	if sw >= zeek {
		t.Errorf("SmartWatch latency %v must beat Zeek baseline %v", sw, zeek)
	}
	// Paper: 72.32% (Fig 8a reports 77% for post-auth packets).
	if reduction < 50 || reduction > 90 {
		t.Errorf("latency reduction %v%% outside the paper's band", reduction)
	}
}

func TestFig8bShape(t *testing.T) {
	t.Parallel()
	tb := Fig8bForgedRST(testScale)
	oi, ei := col(t, tb, "pct_snic_only"), col(t, tb, "avg_rst_extra_ns")
	var lastExtra float64
	for i, r := range tb.Rows {
		if v := cellF(t, r, oi); v < 99 {
			t.Errorf("row %d: only %v%% of packets stay sNIC-only, want >99%%", i, v)
		}
		extra := cellF(t, r, ei)
		if i > 0 && extra < lastExtra-1 {
			t.Errorf("RST extra latency should grow with T: %v after %v", extra, lastExtra)
		}
		lastExtra = extra
	}
}

func TestFig8cShape(t *testing.T) {
	t.Parallel()
	tb := Fig8cPortScan(testScale)
	di, si, pi := col(t, tb, "scan_delay_ms"), col(t, tb, "smartwatch"), col(t, tb, "p4switch")
	for _, r := range tb.Rows {
		sw, p4 := cellF(t, r, si), cellF(t, r, pi)
		if sw < 0.9 {
			t.Errorf("SmartWatch detection %v at delay %s, want ~1.0", sw, r[di])
		}
		if delay := cellF(t, r, di); delay >= 1000 && p4 > 0.2 {
			t.Errorf("P4-only detection %v at slow delay %s, want collapse", p4, r[di])
		}
	}
}

func TestFig9aShape(t *testing.T) {
	t.Parallel()
	tb := Fig9aCovertROC(testScale)
	pi, ai := col(t, tb, "platform"), col(t, tb, "auc")
	auc := map[string]float64{}
	for _, r := range tb.Rows {
		auc[r[pi]] = cellF(t, r, ai)
	}
	if auc["smartwatch-flowlens"] < 0.9 {
		t.Errorf("SmartWatch AUC %v, want >= 0.9", auc["smartwatch-flowlens"])
	}
	if auc["flowlens-lowmem"] > auc["smartwatch-flowlens"]-0.2 {
		t.Errorf("low-memory FlowLens AUC %v should collapse below SmartWatch %v",
			auc["flowlens-lowmem"], auc["smartwatch-flowlens"])
	}
	if auc["netwarden-lowmem"] > auc["netwarden-highmem"]-0.2 {
		t.Errorf("low-memory NetWarden AUC %v should trail high-memory %v",
			auc["netwarden-lowmem"], auc["netwarden-highmem"])
	}
}

func TestFig9bShape(t *testing.T) {
	t.Parallel()
	tb := Fig9bFingerprint(testScale)
	pi, si, ai := col(t, tb, "platform"), col(t, tb, "sram_pct"), col(t, tb, "accuracy")
	acc := func(platform, sram string) float64 {
		for _, r := range tb.Rows {
			if r[pi] == platform && r[si] == sram {
				return cellF(t, r, ai)
			}
		}
		t.Fatalf("no row %s@%s", platform, sram)
		return 0
	}
	// Paper: SmartWatch holds accuracy at 14% SRAM where standalone needs 30%.
	if acc("smartwatch-flowlens", "14") < 0.85 {
		t.Errorf("SmartWatch@14%% = %v, want >= 0.85", acc("smartwatch-flowlens", "14"))
	}
	if acc("flowlens", "14") >= acc("flowlens", "30") {
		t.Errorf("standalone accuracy must improve with SRAM")
	}
	if acc("smartwatch-flowlens", "2") > 0.5 {
		t.Errorf("SmartWatch below pre-check floor should collapse, got %v", acc("smartwatch-flowlens", "2"))
	}
}

func TestFig10Shape(t *testing.T) {
	t.Parallel()
	tb := Fig10Volumetric(0.05)
	mi, ii, pi, ei := col(t, tb, "metric"), col(t, tb, "interval_pkts"), col(t, tb, "platform"), col(t, tb, "mre")
	_ = ii
	for _, r := range tb.Rows {
		if r[mi] == "heavy-hitter" && r[pi] == "sw-lite" {
			if v := cellF(t, r, ei); v > 0.001 {
				t.Errorf("SmartWatch-Lite HH error %v, want ~0 (lossless)", v)
			}
		}
		if r[mi] == "heavy-change" && r[pi] == "sw-lite" {
			if v := cellF(t, r, ei); v > 0.001 {
				t.Errorf("SmartWatch-Lite HC error %v, want ~0", v)
			}
		}
	}
}

func TestFig11aShape(t *testing.T) {
	t.Parallel()
	tb := Fig11aMicroburst(0.5)
	ti, ci := col(t, tb, "threshold_us"), col(t, tb, "flows_captured_pct")
	// Low thresholds conflate close burst pairs: capture < 100; the top
	// thresholds reach 100.
	for _, r := range tb.Rows {
		thr, capd := cellF(t, r, ti), cellF(t, r, ci)
		if thr <= 500 && capd > 99 {
			t.Errorf("threshold %v: capture %v, want <100 (conflation)", thr, capd)
		}
		if thr >= 1700 && capd < 99 {
			t.Errorf("threshold %v: capture %v, want 100", thr, capd)
		}
	}
}

func TestFig11bShape(t *testing.T) {
	t.Parallel()
	tb := Fig11bThroughput(0.3)
	pi, mi := col(t, tb, "platform"), col(t, tb, "mpps")
	best := map[string]float64{}
	for _, r := range tb.Rows {
		if v := cellF(t, r, mi); v > best[r[pi]] {
			best[r[pi]] = v
		}
	}
	if best["nitrosketch-host"] <= best["smartwatch-lite"] {
		t.Errorf("NitroSketch %v must exceed SmartWatch-Lite %v (sampling)", best["nitrosketch-host"], best["smartwatch-lite"])
	}
	if best["countmin"] >= best["smartwatch-lite"] {
		t.Errorf("Count-Min %v must trail SmartWatch-Lite %v", best["countmin"], best["smartwatch-lite"])
	}
	if best["elasticsketch-host"] >= best["smartwatch-lite"] {
		t.Errorf("host Elastic %v must trail SmartWatch-Lite %v", best["elasticsketch-host"], best["smartwatch-lite"])
	}
}

func TestTable2Shape(t *testing.T) {
	t.Parallel()
	tb := Table2Resources(0.1)
	ci, hi := col(t, tb, "snic_cycles_pct"), col(t, tb, "host_processed_pct")
	if v := cellF(t, tb.Rows[0], ci); v < 70 {
		t.Errorf("FlowCache baseline consumes %v%% of cycles, want the lion's share", v)
	}
	totalHost := 0.0
	for _, r := range tb.Rows[1:] {
		if v := cellF(t, r, ci); v > 10 {
			t.Errorf("detector %s consumes %v%% cycles, want small", r[0], v)
		}
		totalHost += cellF(t, r, hi)
	}
	if totalHost > 16 {
		t.Errorf("total host-processed %v%%, paper bound <16%%", totalHost)
	}
}

// TestMeteredForwardsHooks: Table 2 wraps every detector in metered, and
// a wrapped ForgedRST still takes the platform's hooks, so the pin of each
// RST it releases as genuine is released with it.
func TestMeteredForwardsHooks(t *testing.T) {
	t.Parallel()
	rst := detect.NewForgedRST(detect.ForgedRSTConfig{TNs: 1e9})
	inj := trace.ForgedRST(trace.ForgedRSTConfig{Seed: 4, Sessions: 20, ForgedFraction: 0})
	d := drive{
		cfg:    core.Config{Cache: detectCache(12), TickNs: 50e6, Detectors: []detect.Detector{&metered{Detector: rst}}},
		tailNs: 10e9,
	}
	pl, _ := d.run(inj.Stream())
	if rst.Released != 20 {
		t.Fatalf("released %d RSTs, want the 20 genuine ones", rst.Released)
	}
	if _, pinned := pl.Cache().OccupancyStats(); pinned != 0 {
		t.Errorf("%d records still pinned after every held RST was released", pinned)
	}
}

func TestTable3Shape(t *testing.T) {
	t.Parallel()
	tb := Table3NICs(testScale)
	ni, mi := col(t, tb, "snic"), col(t, tb, "predicted_mpps")
	vals := map[string]float64{}
	for _, r := range tb.Rows {
		vals[r[ni]] = cellF(t, r, mi)
	}
	if len(vals) != 3 {
		t.Fatalf("rows = %v", vals)
	}
	for name, v := range vals {
		if v < 36 || v > 46 {
			t.Errorf("%s predicted %v Mpps, outside Table 3's band", name, v)
		}
	}
	if vals["netronome-agilio-lx"] < vals["bluefield-mbf1l516a"]-1 {
		t.Errorf("Netronome should lead BlueField")
	}
}

func TestTable4Shape(t *testing.T) {
	t.Parallel()
	tb := Table4Detection(testScale)
	si, wi := col(t, tb, "sonata"), col(t, tb, "smartwatch")
	var sonataSum, swSum float64
	paperRows := 0
	for _, r := range tb.Rows {
		so, sw := cellF(t, r, si), cellF(t, r, wi)
		if r[0] == "kerberos-shared-kdc" {
			// The known-defect control: BruteForce's blacklist verdict on a
			// KDC reply blacklists the shared KDC. Once this fails, the
			// defect is fixed: give the kerberos row its shared KDC back
			// and drop the control row.
			if sw >= 0.5 {
				t.Errorf("kerberos-shared-kdc: SmartWatch %v, want < 0.5 while the blacklist defect stands", sw)
			}
			continue
		}
		paperRows++
		if sw < so-1e-9 {
			t.Errorf("%s: SmartWatch %v below Sonata %v", r[0], sw, so)
		}
		sonataSum += so
		swSum += sw
	}
	if paperRows != 10 {
		t.Errorf("%d paper rows, want 10", paperRows)
	}
	n := float64(paperRows)
	if swSum/n < 0.6 {
		t.Errorf("mean SmartWatch rate %v, want >= 0.6", swSum/n)
	}
	if ratio := swSum / sonataSum; ratio < 1.4 {
		t.Errorf("SmartWatch/Sonata ratio %v, paper ~1.8-2.4", ratio)
	}
}

// TestLowSlowShape holds the lowslow table to EXPERIMENTS.md's claims at
// full scale: below it conn-exhaust sends fewer connections per /24 than
// the detector needs before it condemns the block, so recall falls, and
// the suite's packet count (its cost) does not shrink with scale anyway.
func TestLowSlowShape(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("drives the full-scale lowslow table")
	}
	tb := LowSlowSuite(1)
	si, mi, vi := col(t, tb, "scenario"), col(t, tb, "metric"), col(t, tb, "value")
	val := func(scenario, metric string) float64 {
		t.Helper()
		for _, r := range tb.Rows {
			if r[si] == scenario && r[mi] == metric {
				return cellF(t, r, vi)
			}
		}
		t.Fatalf("no row %s/%s", scenario, metric)
		return 0
	}
	for _, sc := range []string{"slow-read", "slow-post", "conn-exhaust", "slowloris-online"} {
		for _, m := range []string{"precision", "recall"} {
			if v := val(sc, m); v != 1 {
				t.Errorf("%s %s = %v, want 1.00", sc, m, v)
			}
		}
	}
	if v := val("pin-starvation", "punts-per-kpkt-seed"); v <= 0 {
		t.Errorf("seed punts %v/kpkt: the starvation run starved nothing", v)
	}
	if v := val("pin-starvation", "punts-per-kpkt-hardened"); v != 0 {
		t.Errorf("hardened punts %v/kpkt, want 0.00", v)
	}
	if seed, hard := val("pin-starvation", "detect-ms-seed"), val("pin-starvation", "detect-ms-hardened"); seed != hard {
		t.Errorf("detect-ms seed %v, hardened %v: the valve moved detection", seed, hard)
	}
	if v := val("mode-churn", "live-pins-at-end"); v <= 0 {
		t.Errorf("live-pins-at-end = %v: retention scores nothing", v)
	}
	if v := val("mode-churn", "retained-pinned"); v != 1 {
		t.Errorf("retained-pinned = %v, want 1.00", v)
	}
	if v := val("mode-churn", "pinned-lost"); v != 0 {
		t.Errorf("pinned-lost = %v, want 0", v)
	}
}

func TestAblationsShape(t *testing.T) {
	t.Parallel()
	tb := Ablations(testScale)
	vals := map[[2]string][2]float64{}
	for _, r := range tb.Rows {
		vals[[2]string{r[0], r[1]}] = [2]float64{cellF(t, r, 2), cellF(t, r, 3)}
	}
	if v := vals[[2]string{"cuckoo-hashing", "tail_ratio"}]; v[1] < 1.5 {
		t.Errorf("cuckoo tail ratio %v, want >= 1.5 (paper 2.43)", v[1])
	}
	if v := vals[[2]string{"turboflow-single-slot", "exports_per_elephant"}]; v[1] < 2*v[0]+1 {
		t.Errorf("turboflow exports/elephant %v should dwarf flowcache's %v", v[1], v[0])
	}
	if v := vals[[2]string{"lazy-vs-eager-cleanup", "rows_cleaned"}]; v[0] == 0 || v[1] == 0 {
		t.Errorf("cleanup counts = %v", v)
	}
}
