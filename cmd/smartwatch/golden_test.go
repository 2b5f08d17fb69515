package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"smartwatch/internal/packet"
	"smartwatch/internal/pcap"
	"smartwatch/internal/trace"
)

var update = flag.Bool("update", false, "rewrite cmd/smartwatch/testdata/*.golden from the current binary")

// runMainEnv makes the test binary run the CLI's main instead of the
// tests, so a golden run goes through exactly the code the smartwatch
// binary runs: flag parsing, the drive, the printer and the exports.
const runMainEnv = "SMARTWATCH_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// writeFixture writes the golden runs' capture: 100 ms of a thinned
// caida2018 background (~40 k packets) merged with an SSH brute force
// whose attempts are squeezed into the same window, so the switch's
// ssh-conns query and the ssh detector both fire.
func writeFixture(t *testing.T, path string) {
	t.Helper()
	cfg := trace.CAIDA(2018).Config()
	cfg.Duration, cfg.Flows, cfg.PacketRate = 100e6, 5000, 0.12e6
	bg := trace.NewWorkload(cfg).Stream()
	atk := trace.BruteForce(trace.BruteForceConfig{Seed: 1, AttemptGap: 2e6, LegitClients: 2}).Stream()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := pcap.NewWriter(f, pcap.WriterConfig{Encode: packet.EncodeOptions{EmbedMeta: true}})
	if err := pcap.WriteStream(w, pcap.Merge(bg, atk)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if n := w.Count(); n > 50_000 {
		t.Fatalf("fixture has %d packets, want <= 50000", n)
	}
}

// Masked output. Everything else a golden run prints must repeat byte for
// byte; these are what differed between two runs of the same binary over
// the same capture:
//   - stdout: the cluster fan-out line's sync-wait and merge times, each
//     worker line's ring high-water, stalls and feeder wait (DESIGN.md
//     §14.5) — they count scheduling, not traffic;
//   - metrics: the same readings as series — cluster.sync.wait_ns,
//     cluster.merge.ns and each lane's ingress hwm, stalls, wait_ns and
//     wakeups;
//   - IPFIX: the order of the records inside one data set, which was the
//     flow log's map order when the goldens were recorded. That order is
//     deterministic now (TestIPFIXExportIsDeterministic), but the golden
//     keeps the hash it was recorded with: the file is hashed with each
//     data set's records sorted; headers, sets and record bytes are
//     unmasked.
var (
	maskStdout = []*regexp.Regexp{
		regexp.MustCompile(`(sync-wait|merge|wait)=[0-9.]+ ms`),
		regexp.MustCompile(`(ring-hwm|stalls)=[0-9]+`),
	}
	maskSeries = regexp.MustCompile(`^cluster\.(sync\.wait_ns|merge\.ns|worker\.[0-9]+\.ingress\.(hwm|stalls|wait_ns|wakeups))$`)
)

// goldenRun is one batch-mode invocation the goldens freeze.
type goldenRun struct {
	name string
	args []string
}

var goldenRuns = []goldenRun{
	{"single_batch1", []string{"-batch", "1"}},
	{"single_batch64", []string{"-batch", "64"}},
	{"workers2_batch1", []string{"-workers", "2", "-batch", "1"}},
	{"workers2_batch64", []string{"-workers", "2", "-batch", "64"}},
}

// TestCLIGolden replays the batch drive against outputs recorded from the
// CLI before it was rebuilt over one engine interface: stdout, the
// -metrics stream, and the SHA-256 of the -ipfix and -emit-p4 files, for
// one platform and a two-worker cluster at batch sizes 1 and 64.
func TestCLIGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("re-executes the CLI four times over a 40 k-packet capture")
	}
	dir := t.TempDir()
	in := filepath.Join(dir, "fixture.pcap")
	writeFixture(t, in)
	for _, run := range goldenRuns {
		t.Run(run.name, func(t *testing.T) {
			got := goldenOutput(t, dir, in, run)
			path := filepath.Join("testdata", run.name+".golden")
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s differs from %s:\n--- got\n%s\n--- want\n%s", run.name, path, got, want)
			}
		})
	}
}

// goldenOutput runs the CLI once and renders what it produced, masked.
func goldenOutput(t *testing.T, dir, in string, run goldenRun) []byte {
	t.Helper()
	metrics := filepath.Join(dir, run.name+".metrics")
	ipfix := filepath.Join(dir, run.name+".ipfix")
	p4 := filepath.Join(dir, run.name+".p4")
	stdout := runCLI(t, append([]string{"-in", in, "-switch", "-interval", "10",
		"-detectors", "ssh,portscan,rst,incomplete",
		"-metrics", metrics, "-ipfix", ipfix, "-emit-p4", p4}, run.args...)...)
	var out bytes.Buffer
	out.WriteString("== stdout\n")
	for _, line := range strings.SplitAfter(stdout, "\n") {
		for _, re := range maskStdout {
			line = re.ReplaceAllString(line, "$1=<masked>")
		}
		out.WriteString(line)
	}
	out.WriteString("== metrics\n")
	raw, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range bytes.Split(bytes.TrimSpace(raw), []byte("\n")) {
		out.Write(maskSnapshot(t, line))
		out.WriteByte('\n')
	}
	for _, f := range []string{ipfix, p4} {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if f == ipfix {
			sortIPFIXRecords(t, b)
		}
		fmt.Fprintf(&out, "== %s sha256 %x\n", filepath.Ext(f)[1:], sha256.Sum256(b))
	}
	return out.Bytes()
}

// runCLI runs the test binary as the CLI and returns its stdout.
func runCLI(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("smartwatch %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
	}
	return stdout.String()
}

// TestIPFIXExportIsDeterministic: the flow log has one order, so two batch
// runs over the same capture write byte-identical -ipfix files, on either
// engine. Records used to leave the flow log in Go map order.
func TestIPFIXExportIsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("re-executes the CLI four times over a 40 k-packet capture")
	}
	dir := t.TempDir()
	in := filepath.Join(dir, "fixture.pcap")
	writeFixture(t, in)
	for _, k := range engineKinds {
		var files [2][]byte
		for i := range files {
			out := filepath.Join(dir, fmt.Sprintf("%s-%d.ipfix", k.name, i))
			runCLI(t, "-in", in, "-switch", "-interval", "10", "-detectors", "ssh,portscan,rst,incomplete",
				"-workers", strconv.Itoa(k.lanes), "-ipfix", out)
			b, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			files[i] = b
		}
		if !bytes.Equal(files[0], files[1]) {
			t.Errorf("%s: the two runs' IPFIX files differ (%d and %d bytes)", k.name, len(files[0]), len(files[1]))
		}
	}
}

// sortIPFIXRecords sorts, in place, the fixed-size records of every data
// set in an IPFIX file the exporter wrote (host/ipfix.go: 16-byte message
// header, 4-byte set header, template set ID 2, 45-byte records).
func sortIPFIXRecords(t *testing.T, b []byte) {
	t.Helper()
	const msgHdr, setHdr, recLen = 16, 4, 45
	for len(b) > 0 {
		n := int(binary.BigEndian.Uint16(b[2:4]))
		if n < msgHdr || n > len(b) {
			t.Fatalf("ipfix message length %d of %d bytes left", n, len(b))
		}
		for sets := b[msgHdr:n]; len(sets) > 0; {
			id, sn := binary.BigEndian.Uint16(sets[0:2]), int(binary.BigEndian.Uint16(sets[2:4]))
			if id != 2 {
				body := sets[setHdr:sn]
				recs := make([][]byte, 0, len(body)/recLen)
				for i := 0; i < len(body); i += recLen {
					recs = append(recs, append([]byte(nil), body[i:i+recLen]...))
				}
				sort.Slice(recs, func(i, j int) bool { return bytes.Compare(recs[i], recs[j]) < 0 })
				for i, r := range recs {
					copy(body[i*recLen:], r)
				}
			}
			sets = sets[sn:]
		}
		b = b[n:]
	}
}

// maskSnapshot replaces the value of every maskSeries series in one
// JSON-lines metrics snapshot and re-encodes it with sorted keys.
func maskSnapshot(t *testing.T, line []byte) []byte {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.UseNumber()
	var snap map[string]any
	if err := dec.Decode(&snap); err != nil {
		t.Fatalf("metrics line %q: %v", line, err)
	}
	for _, kind := range []string{"counters", "gauges", "histograms"} {
		series, _ := snap[kind].(map[string]any)
		for name := range series {
			if maskSeries.MatchString(name) {
				series[name] = "<masked>"
			}
		}
	}
	b, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
