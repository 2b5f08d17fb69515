// The drive and the operator plane (DESIGN.md §13.3). Every run, batch or
// -serve, streams packets from a packet.Source (whole-file pcap, a tailed
// growing pcap, or the synthetic generator) through one cluster runner —
// at one worker, the platform itself — with a pause gate between vectors.
// -serve layers an HTTP control API on the -expvar endpoint: pause/resume,
// whitelist/blacklist query+update, each lane's live metrics snapshot, and
// graceful drain. SIGINT/SIGTERM (or POST /control/drain) stops the
// source, flushes the flow log, emits the final metrics snapshot, and
// returns the report.
package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"

	"smartwatch/internal/cluster"
	"smartwatch/internal/core"
	"smartwatch/internal/obs"
	"smartwatch/internal/packet"
)

// daemon owns the run's lifecycle: one source, one runner, the pause gate
// and the drain protocol.
type daemon struct {
	e   *cluster.Runner
	src packet.Source

	chunk int

	pauseMu sync.Mutex
	pauseC  *sync.Cond
	paused  bool

	ingestDone chan struct{}
	ingestErr  error

	drainOnce sync.Once
	drained   chan struct{}
	drainErr  error
}

func newDaemon(e *cluster.Runner, src packet.Source, chunk int) *daemon {
	d := &daemon{
		e: e, src: src, chunk: chunk,
		ingestDone: make(chan struct{}),
		drained:    make(chan struct{}),
	}
	d.pauseC = sync.NewCond(&d.pauseMu)
	return d
}

// run starts the engine and the ingest loop, blocks until a drain
// completes (SIGINT/SIGTERM, /control/drain, or source exhaustion), and
// returns the final report. A drive failure is the error.
func (d *daemon) run() (core.Report, error) {
	if err := d.e.Start(); err != nil {
		return core.Report{}, err
	}
	go d.ingestLoop()

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		select {
		case s := <-sig:
			fmt.Fprintf(os.Stderr, "smartwatch: %v — draining\n", s)
			d.drain()
		case <-d.drained:
		}
	}()

	// Source exhaustion (file fully replayed, generator budget done) also
	// ends the run — after the ingest loop finishes, drain.
	go func() {
		<-d.ingestDone
		d.drain()
	}()

	<-d.drained
	signal.Stop(sig)
	if d.drainErr != nil {
		return core.Report{}, d.drainErr
	}
	// Drain on a drained runner returns its cached report.
	crep, _ := d.e.Drain()
	if d.ingestErr != nil {
		return crep.Merged, d.ingestErr
	}
	return crep.Merged, d.src.Err()
}

// ingestLoop pulls batches from the source and feeds the engine,
// honouring the pause gate between batches. Pausing simply stops the
// pull: backpressure propagates through BufferedBatches to the source.
// The engine is closed only after this loop has returned, so an Ingest
// error is a drive failure; a failed session's cause comes back from
// Close.
func (d *daemon) ingestLoop() {
	defer close(d.ingestDone)
	for b := range packet.BufferedBatches(d.src.Stream(), d.chunk) {
		d.pauseMu.Lock()
		for d.paused {
			d.pauseC.Wait()
		}
		d.pauseMu.Unlock()
		if err := d.e.Ingest(b); err != nil {
			d.ingestErr = err
			return
		}
	}
}

// drain runs the graceful-shutdown protocol exactly once: stop the
// source, release the pause gate, wait for the ingest loop, then close
// the engine (final interval close, lossless flow-log flush, final
// metrics emit).
func (d *daemon) drain() {
	d.drainOnce.Do(func() {
		d.src.Close()
		d.setPaused(false)
		<-d.ingestDone
		d.drainErr = d.e.Close()
		close(d.drained)
	})
}

func (d *daemon) setPaused(p bool) {
	d.pauseMu.Lock()
	d.paused = p
	d.pauseMu.Unlock()
	d.pauseC.Broadcast()
}

func (d *daemon) isPaused() bool {
	d.pauseMu.Lock()
	defer d.pauseMu.Unlock()
	return d.paused
}

// registerControlAPI mounts the operator routes on the default mux (the
// same server -expvar starts).
func (d *daemon) registerControlAPI() {
	http.HandleFunc("/control/status", d.handleStatus)
	http.HandleFunc("/control/pause", d.handlePause(true))
	http.HandleFunc("/control/resume", d.handlePause(false))
	http.HandleFunc("/control/snapshot", d.handleSnapshot)
	http.HandleFunc("/control/whitelist", d.handleWhitelist)
	http.HandleFunc("/control/blacklist", d.handleBlacklist)
	http.HandleFunc("/control/drain", d.handleDrain)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // best-effort HTTP write
}

// handleStatus reports the engine's state; intervals / ts_ns are the
// most advanced lane's packets.intervals counter and snapshot time.
func (d *daemon) handleStatus(w http.ResponseWriter, _ *http.Request) {
	snaps := d.e.Snapshots()
	status := map[string]any{
		"state":    d.e.State().String(),
		"paused":   d.isPaused(),
		"ingested": d.e.Ingested(),
		"bus":      d.e.BusStats(),
		"workers":  len(snaps),
	}
	var last *obs.Snapshot
	for _, snap := range snaps {
		if snap != nil && (last == nil || snap.Counters["packets.intervals"] > last.Counters["packets.intervals"]) {
			last = snap
		}
	}
	if last != nil {
		status["intervals"], status["ts_ns"] = last.Counters["packets.intervals"], last.TsNs
	}
	writeJSON(w, http.StatusOK, status)
}

func (d *daemon) handlePause(pause bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeJSON(w, http.StatusMethodNotAllowed, map[string]string{"error": "POST required"})
			return
		}
		d.setPaused(pause)
		writeJSON(w, http.StatusOK, map[string]any{"paused": pause})
	}
}

// handleSnapshot serves each lane's latest metrics snapshot (null for a
// lane that has not closed an interval yet). At one worker its one entry
// is the snapshot /metrics serves.
func (d *daemon) handleSnapshot(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"workers": d.e.Snapshots()})
}

// handleWhitelist: GET dumps the switch whitelist; POST ?flow=<spec>
// installs an operator whitelist — the switch programs the entry and the
// FlowCache releases any pin, exactly as a detector-raised whitelist
// would.
func (d *daemon) handleWhitelist(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeEntries(w, d.e.WhitelistEntries())
	case http.MethodPost:
		k, err := parseFlowSpec(r.URL.Query().Get("flow"))
		if err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
			return
		}
		writeUpdate(w, d.e.Whitelist(k), "whitelisted", k.String())
	default:
		writeJSON(w, http.StatusMethodNotAllowed, map[string]string{"error": "GET or POST"})
	}
}

// handleBlacklist: GET dumps the drop table; POST ?addr=a.b.c.d installs
// an operator drop rule (409 without a switch tier).
func (d *daemon) handleBlacklist(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeEntries(w, d.e.BlacklistEntries())
	case http.MethodPost:
		a, err := packet.ParseAddr(r.URL.Query().Get("addr"))
		if err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
			return
		}
		writeUpdate(w, d.e.Blacklist(a), "blacklisted", a.String())
	default:
		writeJSON(w, http.StatusMethodNotAllowed, map[string]string{"error": "GET or POST"})
	}
}

// writeEntries renders a table dump.
func writeEntries[T fmt.Stringer](w http.ResponseWriter, table []T) {
	entries := make([]string, len(table))
	for i, e := range table {
		entries[i] = e.String()
	}
	writeJSON(w, http.StatusOK, map[string]any{"count": len(entries), "entries": entries})
}

// writeUpdate answers an install: 409 with the engine's refusal, or 200
// naming what was installed.
func writeUpdate(w http.ResponseWriter, err error, verb, what string) {
	if err != nil {
		writeJSON(w, http.StatusConflict, map[string]string{"error": err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{verb: what})
}

// handleDrain triggers graceful shutdown and reports when the final
// report is ready.
func (d *daemon) handleDrain(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, map[string]string{"error": "POST required"})
		return
	}
	go d.drain()
	writeJSON(w, http.StatusAccepted, map[string]string{"status": "draining"})
}

// parseFlowSpec parses "ip:port-ip:port/proto" (e.g.
// "10.0.0.1:2000-10.0.0.2:80/tcp") into a canonical FlowKey.
func parseFlowSpec(s string) (packet.FlowKey, error) {
	var k packet.FlowKey
	spec, protoName, ok := strings.Cut(s, "/")
	if !ok {
		return k, fmt.Errorf("flow spec %q: want ip:port-ip:port/proto", s)
	}
	var proto packet.Proto
	switch protoName {
	case "tcp":
		proto = packet.ProtoTCP
	case "udp":
		proto = packet.ProtoUDP
	case "icmp":
		proto = packet.ProtoICMP
	default:
		return k, fmt.Errorf("flow spec %q: unknown proto %q", s, protoName)
	}
	a, b, ok := strings.Cut(spec, "-")
	if !ok {
		return k, fmt.Errorf("flow spec %q: want two ip:port endpoints", s)
	}
	t := packet.FiveTuple{Proto: proto}
	var err error
	if t.SrcIP, t.SrcPort, err = parseEndpoint(a); err != nil {
		return k, fmt.Errorf("flow spec %q: %w", s, err)
	}
	if t.DstIP, t.DstPort, err = parseEndpoint(b); err != nil {
		return k, fmt.Errorf("flow spec %q: %w", s, err)
	}
	return t.Canonical(), nil
}

func parseEndpoint(s string) (packet.Addr, uint16, error) {
	ipStr, portStr, ok := strings.Cut(s, ":")
	if !ok {
		return 0, 0, fmt.Errorf("endpoint %q: want ip:port", s)
	}
	ip, err := packet.ParseAddr(ipStr)
	if err != nil {
		return 0, 0, err
	}
	var port int
	if _, err := fmt.Sscanf(portStr, "%d", &port); err != nil || port < 0 || port > 65535 {
		return 0, 0, fmt.Errorf("endpoint %q: bad port", s)
	}
	return ip, uint16(port), nil
}
