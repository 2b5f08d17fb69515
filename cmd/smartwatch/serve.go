// Daemon mode (DESIGN.md §12): -serve turns the batch replayer into a
// long-running service. Packets stream from a packet.Source (whole-file
// pcap, a tailed growing pcap, or the synthetic generator) through a
// core.Session; an HTTP control API layered on the -expvar endpoint gives
// the operator pause/resume, whitelist/blacklist query+update over the
// tier bus, live interval snapshots, and graceful drain. SIGTERM (or
// POST /control/drain) flushes the flow log, emits the final metrics
// snapshot, and exits cleanly.
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
	"smartwatch/internal/packet"
	"smartwatch/internal/tier"
)

// daemon owns the serve-mode lifecycle: one source, one engine (a
// single-platform session or a cluster runner — exactly one of ses/cl is
// set), the pause gate and the drain protocol.
type daemon struct {
	pl  *core.Platform
	ses *core.Session
	cl  *cluster.Runner
	src packet.Source

	chunk int

	pauseMu sync.Mutex
	pauseC  *sync.Cond
	paused  bool

	ingestDone chan struct{}
	ingestErr  error

	drainOnce sync.Once
	drained   chan struct{}
	rep       core.Report
	clRep     cluster.Report
	drainErr  error
}

func newDaemon(pl *core.Platform, src packet.Source, chunk int) *daemon {
	d := &daemon{
		pl: pl, src: src, chunk: chunk,
		ingestDone: make(chan struct{}),
		drained:    make(chan struct{}),
	}
	d.pauseC = sync.NewCond(&d.pauseMu)
	d.ses = pl.NewSession()
	return d
}

// newClusterDaemon is the -workers > 1 variant: same lifecycle, with the
// cluster runner standing in for the session.
func newClusterDaemon(cl *cluster.Runner, src packet.Source, chunk int) *daemon {
	d := &daemon{
		cl: cl, src: src, chunk: chunk,
		ingestDone: make(chan struct{}),
		drained:    make(chan struct{}),
	}
	d.pauseC = sync.NewCond(&d.pauseMu)
	return d
}

// run starts the session and ingest loop, blocks until a drain completes
// (SIGTERM, /control/drain, or source exhaustion), and returns the final
// report.
func (d *daemon) run() (core.Report, error) {
	var err error
	if d.cl != nil {
		err = d.cl.Start()
	} else {
		err = d.ses.Start()
	}
	if err != nil {
		return core.Report{}, err
	}
	go d.ingestLoop()

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		fmt.Fprintf(os.Stderr, "smartwatch: %v — draining\n", s)
		d.drain()
	}()

	// Source exhaustion (file fully replayed, generator budget done) also
	// ends the daemon — after the ingest loop finishes, drain.
	go func() {
		<-d.ingestDone
		d.drain()
	}()

	<-d.drained
	signal.Stop(sig)
	if d.drainErr != nil {
		return core.Report{}, d.drainErr
	}
	if d.ingestErr != nil {
		return d.rep, d.ingestErr
	}
	return d.rep, d.src.Err()
}

// ingestLoop pulls batches from the source and feeds the session,
// honouring the pause gate between batches. Pausing simply stops the
// pull: backpressure propagates through BufferedBatches to the source.
func (d *daemon) ingestLoop() {
	defer close(d.ingestDone)
	for b := range packet.BufferedBatches(d.src.Stream(), d.chunk) {
		d.pauseMu.Lock()
		for d.paused {
			d.pauseC.Wait()
		}
		d.pauseMu.Unlock()
		if err := d.ingest(b); err != nil {
			// A drain that started while we were pulling the next batch
			// closes the engine under us — that's the clean-shutdown path,
			// not an error.
			if err != core.ErrSessionClosed && err != cluster.ErrRunnerState {
				d.ingestErr = err
			}
			return
		}
	}
}

func (d *daemon) ingest(b []packet.Packet) error {
	if d.cl != nil {
		return d.cl.Ingest(b)
	}
	return d.ses.Ingest(b)
}

// drain runs the graceful-shutdown protocol exactly once: stop the
// source, release the pause gate, wait for the ingest loop, then drain
// the session (final interval close, lossless flow-log flush, final
// metrics emit).
func (d *daemon) drain() {
	d.drainOnce.Do(func() {
		d.src.Close()
		d.setPaused(false)
		<-d.ingestDone
		if d.cl != nil {
			d.clRep, d.drainErr = d.cl.Drain()
			d.rep = d.clRep.Merged
			// Runner.Drain already tears the feeders and worker sessions
			// down; Close is the idempotent backstop (and the only teardown
			// path if the drain itself failed).
			if err := d.cl.Close(); err != nil && d.drainErr == nil {
				d.drainErr = err
			}
		} else {
			d.rep, d.drainErr = d.ses.Drain()
		}
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

func (d *daemon) handleStatus(w http.ResponseWriter, _ *http.Request) {
	if d.cl != nil {
		status := map[string]any{
			"state":    d.cl.State().String(),
			"paused":   d.isPaused(),
			"ingested": d.cl.Ingested(),
			"bus":      d.cl.BusStats(),
			"workers":  len(d.cl.Workers()),
		}
		var maxSeq uint64
		var maxTs int64
		for _, snap := range d.cl.Snapshots() {
			if snap != nil && snap.Seq > maxSeq {
				maxSeq, maxTs = snap.Seq, snap.TsNs
			}
		}
		if maxSeq > 0 {
			status["intervals"] = maxSeq
			status["ts_ns"] = maxTs
		}
		writeJSON(w, http.StatusOK, status)
		return
	}
	status := map[string]any{
		"state":    d.ses.State().String(),
		"paused":   d.isPaused(),
		"ingested": d.ses.Ingested(),
		"bus":      d.pl.Bus().Stats(),
	}
	if snap := d.ses.Snapshot(); snap != nil {
		status["intervals"] = snap.Seq
		status["ts_ns"] = snap.TsNs
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

// handleSnapshot serves the latest interval-boundary delta snapshot
// (per-lane array in cluster mode; lanes that haven't closed an interval
// yet are null).
func (d *daemon) handleSnapshot(w http.ResponseWriter, _ *http.Request) {
	if d.cl != nil {
		writeJSON(w, http.StatusOK, map[string]any{"workers": d.cl.Snapshots()})
		return
	}
	snap := d.ses.Snapshot()
	if snap == nil {
		writeJSON(w, http.StatusOK, map[string]string{"status": "no interval closed yet"})
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

// handleWhitelist: GET dumps the switch whitelist; POST ?flow=<spec>
// publishes a WhitelistEvent on the tier bus from inside the session's
// safe point — the switch programs the entry and the FlowCache releases
// any pin, exactly as a detector-raised whitelist would.
func (d *daemon) handleWhitelist(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		var entries []string
		if d.cl != nil {
			for _, k := range d.cl.WhitelistEntries() {
				entries = append(entries, k.String())
			}
		} else {
			err := d.ses.Exec(func(pl *core.Platform) {
				if sw := pl.Switch(); sw != nil {
					for _, k := range sw.WhitelistEntries() {
						entries = append(entries, k.String())
					}
				}
			})
			if err != nil {
				writeJSON(w, http.StatusConflict, map[string]string{"error": err.Error()})
				return
			}
		}
		writeJSON(w, http.StatusOK, map[string]any{"count": len(entries), "entries": entries})
	case http.MethodPost:
		k, err := parseFlowSpec(r.URL.Query().Get("flow"))
		if err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
			return
		}
		if d.cl != nil {
			err = d.cl.Whitelist(k)
		} else {
			err = d.ses.Exec(func(pl *core.Platform) {
				pl.Bus().Publish(tier.WhitelistEvent{Key: k, Origin: "control-api"})
			})
		}
		if err != nil {
			writeJSON(w, http.StatusConflict, map[string]string{"error": err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"whitelisted": k.String()})
	default:
		writeJSON(w, http.StatusMethodNotAllowed, map[string]string{"error": "GET or POST"})
	}
}

// handleBlacklist: GET dumps the drop table; POST ?addr=a.b.c.d publishes
// a BlacklistEvent on the tier bus.
func (d *daemon) handleBlacklist(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		var entries []string
		if d.cl != nil {
			for _, a := range d.cl.BlacklistEntries() {
				entries = append(entries, a.String())
			}
		} else {
			err := d.ses.Exec(func(pl *core.Platform) {
				if sw := pl.Switch(); sw != nil {
					for _, a := range sw.BlacklistEntries() {
						entries = append(entries, a.String())
					}
				}
			})
			if err != nil {
				writeJSON(w, http.StatusConflict, map[string]string{"error": err.Error()})
				return
			}
		}
		writeJSON(w, http.StatusOK, map[string]any{"count": len(entries), "entries": entries})
	case http.MethodPost:
		a, err := packet.ParseAddr(r.URL.Query().Get("addr"))
		if err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
			return
		}
		if d.cl != nil {
			err = d.cl.Blacklist(a)
		} else {
			err = d.ses.Exec(func(pl *core.Platform) {
				pl.Bus().Publish(tier.BlacklistEvent{Addr: a, Origin: "control-api"})
			})
		}
		if err != nil {
			writeJSON(w, http.StatusConflict, map[string]string{"error": err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"blacklisted": a.String()})
	default:
		writeJSON(w, http.StatusMethodNotAllowed, map[string]string{"error": "GET or POST"})
	}
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
