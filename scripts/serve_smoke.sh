#!/bin/sh
# serve-smoke (DESIGN.md §12.3): end-to-end gate for the -serve daemon.
# Starts the daemon tailing a fixture pcap (-follow keeps it alive after
# the fixture is consumed), exercises the control API (status, pause/
# resume, whitelist, blacklist, snapshot) plus the live /metrics
# endpoint, then sends SIGTERM and asserts a clean drain: exit code 0,
# a final report on stdout, and a valid per-interval metrics stream via
# cmd/metricscheck. A second leg runs the daemon with -workers 2 and asks
# for /control/status and /control/snapshot the moment the listener answers
# — it is opened before the cluster runner is started, so both must answer
# for an idle runner — and again after the first interval.
set -eu

GO=${GO:-go}
PORT=${SERVE_SMOKE_PORT:-9193}
BASE="http://127.0.0.1:$PORT"
TMP=$(mktemp -d "${TMPDIR:-/tmp}/serve-smoke.XXXXXX")
PID=

fail() {
    echo "serve-smoke: FAIL: $*" >&2
    [ -f "$TMP/stderr.log" ] && sed 's/^/  daemon: /' "$TMP/stderr.log" >&2
    exit 1
}

# wait_for TRIES PAUSE WHAT CMD...: poll CMD until it succeeds.
wait_for() {
    tries=$1 pause=$2 what=$3
    shift 3
    i=0
    until "$@" 2>/dev/null; do
        i=$((i + 1))
        kill -0 "$PID" 2>/dev/null || fail "daemon died waiting for $what"
        [ "$i" -lt "$tries" ] || fail "no $what after $tries tries"
        sleep "$pause"
    done
}

has_snapshot() { curl -sf "$BASE/control/snapshot" | grep -q '"seq"'; }

cleanup() {
    [ -n "$PID" ] && kill "$PID" 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT

echo "serve-smoke: building tools"
$GO build -o "$TMP" ./cmd/tracegen ./cmd/smartwatch ./cmd/metricscheck

echo "serve-smoke: generating fixture pcap"
"$TMP/tracegen" -out "$TMP/fixture.pcap" -preset caida2018 \
    -attack ssh-bruteforce -duration 300ms

echo "serve-smoke: starting daemon on $BASE"
"$TMP/smartwatch" -serve -follow -in "$TMP/fixture.pcap" -switch \
    -metrics "$TMP/metrics.jsonl" -expvar "127.0.0.1:$PORT" \
    >"$TMP/stdout.log" 2>"$TMP/stderr.log" &
PID=$!

# Wait until the control API is up and the fixture has been ingested far
# enough to close at least one interval (snapshot seq appears).
wait_for 100 0.2 "interval snapshot" has_snapshot

echo "serve-smoke: control API checks"
curl -sf "$BASE/control/status" | grep -q '"state": "running"' \
    || fail "status not running"
curl -sf -X POST "$BASE/control/pause" | grep -q '"paused": true' \
    || fail "pause not acknowledged"
curl -sf "$BASE/control/status" | grep -q '"paused": true' \
    || fail "status does not show paused"
curl -sf -X POST "$BASE/control/resume" | grep -q '"paused": false' \
    || fail "resume not acknowledged"
curl -sf -X POST "$BASE/control/whitelist?flow=10.0.0.1:2000-10.0.0.2:80/tcp" \
    | grep -q '"whitelisted"' || fail "whitelist install rejected"
curl -sf "$BASE/control/whitelist" | grep -q '10.0.0.1:2000' \
    || fail "installed whitelist entry not in dump"
curl -sf -X POST "$BASE/control/blacklist?addr=10.3.3.3" \
    | grep -q '"blacklisted"' || fail "blacklist install rejected"
curl -sf "$BASE/control/blacklist" | grep -q '10.3.3.3' \
    || fail "installed blacklist entry not in dump"
curl -sf "$BASE/control/snapshot" | grep -q '"counts_delta"' \
    || fail "snapshot missing interval delta"
# Satellite: the metrics endpoint serves live DURING the drive.
curl -sf "$BASE/metrics" | grep -q 'packets.total' \
    || fail "/metrics not live during the drive"

echo "serve-smoke: SIGTERM -> graceful drain"
kill -TERM "$PID"
rc=0
wait "$PID" || rc=$?
PID=
[ "$rc" -eq 0 ] || fail "daemon exited $rc after SIGTERM"
grep -q '^packets: total=' "$TMP/stdout.log" \
    || fail "no final report on stdout"

echo "serve-smoke: validating metrics stream"
"$TMP/metricscheck" -min-snapshots 2 \
    -require packets.total,flowcache.occupancy,snic.processed,host.flush.count \
    <"$TMP/metrics.jsonl" || fail "metricscheck rejected the stream"

echo "serve-smoke: cluster leg (-workers 2)"
"$TMP/smartwatch" -serve -follow -in "$TMP/fixture.pcap" -switch -workers 2 \
    -expvar "127.0.0.1:$PORT" >"$TMP/stdout.log" 2>"$TMP/stderr.log" &
PID=$!
wait_for 200 0.05 "cluster control API" curl -sf -o "$TMP/status.json" "$BASE/control/status"
grep -q '"workers": 2' "$TMP/status.json" || fail "first cluster status malformed"
curl -sf "$BASE/control/snapshot" | grep -q '"workers"' \
    || fail "cluster snapshot failed right after the listener came up"
wait_for 100 0.2 "cluster interval snapshot" has_snapshot
curl -sf "$BASE/control/status" | grep -q '"intervals"' \
    || fail "cluster status shows no interval after the first close"
kill -TERM "$PID"
rc=0
wait "$PID" || rc=$?
PID=
[ "$rc" -eq 0 ] || fail "cluster daemon exited $rc after SIGTERM"
grep -q '^cluster: workers=2' "$TMP/stdout.log" \
    || fail "no cluster report on stdout"

echo "serve-smoke: OK"
