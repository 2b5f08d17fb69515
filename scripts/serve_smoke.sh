#!/bin/sh
# serve-smoke (DESIGN.md §13.3): end-to-end gate for the -serve daemon.
# Every leg starts the daemon tailing a fixture pcap (-follow keeps it
# alive after the fixture is consumed) and runs one assertion body: status
# and snapshot the moment the listener answers (it is opened before the
# engine is started), then after the first interval close pause/resume,
# the whitelist and blacklist round trips, a metrics snapshot per lane and
# the live /metrics endpoint, then a drain (SIGTERM or POST
# /control/drain) that must exit 0 with a final report on stdout. Legs: one platform with the
# switch (its per-interval metrics stream is then validated by
# cmd/metricscheck), a two-worker cluster, and one platform without a
# switch, where an operator blacklist must be refused with 409.
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

has_snapshot() { curl -sf "$BASE/control/snapshot" | grep -q '"ts_ns"'; }

# lane_snapshots LANES: every lane's /control/snapshot entry is a metrics
# snapshot (one "packets.intervals" series a lane; a lane that has not
# closed an interval yet is null).
lane_snapshots() {
    [ "$(curl -sf "$BASE/control/snapshot" | grep -c '"packets.intervals"')" = "$1" ]
}

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

# leg NAME LANES SWITCH SERIES DRAIN ARGS...: run one daemon with ARGS and
# assert on it. LANES is the worker count /control/status must report
# (1 for one platform); SWITCH is 1 when ARGS enable the switch tier;
# SERIES is a metric /metrics must carry mid-run (a cluster's registry holds
# the cluster.* series); DRAIN is term (SIGTERM) or api (POST
# /control/drain).
leg() {
    name=$1 lanes=$2 switch=$3 series=$4 drain=$5
    shift 5
    echo "serve-smoke: $name leg on $BASE"
    "$TMP/smartwatch" -serve -follow -in "$TMP/fixture.pcap" \
        -expvar "127.0.0.1:$PORT" "$@" \
        >"$TMP/stdout.log" 2>"$TMP/stderr.log" &
    PID=$!
    wait_for 200 0.05 "control API" curl -sf -o "$TMP/status.json" "$BASE/control/status"
    grep -qE "\"workers\": $lanes,?\$" "$TMP/status.json" \
        || fail "$name: first status does not report $lanes worker(s): $(cat "$TMP/status.json")"
    curl -sf "$BASE/control/snapshot" | grep -q '"workers"' \
        || fail "$name: snapshot failed right after the listener came up"

    # Wait until the fixture has been ingested far enough to close at
    # least one interval (a lane's snapshot appears).
    wait_for 100 0.2 "$name interval snapshot" has_snapshot
    curl -sf "$BASE/control/status" | grep -q '"state": "running"' \
        || fail "$name: status not running"
    curl -sf "$BASE/control/status" | grep -q '"intervals"' \
        || fail "$name: status shows no interval after the first close"
    curl -sf -X POST "$BASE/control/pause" | grep -q '"paused": true' \
        || fail "$name: pause not acknowledged"
    curl -sf "$BASE/control/status" | grep -q '"paused": true' \
        || fail "$name: status does not show paused"
    curl -sf -X POST "$BASE/control/resume" | grep -q '"paused": false' \
        || fail "$name: resume not acknowledged"
    curl -sf -X POST "$BASE/control/whitelist?flow=10.0.0.1:2000-10.0.0.2:80/tcp" \
        | grep -q '"whitelisted"' || fail "$name: whitelist install rejected"
    if [ "$switch" = 1 ]; then
        curl -sf "$BASE/control/whitelist" | grep -q '10.0.0.1:2000' \
            || fail "$name: installed whitelist entry not in dump"
        curl -sf -X POST "$BASE/control/blacklist?addr=10.3.3.3" \
            | grep -q '"blacklisted"' || fail "$name: blacklist install rejected"
        curl -sf "$BASE/control/blacklist" | grep -q '10.3.3.3' \
            || fail "$name: installed blacklist entry not in dump"
    else
        code=$(curl -s -o "$TMP/post.json" -w '%{http_code}' -X POST "$BASE/control/blacklist?addr=10.3.3.3")
        [ "$code" = 409 ] || fail "$name: blacklist without a switch answered $code, want 409"
        grep -q 'switch tier disabled' "$TMP/post.json" || fail "$name: 409 does not say why"
        curl -sf "$BASE/control/blacklist" | grep -q '"count": 0' \
            || fail "$name: refused blacklist entry in dump"
    fi
    wait_for 100 0.2 "$name snapshot on each of $lanes lane(s)" lane_snapshots "$lanes"
    # The metrics endpoint serves live DURING the drive.
    curl -sf -o "$TMP/metrics.json" "$BASE/metrics" || fail "$name: /metrics down"
    grep -qF "\"$series\"" "$TMP/metrics.json" \
        || fail "$name: /metrics carries no $series during the drive"

    echo "serve-smoke: $name: drain ($drain)"
    if [ "$drain" = term ]; then
        kill -TERM "$PID"
    else
        curl -sf -X POST "$BASE/control/drain" | grep -q '"draining"' \
            || fail "$name: drain not acknowledged"
    fi
    rc=0
    wait "$PID" || rc=$?
    PID=
    [ "$rc" -eq 0 ] || fail "$name: daemon exited $rc after the drain"
    grep -q '^packets: total=' "$TMP/stdout.log" \
        || fail "$name: no final report on stdout"
}

leg platform 1 1 packets.total term -switch -metrics "$TMP/metrics.jsonl"
echo "serve-smoke: validating metrics stream"
"$TMP/metricscheck" -min-snapshots 2 \
    -require packets.total,flowcache.occupancy,snic.processed,host.flush.count \
    <"$TMP/metrics.jsonl" || fail "metricscheck rejected the stream"

leg cluster 2 1 cluster.steer.offered api -switch -workers 2
grep -q '^cluster: workers=2' "$TMP/stdout.log" \
    || fail "no cluster report on stdout"

leg no-switch 1 0 packets.total term

echo "serve-smoke: OK"
