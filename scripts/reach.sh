#!/bin/sh
# reach (DESIGN.md §16.4): which functions does no product surface run?
# Builds every entry point with coverage over the whole module, runs each
# one the way a user or the benchmark does — the CLI golden configurations,
# every detector on a generated source, one capture per
# attack, the metrics pipe, the daemon smoke, every experiment by id, the
# root package's Examples and one pass of each benchmark workload — then
# merges the counters and prints each function at 0 %. Code under
# benchmark/ is not judged; smartwatch.go is, so the facade exports only
# what an Example runs. Every other 0 % function must be on
# scripts/unreached.txt with a reason, or the script exits 1. A listed
# function the run did reach is reported, not failed: the daemon and
# cluster fault paths are timing-dependent.
#   sh scripts/reach.sh          (make reach; ~2 min on 2 vCPUs)
set -eu

GO=${GO:-go}
TMP=$(mktemp -d "${TMPDIR:-/tmp}/reach.XXXXXX")
trap 'rm -rf "$TMP"' EXIT
COV="$TMP/cov"
BIN="$TMP/bin"
mkdir -p "$COV" "$BIN" "$TMP/out"
export GOFLAGS='-cover -coverpkg=./...' GOCOVERDIR="$COV"

step() { echo "reach: $*" >&2; }

step "building"
$GO build -o "$BIN" ./cmd/tracegen ./cmd/smartwatch ./cmd/metricscheck ./cmd/experiments
$GO build -o "$BIN/benchmark" ./benchmark
SW="$BIN/smartwatch"

step "CLI golden configurations"
FIX="$TMP/fixture.pcap"
"$BIN/tracegen" -out "$FIX" -preset caida2018 -attack ssh-bruteforce -duration 100ms
for args in "" "-workers 2"; do
    # shellcheck disable=SC2086 # args is a word list
    "$SW" -in "$FIX" -switch -interval 10 -detectors ssh,portscan,rst,incomplete \
        -metrics "$TMP/out/m.jsonl" -ipfix "$TMP/out/f.ipfix" -emit-p4 "$TMP/out/q.p4" $args >/dev/null
done

step "generated source: every detector"
ALL=ssh,ftp,kerberos,portscan,rst,incomplete,dns,worm,ssl,microburst,lowslow
"$SW" -gen caida2019 -gen-max 20000 -switch -detectors "$ALL" \
    -kv-retention 4 -metrics "$TMP/out/g.jsonl" >/dev/null
"$SW" -gen dc -gen-max 20000 -switch -detectors "$ALL" \
    -workers 4 -kv-retention 4 >/dev/null

step "one capture per attack"
for attack in ssh-bruteforce ftp-bruteforce kerberos portscan forged-rst slowloris \
    dns-amplification covert-timing fingerprint microburst worm ssl-expiry tcp-incomplete; do
    "$BIN/tracegen" -out "$TMP/out/a.pcap" -attack "$attack"
    "$SW" -in "$TMP/out/a.pcap" -switch -detectors "$ALL" >/dev/null
done
"$BIN/tracegen" -out "$TMP/out/a.pcap" -attack portscan -shift 50ms

step "metrics pipe"
"$BIN/tracegen" -out "$TMP/out/m.pcap" -preset caida2018 -attack ssh-bruteforce -duration 200ms
"$SW" -in "$TMP/out/m.pcap" -switch -metrics - |
    "$BIN/metricscheck" -min-snapshots 2 \
        -require packets.total,flowcache.occupancy,snic.processed,host.flush.count

step "daemon smoke"
GO="$GO" sh scripts/serve_smoke.sh >&2

step "experiments"
# shellcheck disable=SC2046 # one argument per experiment id
"$BIN/experiments" -scale 0.25 $("$BIN/experiments" list) >/dev/null

step "examples"
$GO test -count=1 -run '^Example' . -args -test.gocoverdir="$COV" >/dev/null

step "benchmark workloads"
for w in backbone manyflows churn surge fanout2; do
    for traced in 0 1; do
        "$BIN/benchmark" -child -workload "$w" -seed 1 -trace "$traced" -outdir "$TMP/out" >/dev/null
    done
done

step "merging"
unset GOFLAGS GOCOVERDIR
$GO tool covdata textfmt -i="$COV" -o "$TMP/profile.txt"
$GO tool cover -func="$TMP/profile.txt" >"$TMP/func.txt"
tail -n 1 "$TMP/func.txt" | sed 's/^/reach: product coverage /' >&2
$GO test -count=1 -v -run '^TestReach$' . -reach "$TMP/func.txt"
