# Developer workflow for the SmartWatch reproduction. Everything is
# stdlib-only Go; `make check` is what CI (and the tier-1 gate) runs.

GO ?= go

.PHONY: all build fmt-check vet test race fuzz-smoke cluster lowslow check loc bench-ab experiments experiments-check metrics-smoke serve-smoke clean

all: check

# The second build is every platform but amd64: the FlowCache's prefetch
# stub is assembly there and a no-op file elsewhere, which nothing else on
# an amd64 box compiles.
build:
	$(GO) build ./...
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/flowcache/

# Formatting gate: fails when gofmt would change any file.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt -l reports unformatted files:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Race-detector pass over the concurrency-bearing packages: the FlowCache
# latch protocol (and its random-operation test against the pre-row-word
# oracle, the shard / policy determinism suites, none of which -short
# skips), the sNIC engine, the platform control loop, the
# event observer list, the parallel experiment runner, the buffered stream bridge,
# the SPSC ring under the cluster's ingress lanes, the wire side's
# shared state — the follow reader's close flag, the switch tables — and
# the host flow log, which -serve handlers read under the KVStore's
# RWMutex while the drive flushes into it. The
# cluster runner is not here: its whole suite runs under -race in `make
# cluster`, and no test of it consults -short. -short shortens, not
# skips, the sNIC scheduler's ring-vs-heap oracle; the three
# platform sweeps it does skip (every batch size x shard count, chunked
# ingest, segmented runs: DESIGN.md §9, §12) run on the second line. The
# session's concurrency tests then run 20 more times: the concurrent-Close race lost
# about one run in eight before Session.Close decided under the session
# mutex, and Ingest / Exec / Snapshot / Close from four goroutines is the
# whole contract of a drive that runs on its callers' goroutines
# (DESIGN.md §12.1).
race:
	$(GO) test -race -short ./internal/flowcache/ ./internal/snic/ ./internal/tier/ ./internal/core/ ./internal/experiments/ ./internal/packet/ ./internal/container/ ./internal/pcap/ ./internal/p4switch/ ./internal/host/
	$(GO) test -race -run 'TestBatchedDriveMatchesPerPacket|TestChunkedIngestMatchesRun|TestSegmentedRunMatchesOneShot' ./internal/core/
	$(GO) test -race -count=20 -run 'TestSessionConcurrentClose|TestSessionIngestExecCloseRace' ./internal/core/

# Ten seconds of each native fuzz target (DESIGN.md §21): the pcap record
# walker against a whole-slice reference parser, the frame decoder, the
# address parser behind every flag and control-API address, and the
# compiled switch against its per-query reference pipeline. A crasher
# lands under the package's testdata/fuzz/ and is committed as a seed.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzReader -fuzztime 10s ./internal/pcap/
	$(GO) test -run '^$$' -fuzz FuzzDecodeInto -fuzztime 10s ./internal/packet/
	$(GO) test -run '^$$' -fuzz FuzzParseAddr -fuzztime 10s ./internal/packet/
	$(GO) test -run '^$$' -fuzz FuzzSwitchMatchesReference -fuzztime 10s ./internal/p4switch/

# Cluster gate (DESIGN.md §14): the full cluster runner suite under the
# race detector — the two-oracle determinism sweep (parallel drive
# byte-identical to the sequential reference, integer surface equal to
# the single-platform partition twin), hazard-asserted schedules,
# failure injection (worker crash, stall), the fold-delay contract and
# the merged-report/metrics contract. The oracle sweep replays whole
# clusters many times; allow a generous timeout on slow boxes. Then ten more runs of the one test in which the router's
# goroutine and the feeders append to a lane's tagged event list at once.
cluster:
	$(GO) vet ./...
	$(GO) test -race -timeout 45m ./internal/cluster/
	$(GO) test -race -count=10 -run TestOperatorWhitelistWhileFeedersRun ./internal/cluster/

# Low-and-slow gate (DESIGN.md §15, §18): the injector/detector suite,
# the flow-table model test and the map-backed LowSlow oracle, the
# timing-wheel wraparound and hostile-time audit, the pin-budget boundary
# race, the Lite-mode pinned-retention oracles and the platform
# determinism sweep with the wheel-backed detector in the loop — all
# under the race detector — then the lowslow experiment table at reduced
# scale.
lowslow:
	$(GO) vet ./...
	$(GO) test -race -run 'LowSlow|SlowRead|SlowPost|ConnExhaust|TimingWheel|PinBudget|PinStarve|PinAge|CleanRowParks|UnpinParked|ModeChurn|UpdateStatePin' \
		./internal/trace/ ./internal/detect/ ./internal/host/ ./internal/flowcache/ ./internal/core/
	$(GO) run ./cmd/experiments -scale 0.25 lowslow

# After the gates: a short pass of the detector micros (LowSlow, Chain,
# PortScan; DESIGN.md §18) and of the switch's per-packet micro (DESIGN.md
# §21.3), and one pass of each host benchmark, so they keep compiling
# (DESIGN.md §16), then the replacement-policy study table at reduced
# scale (DESIGN.md §11). The detectors' allocation claims are
# not read off this output: TestChainOnPacketDoesNotAllocate (0 per packet,
# OnPacket and Inspect) and TestPerSourceStateDoesNotAllocate (a new
# source costs map growth only) enforce them in `make test`, as
# TestSwitchProcessDoesNotAllocate does the switch's.
check: fmt-check vet build test race fuzz-smoke loc
	$(GO) test -run '^$$' -bench 'LowSlow|Chain|PortScan' -benchtime 10x ./internal/detect/
	$(GO) test -run '^$$' -bench 'Switch' -benchtime 10x ./internal/p4switch/
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/host/
	$(GO) run ./cmd/experiments -scale 0.1 policies

# The repo's size: non-test Go lines outside benchmark/, the figure each
# CHANGES.md entry quotes.
loc:
	@echo "non-test Go lines outside benchmark/: $$(git ls-files '*.go' | grep -v _test.go | grep -v '^benchmark/' | xargs cat | wc -l)"

# Same-box A/B of the repo's benchmark (benchmark/, BENCHMARK.json): the
# base commit against the working tree as alternating pairs, both result
# files left under benchmark/out/. What every perf PR has to show.
#   make bench-ab [BASE=HEAD~1] [PAIRS=10] [SEED=1]
bench-ab:
	GO="$(GO)" BASE="$(BASE)" PAIRS="$(PAIRS)" SEED="$(SEED)" sh scripts/bench_ab.sh

# Full-scale regeneration of every table/figure (EXPERIMENTS.md sizes).
experiments:
	$(GO) run ./cmd/experiments all > experiments_full.txt

# The same regeneration, diffed against the committed experiments_full.txt:
# fails on any changed byte. The detection figures drive core.Session
# (DESIGN.md §7.1), so this guards the platform's drive as well as the
# components. A PR that means to move a row regenerates the file with
# `make experiments` and gives a reason per changed row.
experiments-check:
	@out="$$(mktemp)"; $(GO) run ./cmd/experiments all > "$$out" && diff -u experiments_full.txt "$$out"; rc=$$?; rm -f "$$out"; exit $$rc

# Observability smoke (DESIGN.md §10): replay a small generated trace with
# -metrics -, then validate the JSON-lines snapshot stream end-to-end —
# parses, virtual time and counters monotonic, key series non-zero.
SMOKE_PCAP ?= /tmp/smartwatch-metrics-smoke.pcap
metrics-smoke:
	$(GO) run ./cmd/tracegen -out $(SMOKE_PCAP) -preset caida2018 -attack ssh-bruteforce -duration 200ms
	$(GO) run ./cmd/smartwatch -in $(SMOKE_PCAP) -switch -metrics - | \
		$(GO) run ./cmd/metricscheck -min-snapshots 2 \
			-require packets.total,flowcache.occupancy,snic.processed,host.flush.count
	rm -f $(SMOKE_PCAP)

# Daemon smoke (DESIGN.md §12.3): start `smartwatch -serve` tailing a
# fixture pcap, ask for status and snapshot before its engine has started,
# drive the control API (pause/resume, whitelist/blacklist, snapshot, live
# /metrics), drain, and assert a clean exit with a report — one assertion
# body over three legs: one platform with -switch (plus a metricscheck of
# its stream), -workers 2, and one platform without a switch, whose
# operator blacklist must get a 409.
serve-smoke:
	sh scripts/serve_smoke.sh

# What benchmark/run.sh and bench-ab leave behind (both git-ignored).
clean:
	rm -rf .bench_build benchmark/out
