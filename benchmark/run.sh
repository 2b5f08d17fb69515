#!/usr/bin/env bash
# BENCHMARK.json's command: builds the benchmark from source inside the
# checkout (Go's build cache and temp files included, so nothing is written
# outside it) and runs it with the driver's arguments.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
