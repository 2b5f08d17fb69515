#!/bin/sh
# bench-ab: same-box A/B of the repo's benchmark (DESIGN.md §16.4).
# Builds ./benchmark from a base commit (a `git archive` in a temp dir)
# and from the working tree, then runs them as alternating pairs — A B,
# B A, … — so drift on the box lands on both sides alike. Prints pair
# wins and the per-(metric, workload) verdicts, and leaves both sides'
# results in benchmark/out/pairs-a.json (base) and pairs-b.json (working
# tree). Exit status is the comparison's: 1 when anything regressed.
#
#   make bench-ab [BASE=HEAD~1] [PAIRS=10] [SEED=1]
set -eu

GO=${GO:-go}
BASE=${BASE:-HEAD~1}
PAIRS=${PAIRS:-10}
SEED=${SEED:-1}

cd "$(dirname "$0")/.."
TMP=$(mktemp -d "${TMPDIR:-/tmp}/bench-ab.XXXXXX")
trap 'rm -rf "$TMP"' EXIT

echo "bench-ab: building base $(git rev-parse --short "$BASE") and the working tree" >&2
mkdir "$TMP/base"
git archive "$BASE" | tar -x -C "$TMP/base"
(cd "$TMP/base" && $GO build -o "$TMP/bench-base" ./benchmark)
$GO build -o "$TMP/bench-tree" ./benchmark

"$TMP/bench-tree" -pairs "$PAIRS" -seed "$SEED" -a "$TMP/bench-base" -b "$TMP/bench-tree"
