#!/usr/bin/env bash
# bench.sh — run the Go micro-benchmarks (with -benchmem, so B/op and
# allocs/op land in the record) into benchmarks/latest.txt and, when
# benchmarks/baseline.txt exists, gate via scripts/bench_compare.sh:
# fail if any benchmark present in both regressed by more than
# BENCH_MAX_REGRESSION_PCT percent in ns/op, if allocs/op grew beyond the
# allocation gate (relative allowance + BENCH_MAX_ALLOC_GROWTH absolute
# slack — the steady-state ALS benches are pinned at 0 allocs/op), or if a
# baseline benchmark vanished from the fresh run (full-pattern runs only —
# deleting a benchmark must not silently pass the gate).
#
# Environment knobs:
#   BENCH_PATTERN             benchmark regex passed to -bench   (default: .)
#   BENCH_TIME                -benchtime value                   (default: 1x)
#   BENCH_COUNT               -count value; runs are averaged    (default: 1)
#   BENCH_MAX_REGRESSION_PCT  allowed ns/op regression percent   (default: 5)
#   BENCH_MAX_ALLOC_GROWTH    allowed absolute allocs/op growth  (default: 8)
#   BENCH_MIN_NSOP            gate floor: benchmarks whose baseline is below
#                             this many ns/op are too noisy at 1x iteration
#                             to compare and skip the ns/op check — the
#                             allocation gate still applies to them, which is
#                             the binding constraint for the sub-millisecond
#                             model-query kernels (default: 1000000)
#
# To (re)pin a baseline:  ./scripts/bench.sh && cp benchmarks/latest.txt benchmarks/baseline.txt
set -euo pipefail
cd "$(dirname "$0")/.."

PATTERN="${BENCH_PATTERN:-.}"
BENCHTIME="${BENCH_TIME:-1x}"
COUNT="${BENCH_COUNT:-1}"
MAXPCT="${BENCH_MAX_REGRESSION_PCT:-5}"
ALLOCGROWTH="${BENCH_MAX_ALLOC_GROWTH:-8}"
MINNSOP="${BENCH_MIN_NSOP:-1000000}"

mkdir -p benchmarks
# Stamp the kernel dispatch decision into the record: ns/op from an AVX2
# host and a pure-Go fallback run are different experiments, and the
# compare step warns when the feature strings disagree.
FEATURES="$(go run ./cmd/splatt-cpuinfo)"
echo "running benchmarks (pattern=$PATTERN benchtime=$BENCHTIME count=$COUNT) ..."
echo "kernels: $FEATURES"
{
    echo "# cpu-features: $FEATURES"
    # benchmarks/baseline.txt was pinned at GOMAXPROCS=1; -cpu 1 keeps the
    # fresh run in that cohort on any host (bench_compare.sh refuses to
    # compare records made at different GOMAXPROCS).
    go test -run '^$' -bench "$PATTERN" -benchtime "$BENCHTIME" -count "$COUNT" -cpu 1 -benchmem ./...
} | tee benchmarks/latest.txt

if [ ! -f benchmarks/baseline.txt ]; then
    echo "no benchmarks/baseline.txt committed; skipping regression gate."
    echo "pin one with: cp benchmarks/latest.txt benchmarks/baseline.txt"
    exit 0
fi

echo "comparing against benchmarks/baseline.txt (max regression ${MAXPCT}%, alloc growth ${ALLOCGROWTH}, floor ${MINNSOP} ns/op) ..."
# A partial-pattern run legitimately omits baseline benchmarks; only a
# full-pattern run enforces the missing-benchmark check.
ALLOW_MISSING=0
if [ "$PATTERN" != "." ]; then
    ALLOW_MISSING=1
fi
BENCH_MAX_REGRESSION_PCT="$MAXPCT" BENCH_MAX_ALLOC_GROWTH="$ALLOCGROWTH" \
    BENCH_MIN_NSOP="$MINNSOP" BENCH_ALLOW_MISSING="$ALLOW_MISSING" \
    ./scripts/bench_compare.sh benchmarks/baseline.txt benchmarks/latest.txt
