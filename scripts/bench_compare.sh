#!/usr/bin/env bash
# bench_compare.sh — compare a fresh `go test -bench -benchmem` output
# against a pinned baseline. Usage:
#
#   scripts/bench_compare.sh <baseline.txt> <latest.txt>
#
# Fails when
#   * any benchmark present in both files regressed by more than
#     BENCH_MAX_REGRESSION_PCT percent in ns/op (averaged over repeated
#     runs), or
#   * any benchmark's allocs/op grew beyond the allocation gate
#     (base × (1 + BENCH_MAX_REGRESSION_PCT/100) + BENCH_MAX_ALLOC_GROWTH)
#     — the steady-state CP-ALS benches are pinned at 0 allocs/op, so a
#     hot-path allocation sneaking back in fails the build, or
#   * any benchmark present in the baseline is MISSING from the fresh run
#     (a silently deleted/renamed benchmark must not pass the gate) —
#     unless BENCH_ALLOW_MISSING=1 (set by bench.sh for partial
#     BENCH_PATTERN runs, where absence is expected).
#
# Benchmarks whose baseline rows carry no allocs/op column (pre-benchmem
# baselines) skip the allocation check.
#
# Names are matched without the "-N" suffix go test appends when
# GOMAXPROCS is N > 1. A record is taken to run at GOMAXPROCS N when every
# one of its benchmark names ends in the same "-N", and at GOMAXPROCS 1
# otherwise (go test adds no suffix at 1, so names like ".../NELL-2" keep
# theirs). Records at different GOMAXPROCS are different experiments: the
# comparison fails with one CROSS-COHORT error instead of a MISSING row
# per benchmark.
#
# Environment knobs:
#   BENCH_MAX_REGRESSION_PCT  allowed ns/op (and relative allocs/op)
#                             regression percent                 (default 5)
#   BENCH_MAX_ALLOC_GROWTH    allowed absolute allocs/op growth on top of
#                             the relative allowance              (default 8)
#   BENCH_MIN_NSOP            benchmarks whose baseline ns/op is below this
#                             are too noisy at 1x iteration to compare and
#                             are skipped for the ns/op regression check
#                             (they still count for the missing and
#                             allocation checks)            (default 100000)
#   BENCH_ALLOW_MISSING       1 = downgrade missing benchmarks to a warning
set -euo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 <baseline.txt> <latest.txt>" >&2
    exit 2
fi
BASE="$1"
CUR="$2"

# Records made by scripts/bench.sh open with "# cpu-features: ..." naming
# the kernel set that produced the numbers. Comparing across different
# kernel sets (AVX2 baseline vs purego run, or vice versa) is comparing
# different code — warn loudly rather than let a "regression" or
# "improvement" that is really a dispatch change slip through. Records
# without the stamp (pre-stamp baselines) skip the check.
basefeat="$(sed -n 's/^# cpu-features: //p' "$BASE" | head -n 1)"
curfeat="$(sed -n 's/^# cpu-features: //p' "$CUR" | head -n 1)"
if [ -n "$basefeat" ] && [ -n "$curfeat" ] && [ "$basefeat" != "$curfeat" ]; then
    echo "##################################################################" >&2
    echo "WARNING: CPU feature sets differ between baseline and fresh run:"   >&2
    echo "  baseline: $basefeat"                                              >&2
    echo "  fresh:    $curfeat"                                               >&2
    echo "ns/op deltas below reflect different kernels, not a code change."   >&2
    echo "Re-pin the baseline on this host before trusting the gate."         >&2
    echo "##################################################################" >&2
fi

MAXPCT="${BENCH_MAX_REGRESSION_PCT:-5}"
ALLOCGROWTH="${BENCH_MAX_ALLOC_GROWTH:-8}"
MINNSOP="${BENCH_MIN_NSOP:-100000}"
ALLOW_MISSING="${BENCH_ALLOW_MISSING:-0}"

awk -v maxpct="$MAXPCT" -v allocgrowth="$ALLOCGROWTH" -v minns="$MINNSOP" \
    -v allowmissing="$ALLOW_MISSING" '
    # Collect benchmark rows, locating the ns/op and allocs/op columns by
    # their unit labels (a MB/s column from b.SetBytes shifts positions).
    $1 ~ /^Benchmark/ {
        f = (FNR == NR) ? 1 : 2
        n = ++rows[f]
        name[f, n] = $1
        ns[f, n] = ""; allocs[f, n] = ""
        for (i = 3; i <= NF; i++) {
            if ($(i) == "ns/op") ns[f, n] = $(i-1)
            else if ($(i) == "allocs/op") allocs[f, n] = $(i-1)
        }
        next
    }
    # procsOf reports the GOMAXPROCS record f ran at, from its name suffixes.
    function procsOf(f,    i, p, s) {
        p = ""
        for (i = 1; i <= rows[f]; i++) {
            if (!match(name[f, i], /-[0-9]+$/)) return 1
            s = substr(name[f, i], RSTART + 1)
            if (p == "") p = s
            else if (p != s) return 1
        }
        return (p == "") ? 1 : p
    }
    END {
        for (f = 1; f <= 2; f++) {
            procs[f] = procsOf(f)
            for (i = 1; i <= rows[f]; i++) {
                key = name[f, i]
                if (procs[f] != 1) sub(/-[0-9]+$/, "", key)
                if (f == 1) {
                    if (ns[f, i] != "")     { base[key] += ns[f, i]; basen[key]++ }
                    if (allocs[f, i] != "") { basea[key] += allocs[f, i]; basean[key]++ }
                } else {
                    if (ns[f, i] != "")     { cur[key] += ns[f, i]; curn[key]++ }
                    if (allocs[f, i] != "") { cura[key] += allocs[f, i]; curan[key]++ }
                }
            }
        }
        if (rows[1] && rows[2] && procs[1] != procs[2]) {
            printf "CROSS-COHORT baseline ran at GOMAXPROCS=%s, fresh run at GOMAXPROCS=%s (benchmark name suffixes); rerun with -cpu %s or re-pin the baseline\n", procs[1], procs[2], procs[1]
            exit 1
        }
        n = 0
        for (key in cur) n++
        if (n == 0) {
            print "WARNING: no benchmark rows in the fresh run (bad BENCH_PATTERN?)."
        }
        missing = 0
        for (key in base) {
            if (!(key in cur)) {
                printf "MISSING    %-60s in baseline but absent from fresh run\n", key
                missing++
            }
        }
        bad = 0
        for (key in cur) {
            if (!(key in base)) continue
            b = base[key] / basen[key]
            c = cur[key] / curn[key]
            if (b <= 0) continue
            if (b < minns) continue # sub-floor benchmarks: pure jitter at 1x
            pct = (c - b) / b * 100
            if (pct > maxpct) {
                printf "REGRESSION %-60s %12.0f -> %12.0f ns/op (%+.1f%%)\n", key, b, c, pct
                bad++
            }
        }
        abad = 0
        for (key in cura) {
            if (!(key in basea)) continue # no alloc data pinned for it
            ba = basea[key] / basean[key]
            ca = cura[key] / curan[key]
            limit = ba * (1 + maxpct / 100) + allocgrowth
            if (ca > limit) {
                printf "ALLOC-REGRESSION %-54s %10.1f -> %10.1f allocs/op (limit %.1f)\n", key, ba, ca, limit
                abad++
            }
        }
        fail = 0
        if (bad) {
            printf "%d benchmark(s) regressed beyond %s%%\n", bad, maxpct
            fail = 1
        }
        if (abad) {
            printf "%d benchmark(s) exceeded the allocation gate (+%s%% relative, +%s absolute)\n", abad, maxpct, allocgrowth
            fail = 1
        }
        if (missing) {
            if (allowmissing == "1") {
                printf "%d baseline benchmark(s) missing (allowed: partial pattern run)\n", missing
            } else {
                printf "%d baseline benchmark(s) missing from the fresh run; deleted or renamed benchmarks must re-pin the baseline\n", missing
                fail = 1
            }
        }
        if (fail) exit 1
        print "benchmark gate passed."
    }
' "$BASE" "$CUR"
