#!/usr/bin/env bash
# Builds the benchmark and splatt-serve from the checkout's sources, then
# runs one benchmark invocation with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload nell2-solve --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything the build and the runs write
# (Go build cache, binaries, generated inputs, records, traces) stays under
# $CARGO_TARGET_DIR, default .bench_build.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/bin" "$build/tmp"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS= GOENV=off GOTELEMETRY=off

go -C "$root/perfbench" build -o "$build/bin/perfbench" .
go -C "$root/perfbench" build -o "$build/bin/splatt-serve" repro/cmd/splatt-serve

exec "$build/bin/perfbench" --build-dir "$build" --root "$root" "$@"
