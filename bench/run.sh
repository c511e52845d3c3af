#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from the
# checkout's sources into .bench_build/ (build cache included, so nothing
# is written outside the checkout) and runs it from the checkout root.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off
go build -C "$root/bench" -o "$build/qrec-bench" .
exec "$build/qrec-bench" "$@"
