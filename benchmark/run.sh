#!/usr/bin/env bash
# BENCHMARK.json's command. Builds ./benchmark from the checkout's source
# into .bench_build/ (Go's build cache and temporary files kept there too,
# so nothing is written outside the checkout) and runs it with the
# arguments given:
#
#   bash benchmark/run.sh --workload scan_wide --seed 7 --seconds 12 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -o "$build/halk-benchmark" ./benchmark
exec "$build/halk-benchmark" "$@"
