#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from the
# repository root:
#   bash cvperf/run.sh --workload monitor --seed 1 --seconds 25 --trace 0
#   bash cvperf/run.sh compare <parent-runs-dir> <change-runs-dir>
# The Go build cache and the binary stay under .bench_build/ in the
# checkout; nothing is fetched (the module needs only the standard library).
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOPROXY=off GOWORK=off
export GOPATH="$build/gopath"
go -C "$root/cvperf" build -o "$build/cvperf" .
exec "$build/cvperf" "$@"
