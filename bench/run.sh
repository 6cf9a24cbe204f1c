#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it, passing
# every argument on (see bench/main.go). Run it from the repository root:
#
#   bash bench/run.sh --workload served --seed 1 --seconds 20 --trace 0
#
# The build and its caches stay inside the checkout, under .bench_build.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -C "$root/bench" -o "$build/bench" .
exec "$build/bench" "$@"
