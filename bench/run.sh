#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
# Everything the build writes (Go build cache, binary) stays under
# .bench_build/ in the checkout; results go to bench/out/.
#
#   bash bench/run.sh                                   # every workload, both passes
#   bash bench/run.sh --workload pio_wide_62 --seed 3 --seconds 12 --trace 0
#   bash bench/run.sh -compare a/results.json b/results.json
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go -C bench build -o "$build/parblast-bench" .
exec "$build/parblast-bench" "$@"
