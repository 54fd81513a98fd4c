#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it. Every
# file it writes — Go's build cache, the binary, the stores of the disk
# workloads — goes under .bench_build/ at the checkout's root, so a run
# reads and writes nothing outside the checkout.
#
#   bash bench/run.sh --workload embedded-detect --seed 1 --seconds 15 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local
export ODE_BENCH_TMP="$build/tmp"
(cd "$here" && go build -o "$build/ode-bench" .)
exec "$build/ode-bench" "$@"
