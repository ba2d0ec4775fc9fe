#!/usr/bin/env bash
# Builds the benchmark driver from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload cell-failover --seed 1 --seconds 30 --trace 0
#
# Build outputs (Go build cache, binary) and span files go to .bench_build/
# under the current directory, so the run reads and writes nothing outside
# the checkout. A failed build exits non-zero before any result is printed.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
