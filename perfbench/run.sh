#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given
# flags (see perfbench/README.md), from the root of a checkout:
#
#   bash perfbench/run.sh --workload run-coherent --seed 1 --seconds 60 --trace 0
#
# Every build product, the Go build cache, and the CPU profiles of a
# traced run stay under .bench_build in the checkout, so a run writes
# nothing outside the checkout.
set -euo pipefail
bench=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$bench")
out=$root/.bench_build
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go -C "$bench" build -o "$out/perfbench" .
exec "$out/perfbench" -work "$out" "$@"
