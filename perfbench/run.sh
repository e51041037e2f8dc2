#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and runs
# it with the given arguments, from the checkout root. Every file the build
# and the run write stays under .bench_build/ in that root.
#
#   bash perfbench/run.sh --workload table1 --seed 7 --seconds 25 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off GOTELEMETRY=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
cd "$root"
# One P: on a small shared host a run that keeps every core busy measures
# its neighbours as much as itself. The serve workload still runs its two
# clients, coordinator and workers concurrently, interleaved on that P.
export GOMAXPROCS=1
exec "$build/perfbench" "$@"
