#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload imgonly --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh compare <parent-records-dir> <change-records-dir>
#
# Run from the repository root. Every build artifact, the Go build cache
# and the result records stay under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
# The benchmark module imports the repository through a relative replace,
# so the build fails (and no result is printed) without the sources.
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
PERFBENCH_COMMIT="$commit" PERFBENCH_COMMAND="bash perfbench/run.sh $*" exec "$out/perfbench" "$@"
