#!/usr/bin/env bash
# Builds fragdb's benchmark from source and runs it. Run it from the
# repository root:
#
#   bash _fragbench/run.sh --workload sim-commit --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write goes under .bench_build/ in the
# current directory: the Go build cache, the binary and, for traced runs,
# the span files.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$root/_fragbench" && go build -buildvcs=false -o "$out/fragbench" .)
exec "$out/fragbench" "$@"
