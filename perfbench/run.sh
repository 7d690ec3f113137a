#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument
# through:
#
#   bash perfbench/run.sh --workload pod-local --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Everything the build writes (binary,
# Go build cache) stays under .bench_build/ there.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOWORK=off GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0

go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" -trace-dir "$out/trace" "$@"
