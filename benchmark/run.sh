#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
# Everything the build leaves behind (Go build cache, binary) goes under
# .bench_build/ in the checkout; nothing outside the checkout is written.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/go-cache"
export GOMODCACHE="$build/go-mod"
export GOTOOLCHAIN=local
export GOPROXY=off
export XDG_CONFIG_HOME="$build/config" # the go command's telemetry counters

(cd "$root/benchmark" && go build -o "$build/osprey-benchmark" .)
cd "$root"
exec "$build/osprey-benchmark" "$@"
