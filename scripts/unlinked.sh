#!/usr/bin/env bash
# Lists the non-test functions under internal/ that no binary the repo ships
# links, and fails unless scripts/unlinked.allow names each one. The binaries
# are cmd/*, examples/* and benchmark/, built with inlining off (so every
# function a binary reaches keeps its symbol) into the ignored .bench_build/.
# Run from anywhere; pass a checkout's root to scan that tree instead.
set -euo pipefail

scripts="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "${1:-$scripts/..}" && pwd)"
build="$root/.bench_build"
out="$build/unlinked"
mkdir -p "$out"

export GOCACHE="$build/go-cache"
export GOMODCACHE="$build/go-mod"
export GOTOOLCHAIN=local
export GOPROXY=off
export XDG_CONFIG_HOME="$build/config" # the go command's telemetry counters

cd "$root"
: >"$out/syms"
for dir in cmd/*/ examples/*/ benchmark/; do
	bin="$out/$(basename "$dir")"
	(cd "$dir" && go build -gcflags=all=-l -o "$bin" .)
	go tool nm "$bin" >>"$out/syms"
done
go run "$scripts/unlinked.go" -syms "$out/syms" -allow "$scripts/unlinked.allow"
