#!/usr/bin/env bash
# Non-test Go lines (wc -l of every *.go that is not *_test.go), the number
# ROADMAP asks each PR to report as its net line delta. Run from anywhere;
# pass a checkout's root to count that tree instead of this one.
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

count() { # count LABEL FIND-ARGS...
	local label=$1
	shift
	local n
	n=$(find "$@" -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat | wc -l)
	printf '%-28s %7d\n' "$label" "$n"
}

count internal/ internal
for pkg in internal/*/; do
	count "  ${pkg%/}" "$pkg"
done
count cmd/ cmd
count 'internal/ + cmd/' internal cmd
count 'all outside benchmark/' . -path ./benchmark -prune -o -path ./.bench_build -prune -o
