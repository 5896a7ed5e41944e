#!/usr/bin/env bash
# The benchmark's one entry point. Builds the three product binaries and
# the harness from source into bench/out/bin when they are missing or older
# than any Go source, then runs the harness with the given arguments.
# Everything it writes — binaries, Go build cache, results, traces — goes
# under bench/out, inside the checkout.
set -euo pipefail

bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench")"
out="$bench/out"
bin="$out/bin"
mkdir -p "$bin"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off GOPROXY=off GOTOOLCHAIN=local GOWORK=off

stale() {
	[ -x "$bin/bench" ] || return 0
	[ -n "$(find "$root/go.mod" "$root/cmd" "$root/internal" "$bench" \
		-path "$out" -prune -o \( -name '*.go' -o -name go.mod \) -newer "$bin/bench" -print -quit)" ]
}

if stale; then
	t0=$(date +%s.%N)
	(cd "$root" && go build -o "$bin/" ./cmd/charos ./cmd/sweep ./cmd/charosd)
	# The harness is built last: its timestamp is what stale() compares.
	(cd "$bench" && go build -o "$bin/bench" .)
	echo "build_s $(awk -v a="$t0" -v b="$(date +%s.%N)" 'BEGIN { printf "%.1f", b - a }') (one-off, not a metric)" >&2
fi

exec "$bin/bench" -root "$root" "$@"
