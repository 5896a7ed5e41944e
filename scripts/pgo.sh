#!/bin/sh
# Regenerates cmd/charos/default.pgo, the CPU profile that every plain
# `go build` of charos, sweep and charosd optimises with (cmd/sweep and
# cmd/charosd hold relative symlinks to it; `-pgo=off` builds without).
#
# It runs each CLI workload of the benchmark (bench/e2e.go) with its exact
# flags and window under -cpuprofile, at simulator seeds 2-5, and merges the
# profiles with `go tool pprof -proto`. Gains are claimed at benchmark seeds
# 1 and 53 (simulator seeds 1001-1004 and 53001-53004, bench/e2e.go's
# simSeed), so the profile holds no run the claim measures. The binaries are
# built with -pgo=off, so the new profile does not depend on the one it
# replaces.
# Profiles are sampled: a regenerated file differs byte-wise from the last,
# while the builds it steers print the same reports.
#
#   scripts/pgo.sh        # about 30 s on two cores
set -eu

cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go build -pgo=off -o "$tmp/" ./cmd/charos ./cmd/sweep

for seed in 2 3 4 5; do
    p="$tmp/seed$seed"
    # char3-all, char3-check, fig11-scaling, par-4d380, long-sampled
    "$tmp/charos" -exp all -parallel 1 -window 6000000 -seed "$seed" \
        -cpuprofile "$p-all.prof" >/dev/null 2>&1
    "$tmp/charos" -exp report -check -parallel 1 -window 3000000 -seed "$seed" \
        -cpuprofile "$p-check.prof" >/dev/null 2>&1
    "$tmp/sweep" -exp figure11 -cpus 2,4,6,8,12,16 -window 4000000 -parallel 2 -seed "$seed" \
        -cpuprofile "$p-fig11.prof" >/dev/null 2>&1
    "$tmp/charos" -exp report -machine 4d380 -parallel 1 -window 2500000 -sim-workers 2 -seed "$seed" \
        -cpuprofile "$p-4d380.prof" >/dev/null 2>&1
    "$tmp/charos" -exp report -parallel 1 -window 8000000 -sample 100K:200K:1000000 -seed "$seed" \
        -cpuprofile "$p-sampled.prof" >/dev/null 2>&1
done

go tool pprof -proto "$tmp"/*.prof >"$tmp/merged.pgo" 2>/dev/null
mv "$tmp/merged.pgo" cmd/charos/default.pgo
echo "wrote cmd/charos/default.pgo ($(wc -c <cmd/charos/default.pgo) bytes, $(ls "$tmp"/*.prof | wc -l) profiles)"
