#!/bin/sh
# Tier-1 verification: build, vet, full test suite with the race detector,
# a short fuzz of every input surface, then checked, determinism, daemon and
# benchmark smokes. Keep this green before merging.
set -eu

cd "$(dirname "$0")/.."

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

echo "== gofmt -l ."
# Every Go file in the tree (bench/ included, read only) is gofmt-clean.
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "FAIL: gofmt -l lists files that need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go test -race ./internal/runner/..."
go test -race ./internal/runner/...

echo "== go test -race ./..."
go test -race ./...

echo "== checked fault-injection smoke (charos -check -inject all)"
go run ./cmd/charos -exp table1 -window 2000000 -check -inject all >/dev/null

echo "== checked smoke off the default geometry (2-way L1+L2)"
# The checker's line probe indexes directly when both levels have one way
# and walks the ways otherwise; the default machine only ever takes the
# first path, so run the other here (core's TestDifferential covers both
# and the reference oracle). charos exits 1 on any violation.
go run ./cmd/charos -exp report -check -window 1M -dcache-l1-assoc 2 -dcache-l2-assoc 2 2>&1 >/dev/null |
    grep -q 'invariant checker: [1-9][0-9]* checks, 0 violations' || {
    echo "FAIL: charos -exp report -check on 2-way L1+L2 did not end in 0 violations" >&2; exit 1; }

echo "== §6 cluster study on the streaming pipeline (charos -exp section6)"
# The policy ladder is a sink of the chunk pipe; checked, the run must end
# clean, and on the 4d380 preset (64 MB) every frame must have a home.
go run ./cmd/charos -exp section6 -check -window 1M 2>&1 >/dev/null | tail -n 1 |
    grep -q '^invariant checker: [1-9][0-9]* checks, 0 violations$' || {
    echo "FAIL: charos -exp section6 -check did not end with the invariant checker line" >&2; exit 1; }
go run ./cmd/charos -exp section6 -machine 4d380 -window 1M >/dev/null

echo "== one end-of-run contract (sweep -exp figure11 -check)"
# charos and sweep end a checked run the same way (internal/runflag).
go run ./cmd/sweep -exp figure11 -check -cpus 2,4 -window 1M 2>&1 >/dev/null | tail -n 1 |
    grep -q '^invariant checker: [1-9][0-9]* checks, 0 violations$' || {
    echo "FAIL: sweep -exp figure11 -check did not end with the invariant checker line" >&2; exit 1; }

echo "== concurrent checkers under the race detector (charos -check -parallel 3)"
# Three workloads run at once, each with its own checker resolving routine
# IDs through its own kernel text and its own classifier goroutine behind
# the chunk pipe; the race detector fails the run if any state is shared.
go run -race ./cmd/charos -exp report -check -window 1M -parallel 3 2>&1 >/dev/null | tail -n 1 |
    grep -q '^invariant checker: [1-9][0-9]* checks, 0 violations$' || {
    echo "FAIL: charos -check -parallel 3 under -race did not end with 0 violations" >&2; exit 1; }

echo "== fuzz the input surfaces and the one-pass Figure 6 sweep (5s each)"
go test -run '^$' -fuzz '^FuzzParseCycles$' -fuzztime 5s ./internal/machineflag
go test -run '^$' -fuzz '^FuzzSampleParse$' -fuzztime 5s ./internal/sample
go test -run '^$' -fuzz '^FuzzRequestDecode$' -fuzztime 5s ./internal/service
go test -run '^$' -fuzz '^FuzzFigure6$' -fuzztime 5s ./internal/cachesweep

echo "== parallel-vs-serial determinism smoke (sweep -exp figure11)"
serial=$(go run ./cmd/sweep -exp figure11 -cpus 2,4 -window 1000000 -parallel 1 2>/dev/null)
pooled=$(go run ./cmd/sweep -exp figure11 -cpus 2,4 -window 1000000 -parallel 8 2>/dev/null)
if [ "$serial" != "$pooled" ]; then
    echo "FAIL: -parallel 8 output diverges from -parallel 1" >&2
    exit 1
fi

echo "== scheduling determinism smoke (charos -exp all, GOMAXPROCS=1 vs -parallel 3)"
# The first run puts every simulator and its classifier goroutine on one P;
# the second oversubscribes two cores with three runs and three
# classifiers. The reports must not depend on how they interleave.
onep=$(GOMAXPROCS=1 go run ./cmd/charos -exp all -window 1M -parallel 1 2>/dev/null)
oversub=$(go run ./cmd/charos -exp all -window 1M -parallel 3 2>/dev/null)
if [ "$onep" != "$oversub" ]; then
    echo "FAIL: charos -exp all under GOMAXPROCS=1 diverges from -parallel 3" >&2
    exit 1
fi

# Scratch directory for the smokes below that need a built binary (go run
# folds every child exit status into 1) or both output streams of a run.
smoke=$(mktemp -d)
daemon=""
cleanup_smoke() {
    [ -n "$daemon" ] && kill "$daemon" 2>/dev/null || true
    rm -rf "$smoke"
}
trap 'cleanup_smoke' EXIT
go build -o "$smoke/" ./cmd/charos ./cmd/sweep ./cmd/charosd

echo "== PGO build (default.pgo in every cmd/ main package, stdout equal to -pgo=off)"
# Plain go build optimises with cmd/<name>/default.pgo (cmd/sweep's and
# cmd/charosd's are links to cmd/charos's, regenerated by scripts/pgo.sh).
# A dangling link or a deleted profile would drop PGO without an error, so
# each binary must name its profile; the profile steers code generation
# only, so the reports must equal a -pgo=off build's.
for b in charos sweep charosd; do
    go version -m "$smoke/$b" | grep -q "build[[:space:]]*-pgo=.*/cmd/$b/default\.pgo\$" || {
        echo "FAIL: $b was built without cmd/$b/default.pgo" >&2; exit 1; }
done
mkdir "$smoke/nopgo"
go build -pgo=off -o "$smoke/nopgo/" ./cmd/charos ./cmd/sweep
for d in "$smoke" "$smoke/nopgo"; do
    "$d/charos" -exp all -window 1M -parallel 1 >"$d/all.out" 2>/dev/null
    "$d/sweep" -exp figure11 -cpus 2,4,8 -window 1M >"$d/fig11.out" 2>/dev/null
done
cmp -s "$smoke/all.out" "$smoke/nopgo/all.out" && cmp -s "$smoke/fig11.out" "$smoke/nopgo/fig11.out" || {
    echo "FAIL: the PGO build's reports differ from the -pgo=off build's" >&2; exit 1; }

echo "== sampled-run smoke (charos -exp report -sample, checker on)"
# -sample is a read-out of the one detailed run: the report must carry the
# schedule and ±stderr on the estimated miss counts, its exact lines must be
# the plain run's of the same window, and the checker must have checked the
# same number of references with 0 violations.
"$smoke/charos" -exp report -window 2000000 -check >"$smoke/plain.out" 2>"$smoke/plain.err"
"$smoke/charos" -exp report -window 2000000 -check -sample 20K:40K:200K >"$smoke/sampled.out" 2>"$smoke/sampled.err"
grep -q 'sampling: 20K:40K:200K' "$smoke/sampled.out" || {
    echo "FAIL: sampled report did not announce its schedule" >&2; exit 1; }
grep -q '±' "$smoke/sampled.out" || {
    echo "FAIL: sampled report carried no error bars" >&2; exit 1; }
exact='^(time split|sync stalls|kernel ops)'
[ "$(grep -E "$exact" "$smoke/plain.out")" = "$(grep -E "$exact" "$smoke/sampled.out")" ] || {
    echo "FAIL: exact lines of the sampled report differ from the plain run's" >&2; exit 1; }
checks=$(grep 'invariant checker: [1-9][0-9]* checks, 0 violations' "$smoke/plain.err") || {
    echo "FAIL: plain checked run did not end in 0 violations" >&2; exit 1; }
[ "$checks" = "$(grep 'invariant checker:' "$smoke/sampled.err")" ] || {
    echo "FAIL: sampled checked run did not report the plain run's check count" >&2; exit 1; }

echo "== zero-sample schedule is rejected (exit 2, before any simulation)"
rc=0
"$smoke/charos" -exp report -window 250000 -sample 100K:200K:10M >/dev/null 2>"$smoke/zero.err" || rc=$?
[ "$rc" = 2 ] && grep -q 'fits no measured interval' "$smoke/zero.err" || {
    echo "FAIL: a schedule with no measured interval in the window exited $rc" >&2; exit 1; }

echo "== unsampled report gate"
# A run without -sample carries no interval estimate.
grep -q 'sampling:' "$smoke/plain.out" && {
    echo "FAIL: unsampled report mentions sampling" >&2; exit 1; }

echo "== -sim-workers tombstone (parses, no effect, one stderr note)"
# The flag outlived the parallel engine so old command lines still run:
# stdout must be the plain run's, and stderr must carry exactly one note.
"$smoke/charos" -exp report -window 1M >"$smoke/serial.out" 2>/dev/null
"$smoke/charos" -exp report -window 1M -sim-workers 2 >"$smoke/simw.out" 2>"$smoke/simw.err"
cmp -s "$smoke/serial.out" "$smoke/simw.out" || {
    echo "FAIL: -sim-workers 2 changed the report" >&2; exit 1; }
[ "$(grep -c -- '-sim-workers' "$smoke/simw.err")" = 1 ] || {
    echo "FAIL: -sim-workers did not print exactly one stderr note" >&2; exit 1; }

echo "== geometry sweep smoke (sweep -exp geometry, checker on)"
# The checker rides every run of the sweep, -check or not; sweep exits 1 on
# any violation.
"$smoke/sweep" -exp geometry -window 1000000 2>&1 >/dev/null | tail -n 1 |
    grep -q '^invariant checker: [1-9][0-9]* checks, 0 violations$' || {
    echo "FAIL: sweep -exp geometry did not end with 0 violations" >&2; exit 1; }

echo "== sweep is a shim (sweep -exp figure11|geometry prints what charos prints)"
for exp in figure11 geometry; do
    "$smoke/sweep" -exp "$exp" -window 1M >"$smoke/shim.out" 2>/dev/null
    "$smoke/charos" -exp "$exp" -window 1M >"$smoke/registry.out" 2>/dev/null
    cmp -s "$smoke/shim.out" "$smoke/registry.out" || {
        echo "FAIL: sweep -exp $exp stdout differs from charos -exp $exp" >&2; exit 1; }
done

echo "== charosd smoke (panic isolation, 429 shed, SIGTERM drain)"
caddr=127.0.0.1:18416
"$smoke/charosd" -addr "$caddr" -workers 1 -queue 1 -test-hooks \
    -drain-policy cancel -drain-timeout 20s 2> "$smoke/charosd.log" &
daemon=$!
# The submit client retries with backoff, so the first submission doubles
# as the ready-wait; it must print the run's report.
"$smoke/charosd" -submit -addr "$caddr" -seed 2 -window 400000 | grep -q '^run ' || {
    echo "FAIL: charosd returned no report for a healthy job" >&2; exit 1; }
# A forced-panic job (test hook) must resolve as a structured failure —
# nonzero exit, error kind "panic" — without killing the worker pool.
if "$smoke/charosd" -submit -addr "$caddr" -seed 2 -window 400000 -test-panic 2> "$smoke/panic.err"; then
    echo "FAIL: forced-panic job exited zero" >&2; exit 1
fi
grep -q 'panic' "$smoke/panic.err" || {
    echo "FAIL: panic job carried no structured panic error" >&2; exit 1; }
# Saturate: pin the single worker and the single queue slot with long
# runs (distinct seeds — dedup would collapse identical configs) …
"$smoke/charosd" -submit -nowait -addr "$caddr" -seed 3 -window 500000000 >/dev/null
"$smoke/charosd" -submit -nowait -addr "$caddr" -seed 4 -window 500000000 >/dev/null
# … then a no-retry submission must shed with 429 + Retry-After.
if "$smoke/charosd" -submit -nowait -retries -1 -addr "$caddr" -seed 5 -window 500000000 2> "$smoke/shed.err"; then
    echo "FAIL: saturated submission was not shed" >&2; exit 1
fi
grep -q '429' "$smoke/shed.err" || {
    echo "FAIL: shed submission did not surface the 429" >&2; exit 1; }
# Out-of-range numbers are the client's 400, named by field, even with the
# queue full — they never reach it.
for n in -3 5000; do
    if "$smoke/charosd" -submit -retries -1 -addr "$caddr" -ncpu "$n" -window 200000 2> "$smoke/range.err"; then
        echo "FAIL: ncpu $n was admitted" >&2; exit 1
    fi
    grep -q "400.*ncpu $n" "$smoke/range.err" || {
        echo "FAIL: ncpu $n was not rejected with a 400 naming the field" >&2; exit 1; }
done
if command -v curl >/dev/null; then
    code=$(curl -s -o "$smoke/neg.out" -w '%{http_code}' -d '{"workload":"pmake","window":-5}' "http://$caddr/v1/jobs")
    [ "$code" = 400 ] && grep -q 'window -5' "$smoke/neg.out" || {
        echo "FAIL: window -5 got $code, want 400 naming the field" >&2; exit 1; }
    head -c 2097152 /dev/zero | tr '\0' ' ' > "$smoke/big.json"
    code=$(curl -s -o "$smoke/big.out" -w '%{http_code}' --data-binary "@$smoke/big.json" "http://$caddr/v1/jobs")
    [ "$code" = 413 ] && grep -q '1048576' "$smoke/big.out" || {
        echo "FAIL: 2 MiB body got $code, want 413 naming the limit" >&2; exit 1; }
fi
# SIGTERM: the drain must resolve every accepted job and exit 0.
kill -TERM "$daemon"
wait "$daemon" || { echo "FAIL: charosd exited nonzero after SIGTERM" >&2; exit 1; }
daemon=""
grep -q 'drain complete: all accepted jobs resolved' "$smoke/charosd.log" || {
    echo "FAIL: drain did not resolve all accepted jobs" >&2; exit 1; }

echo "== charosd load smoke (300 clients, overflowing cache, history and queue)"
# A fresh daemon sized so the load overflows everything on purpose: the
# LRU cache (8 entries < 12 distinct configs), the job history (64 << 300
# jobs) and the admission queue (sheds, if any, retried by the clients).
# The load generator exits nonzero unless every client lands a
# byte-checked "done" job having seen only 200s and 429s.
laddr=127.0.0.1:18417
"$smoke/charosd" -addr "$laddr" -workers 1 -queue 4 \
    -cache-entries 8 -job-history 64 -retry-after 50ms \
    2> "$smoke/charosd-load.log" &
daemon=$!
"$smoke/charosd" -submit -addr "$laddr" -seed 9 -window 250000 -warmup 100000 >/dev/null
"$smoke/charosd" -load 300 -addr "$laddr" -load-hot 4 -load-distinct 8 \
    -window 250000 -warmup 100000 || {
    echo "FAIL: charosd load smoke lost clients or saw bad responses" >&2; exit 1; }
# The warm-up job and the load's 12 configs are 13 distinct results through
# an 8-entry store: exactly 8 stay resident, and the rest were evicted.
if command -v curl >/dev/null; then
    curl -s "http://$laddr/v1/metrics" > "$smoke/load-metrics.json"
    entries=$(grep -o '"entries": [0-9]*' "$smoke/load-metrics.json" | cut -d' ' -f2)
    evictions=$(grep -o '"evictions": [0-9]*' "$smoke/load-metrics.json" | cut -d' ' -f2)
    [ "$entries" = 8 ] && [ "${evictions:-0}" -gt 0 ] || {
        echo "FAIL: load smoke store holds '$entries' entries with '$evictions' evictions, want 8 and > 0" >&2; exit 1; }
fi
kill -TERM "$daemon"
wait "$daemon" || { echo "FAIL: charosd exited nonzero after load + SIGTERM" >&2; exit 1; }
daemon=""
grep -q 'drain complete: all accepted jobs resolved' "$smoke/charosd-load.log" || {
    echo "FAIL: post-load drain did not resolve all accepted jobs" >&2; exit 1; }

echo "== shed-race regression (service.Submit, race detector)"
go test -race -count=10 -run 'TestShedNeverAdmitsFollower' ./internal/service

echo "== hostile-client tests, repeated (race detector)"
go test -race -count=10 -run 'TestOversizedBodyRejected|TestSlowHeaderClientDropped' ./internal/service

echo "== benchmark smoke (bench/run.sh -smoke: every workload, both modes, output checks)"
bash bench/run.sh -smoke >/dev/null

echo "== benchmark harness unit tests"
(cd bench && go test -short ./...)

echo "ok"
