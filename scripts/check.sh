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

echo "== go test -race ./internal/runner/..."
go test -race ./internal/runner/...

echo "== go test -race ./..."
go test -race ./...

echo "== checked fault-injection smoke (charos -check -inject all)"
go run ./cmd/charos -exp table1 -window 2000000 -check -inject all >/dev/null

echo "== checked smokes off the default geometry (2-way L1+L2; -reference)"
# The checker's line probe indexes directly when both levels have one way
# and walks the ways otherwise; the default machine only ever takes the
# first path, so run the other two here. charos exits 1 on any violation.
for extra in "-dcache-l1-assoc 2 -dcache-l2-assoc 2" "-reference"; do
    # shellcheck disable=SC2086
    go run ./cmd/charos -exp report -check -window 1M $extra 2>&1 >/dev/null |
        grep -q 'invariant checker: [1-9][0-9]* checks, 0 violations' || {
        echo "FAIL: charos -exp report -check $extra did not end in 0 violations" >&2; exit 1; }
done

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

echo "== parallel-engine determinism smoke (charos -sim-workers, race detector)"
# All three workloads, serial scheduler vs the conservative parallel
# engine at 8 intra-run workers, under the race detector: byte-identical
# output is the engine's contract at any worker count.
serialeng=$(go run -race ./cmd/charos -exp table1 -window 1000000 -sim-workers 1 2>/dev/null)
paralleng=$(go run -race ./cmd/charos -exp table1 -window 1000000 -sim-workers 8 2>/dev/null)
if [ "$serialeng" != "$paralleng" ]; then
    echo "FAIL: -sim-workers 8 output diverges from -sim-workers 1" >&2
    exit 1
fi

echo "== streaming-vs-buffered determinism smoke (charos -buffered)"
streaming=$(go run ./cmd/charos -exp table1 -window 2000000 2>/dev/null)
buffered=$(go run ./cmd/charos -exp table1 -window 2000000 -buffered 2>/dev/null)
if [ "$streaming" != "$buffered" ]; then
    echo "FAIL: streaming pipeline output diverges from the buffered oracle" >&2
    exit 1
fi

echo "== fast-vs-reference determinism smoke (charos -reference)"
reference=$(go run ./cmd/charos -exp table1 -window 2000000 -reference 2>/dev/null)
if [ "$streaming" != "$reference" ]; then
    echo "FAIL: memory-system fast path output diverges from the -reference oracle" >&2
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
go build -o "$smoke/charos" ./cmd/charos
go build -o "$smoke/sweep" ./cmd/sweep

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

echo "== unsampled report gate (streaming vs buffered, serial vs -sim-workers)"
# The per-run report must render byte-for-byte what the buffered oracle
# renders, and what the parallel engine renders. The buffered flag is part
# of the config identity, so the "config <hash>" lines differ by design
# and are filtered out.
plainrep=$(go run ./cmd/charos -exp report -window 2000000 2>/dev/null)
bufrep=$(go run ./cmd/charos -exp report -window 2000000 -buffered 2>/dev/null)
if [ "$(echo "$plainrep" | grep -v '^config ')" != "$(echo "$bufrep" | grep -v '^config ')" ]; then
    echo "FAIL: unsampled report diverges from the buffered oracle" >&2
    exit 1
fi
workrep=$(go run ./cmd/charos -exp report -window 2000000 -sim-workers 8 2>/dev/null)
if [ "$plainrep" != "$workrep" ]; then
    echo "FAIL: unsampled report diverges under -sim-workers 8" >&2
    exit 1
fi
echo "$plainrep" | grep -q 'sampling:' && {
    echo "FAIL: unsampled report mentions sampling" >&2; exit 1; }

echo "== default-machine oracle (zero Machine vs explicit arch.Default reports)"
go test -run 'TestDefaultMachineMatchesSeed' ./internal/report

echo "== geometry sweep smoke (sweep -exp geometry, checker on; -sample)"
# sweep exits 1 on any violation. The 4d380 stall share reads the whole-
# window trace total, so a sampled sweep must print the unsampled line.
"$smoke/sweep" -exp geometry -window 1000000 >"$smoke/geom.out" 2>/dev/null
"$smoke/sweep" -exp geometry -window 1000000 -sample 50K:100K:250K >"$smoke/geom-sampled.out" 2>/dev/null
stall=$(grep 'memory-stall share:' "$smoke/geom.out") &&
    [ "$stall" = "$(grep 'memory-stall share:' "$smoke/geom-sampled.out")" ] || {
    echo "FAIL: sampled geometry sweep prints a different memory-stall share" >&2; exit 1; }

echo "== charosd smoke (panic isolation, 429 shed, SIGTERM drain)"
go build -o "$smoke/charosd" ./cmd/charosd
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

echo "== charosd load smoke (300 clients, sharded cache, adaptive pool)"
# A fresh daemon sized so the load overflows everything on purpose: the
# LRU cache (8 entries < 12 distinct configs), the job history (64 << 300
# jobs) and the admission queue (sheds retried by the clients). The load
# generator exits nonzero unless every client lands a byte-checked "done"
# job having seen only 200s and 429s.
laddr=127.0.0.1:18417
"$smoke/charosd" -addr "$laddr" -workers 1 -workers-max 4 -queue 4 \
    -shards 4 -cache-entries 8 -job-history 64 -retry-after 50ms \
    2> "$smoke/charosd-load.log" &
daemon=$!
"$smoke/charosd" -submit -addr "$laddr" -seed 9 -window 250000 -warmup 100000 >/dev/null
"$smoke/charosd" -load 300 -addr "$laddr" -load-hot 4 -load-distinct 8 \
    -window 250000 -warmup 100000 || {
    echo "FAIL: charosd load smoke lost clients or saw bad responses" >&2; exit 1; }
kill -TERM "$daemon"
wait "$daemon" || { echo "FAIL: charosd exited nonzero after load + SIGTERM" >&2; exit 1; }
daemon=""
grep -q 'drain complete: all accepted jobs resolved' "$smoke/charosd-load.log" || {
    echo "FAIL: post-load drain did not resolve all accepted jobs" >&2; exit 1; }

echo "== hit-filter identity (filtered vs -reference and checked runs, race detector)"
# The Go byte-identity oracles compare checked runs, where the filter is off
# on both sides; this test and the -reference smoke above are what see it.
go test -race -run 'TestHitFilterIdentity' ./internal/report

echo "== shed-race regression (service.Submit, race detector)"
go test -race -count=10 -run 'TestShedNeverAdmitsFollower' ./internal/service

echo "== checker probe property, one-pass sweep differential + hostile-client tests (race detector)"
go test -race -run 'TestLinesMatchesCacheQueries' ./internal/bus
go test -race -run 'TestFigure6OnePassMatchesReference' ./internal/cachesweep
go test -race -count=10 -run 'TestOversizedBodyRejected|TestSlowHeaderClientDropped' ./internal/service

echo "== benchmark smoke (bench/run.sh -smoke: every workload, both modes, output checks)"
bash bench/run.sh -smoke >/dev/null

echo "== benchmark harness unit tests"
(cd bench && go test -short ./...)

echo "ok"
