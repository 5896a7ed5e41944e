package service

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/report"
)

// smallReq is a job small enough for the race detector.
func smallReq(seed int64) Request {
	return Request{Workload: "Pmake", Seed: seed, Window: 400_000, Warmup: 200_000}
}

// longReq occupies a worker for seconds — drain/shed tests cancel it.
func longReq(seed int64) Request {
	return Request{Workload: "Pmake", Seed: seed, Window: 500_000_000}
}

func newTestServer(t *testing.T, opts Options) (*Server, *Client) {
	t.Helper()
	if opts.Logf == nil {
		opts.Logf = t.Logf
	}
	srv := New(opts)
	hts := httptest.NewUnstartedServer(nil)
	hts.Config = srv.HTTPServer()
	hts.Start()
	t.Cleanup(hts.Close)
	cl := &Client{Base: hts.URL, BaseDelay: 10 * time.Millisecond}
	return srv, cl
}

// TestReportMatchesSerialRun: the service's payload for a config must be
// byte-identical to report.Single over a plain serial core.Run.
func TestReportMatchesSerialRun(t *testing.T) {
	req := smallReq(21)
	cfg, err := req.Config()
	if err != nil {
		t.Fatal(err)
	}
	want := report.Single(core.Run(cfg))

	_, cl := newTestServer(t, Options{Workers: 2})
	st, err := cl.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("job ended %s (%s): %s", st.State, st.ErrorKind, st.Error)
	}
	if st.Report != want {
		t.Errorf("service report diverged from serial run:\n--- serial\n%s\n--- service\n%s", want, st.Report)
	}
	if st.Hash != cfg.Hash() {
		t.Errorf("status hash %q != config hash %q", st.Hash, cfg.Hash())
	}
}

// TestPanicIsolationOverHTTP: a forced-panic job resolves as a
// structured failure while a concurrent healthy job completes, and the
// worker pool survives to run more jobs.
func TestPanicIsolationOverHTTP(t *testing.T) {
	srv, cl := newTestServer(t, Options{Workers: 1, TestHooks: true})
	ctx := context.Background()

	bad := smallReq(31)
	bad.TestPanic = true
	st, err := cl.Submit(ctx, bad)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateFailed || st.ErrorKind != "panic" {
		t.Fatalf("panic job ended state=%s kind=%s err=%q", st.State, st.ErrorKind, st.Error)
	}
	if st.Error == "" {
		t.Error("panic job carried no structured error")
	}

	// The single worker must still be alive, and the forced panic must not
	// have poisoned the cache entry for the honest version of the same
	// config (same seed, no test hook).
	st, err = cl.Submit(ctx, smallReq(31))
	if err != nil || st.State != StateDone {
		t.Fatalf("healthy job after a panic: st=%+v err=%v", st, err)
	}
	if got := srv.Stats(); got.Failed != 1 || got.Completed != 1 {
		t.Errorf("stats %+v, want 1 failed + 1 completed", got)
	}
}

// TestDeadlineJobThenCleanRerun: a job over its budget resolves as a
// structured deadline cancellation; the canceled outcome is evicted, so
// resubmitting the same config re-runs it cleanly.
func TestDeadlineJobThenCleanRerun(t *testing.T) {
	srv, cl := newTestServer(t, Options{Workers: 1})
	ctx := context.Background()

	req := Request{Workload: "Multpgm", Seed: 41, Window: 500_000_000, TimeoutMS: 30}
	st, err := cl.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCanceled || st.ErrorKind != "deadline" {
		t.Fatalf("deadline job ended state=%s kind=%s err=%q", st.State, st.ErrorKind, st.Error)
	}

	// Same canonical config (TimeoutMS is not part of the hash), generous
	// budget: must execute fresh, not replay the canceled outcome.
	req.Window = 400_000
	req.TimeoutMS = 0
	st, err = cl.Submit(ctx, req)
	if err != nil || st.State != StateDone {
		t.Fatalf("rerun after deadline: st=%+v err=%v", st, err)
	}
	if got := srv.Stats(); got.Canceled != 1 || got.Completed != 1 {
		t.Errorf("stats %+v, want 1 canceled + 1 completed", got)
	}
}

// TestShedsWith429WhenSaturated: with the single worker pinned and the
// queue full, further submissions shed as ErrSaturated / HTTP 429 with a
// Retry-After hint — they never block or grow the queue.
func TestShedsWith429WhenSaturated(t *testing.T) {
	srv, cl := newTestServer(t, Options{
		Workers: 1, QueueDepth: 1, RetryAfter: 2 * time.Second,
		DrainFinish: false, DrainTimeout: 10 * time.Second,
	})
	defer srv.Drain() // cancels the pinned long runs

	// Pin the worker: submit one long run and wait until it is actually
	// executing (so it no longer occupies the queue slot), then fill the
	// one slot with a second long run. Every further submission must shed.
	pinned, err := srv.Submit(longReq(51))
	if err != nil {
		t.Fatal(err)
	}
	for pinned.Snapshot().State != StateRunning {
		time.Sleep(time.Millisecond)
	}
	if _, err := srv.Submit(longReq(52)); err != nil {
		t.Fatalf("queue-filler rejected: %v", err)
	}
	if _, err := srv.Submit(longReq(53)); !errors.Is(err, ErrSaturated) {
		t.Fatalf("saturated submit returned %v, want ErrSaturated", err)
	}

	// Over HTTP the shed is a 429 with Retry-After (no-retry client, so
	// the first response comes straight back).
	noRetry := &Client{Base: cl.Base, Retries: -1}
	st, err := noRetry.SubmitAsync(context.Background(), longReq(99))
	var remote *RemoteError
	if err == nil {
		t.Fatalf("saturated submit over HTTP succeeded: %+v", st)
	}
	if !errors.As(err, &remote) || remote.Code != http.StatusTooManyRequests {
		t.Fatalf("HTTP shed error = %v, want 429", err)
	}
	if srv.Stats().Shed == 0 {
		t.Error("shed counter never moved")
	}
}

// TestShedNeverAdmitsFollower: with the worker pinned and the depth-1 queue
// full, a submission is shed while a second one of the same config arrives.
// The second must be shed too (or run, had a slot opened) — never join the
// first's doomed singleflight claim, be accepted with 202 and then end
// "canceled: admission queue full". What rules that out is that the claim
// is dropped inside the admission critical section that made it. The test
// polls the store until it catches the claim there, keeps the store
// locked so the shedding Submit can get no further than store.Abandon,
// and requires admission to stay closed meanwhile. Catching
// takes a few rounds; every round, caught or not, a second Submit of the
// same config follows and both must be shed.
func TestShedNeverAdmitsFollower(t *testing.T) {
	// Spare processors: the pinned run occupies one, and the poller must
	// run beside the submitter to catch its claim.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	srv, _ := newTestServer(t, Options{
		Workers: 1, QueueDepth: 1, Logf: func(string, ...any) {},
		DrainFinish: false, DrainTimeout: 10 * time.Second,
	})
	defer srv.Drain() // cancels the pinned long runs

	pinned, err := srv.Submit(longReq(61))
	if err != nil {
		t.Fatal(err)
	}
	for pinned.Snapshot().State != StateRunning {
		time.Sleep(time.Millisecond)
	}
	if _, err := srv.Submit(longReq(62)); err != nil {
		t.Fatalf("queue-filler rejected: %v", err)
	}

	caught := false
	for round := 0; round < 2000 && !caught && !t.Failed(); round++ {
		req := longReq(int64(1000 + round))
		cfg, err := req.Config()
		if err != nil {
			t.Fatal(err)
		}
		hash := cfg.Hash()
		shed := make(chan error, 2)
		submit := func() {
			_, err := srv.Submit(req)
			shed <- err
		}
		results := 0
		collect := func(err error) {
			results++
			if !errors.Is(err, ErrSaturated) {
				t.Errorf("round %d: Submit returned %v, want ErrSaturated", round, err)
			}
		}
		go submit()
		for results == 0 && !caught {
			srv.store.mu.Lock()
			if _, caught = srv.store.entries[hash]; caught {
				// Give the shedding Submit time to reach Abandon: it must
				// not have reopened admission on the way.
				time.Sleep(5 * time.Millisecond)
				if srv.mu.TryLock() {
					srv.mu.Unlock()
					t.Errorf("round %d: admission reopened while the shed claim is still in the store", round)
				}
			}
			srv.store.mu.Unlock()
			select {
			case err := <-shed:
				collect(err)
			default:
			}
		}
		go submit() // the second submission of the same config
		for results < 2 {
			collect(<-shed)
		}
	}
	if !caught {
		t.Log("never caught a shed claim in the store; only the outcomes were checked")
	}
	if st := srv.Stats(); st.Accepted != 2 || st.Canceled != 0 {
		t.Errorf("stats %+v, want exactly the 2 pinned jobs accepted and none canceled", st)
	}
}

// TestDrainResolvesEveryAcceptedJob: SIGTERM semantics — admission stops
// (503 on readyz and submit), and every accepted job reaches a terminal
// state before Drain returns.
func TestDrainResolvesEveryAcceptedJob(t *testing.T) {
	srv, cl := newTestServer(t, Options{
		Workers: 2, QueueDepth: 16,
		DrainFinish: false, DrainTimeout: 10 * time.Second,
	})
	ctx := context.Background()

	// A mix: two long runs (will be canceled by the drain) and two queued
	// small ones.
	for seed := int64(61); seed <= 64; seed++ {
		if _, err := srv.Submit(longReq(seed)); err != nil {
			t.Fatal(err)
		}
	}
	if n := srv.Stats().Workers; n != 2 {
		t.Errorf("Stats().Workers = %d while serving, want the pool of 2", n)
	}
	srv.Drain()

	if !srv.Draining() {
		t.Error("server not draining after Drain")
	}
	if n, live := srv.Stats().Workers, srv.Metrics().Workers.Live; n != 0 || live != 0 {
		t.Errorf("after Drain: Stats().Workers = %d, Metrics().Workers.Live = %d, want 0", n, live)
	}
	for _, job := range srv.Jobs() {
		st := job.Snapshot()
		if st.State != StateDone && st.State != StateFailed && st.State != StateCanceled {
			t.Errorf("job %s left unresolved in state %s", st.ID, st.State)
		}
	}
	stats := srv.Stats()
	if got := stats.Completed + stats.Failed + stats.Canceled; got != stats.Accepted {
		t.Errorf("%d of %d accepted jobs resolved", got, stats.Accepted)
	}

	// Post-drain: readyz 503, submissions 503.
	resp, err := http.Get(cl.Base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz after drain = %d, want 503", resp.StatusCode)
	}
	noRetry := &Client{Base: cl.Base, Retries: -1}
	_, err = noRetry.SubmitAsync(ctx, smallReq(65))
	var remote *RemoteError
	if !errors.As(err, &remote) || remote.Code != http.StatusServiceUnavailable {
		t.Errorf("submit after drain = %v, want 503", err)
	}
}

// TestSingleflightDedup: N concurrent submissions of one config execute
// once and all receive the identical report.
func TestSingleflightDedup(t *testing.T) {
	srv, cl := newTestServer(t, Options{Workers: 4})
	const n = 8
	req := smallReq(71)
	reports := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := cl.Submit(context.Background(), req)
			if err == nil && st.State == StateDone {
				reports[i] = st.Report
			}
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if reports[i] == "" || reports[i] != reports[0] {
			t.Fatalf("submission %d got a different (or empty) report", i)
		}
	}
	stats := srv.Stats()
	if stats.CacheHits != n-1 {
		t.Errorf("cache hits = %d, want %d (exactly one execution)", stats.CacheHits, n-1)
	}
	if stats.Completed != n {
		t.Errorf("completed = %d, want %d (every submission resolved)", stats.Completed, n)
	}
}

// TestJobMetricsThroughput: /v1/metrics lists each job's simulated
// Mcycles/s, and a cache hit honestly reports zero — it executed nothing.
func TestJobMetricsThroughput(t *testing.T) {
	srv, cl := newTestServer(t, Options{Workers: 1})
	ctx := context.Background()
	st, err := cl.Submit(ctx, smallReq(32))
	if err != nil || st.State != StateDone || st.MCyclesPerSec <= 0 {
		t.Fatalf("leader: st=%+v err=%v, want done with positive throughput", st, err)
	}
	st2, err := cl.Submit(ctx, smallReq(32))
	if err != nil || st2.State != StateDone || st2.Report != st.Report {
		t.Fatalf("cache hit: st=%+v err=%v, want the leader's report", st2, err)
	}
	if st2.MCyclesPerSec != 0 {
		t.Errorf("cache hit inherited throughput it never earned: %+v", st2)
	}
	m := srv.Metrics()
	if len(m.Jobs) != 2 || m.Jobs[0].MCyclesPerSec <= 0 || m.Jobs[1].MCyclesPerSec != 0 {
		t.Errorf("metrics jobs %+v: want the leader's positive throughput, then zero", m.Jobs)
	}
}

// TestClientRetriesThroughShed: a client whose first attempts are shed
// backs off and lands once capacity frees up.
func TestClientRetriesThroughShed(t *testing.T) {
	srv, cl := newTestServer(t, Options{Workers: 1, QueueDepth: 1, RetryAfter: 20 * time.Millisecond})
	_ = srv
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	// Saturate with short jobs, then submit one more: early attempts shed,
	// the retry loop must push it through as the backlog clears.
	var wg sync.WaitGroup
	for seed := int64(81); seed <= 83; seed++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			cl.Submit(ctx, smallReq(seed))
		}(seed)
	}
	st, err := cl.Submit(ctx, smallReq(89))
	wg.Wait()
	if err != nil {
		t.Fatalf("retrying submit failed: %v", err)
	}
	if st.State != StateDone {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}
}

// TestWatchdogKillsFrozenHeartbeat drives the watchdog directly with a
// heartbeat that never advances.
func TestWatchdogKillsFrozenHeartbeat(t *testing.T) {
	srv := New(Options{
		Workers: 1, StallTimeout: 30 * time.Millisecond, WatchdogPoll: 5 * time.Millisecond,
		Logf: t.Logf,
	})
	defer srv.Drain()
	job := &Job{ID: "frozen", done: make(chan struct{})}
	job.progress = func() arch.Cycles { return 42 } // alive but wedged
	ctx, cancel := context.WithCancelCause(context.Background())
	runDone := make(chan struct{})
	defer close(runDone)
	go srv.watchdog(ctx, cancel, job, runDone)
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("watchdog never fired on a frozen heartbeat")
	}
	if cause := context.Cause(ctx); !errors.Is(cause, ErrStalled) {
		t.Errorf("kill cause = %v, want ErrStalled", cause)
	}
	if errorKind(&core.CanceledError{Cause: ErrStalled}) != "stalled" {
		t.Error("stalled cancellations misclassified")
	}
}

func TestRequestValidation(t *testing.T) {
	srv, cl := newTestServer(t, Options{Workers: 1})
	if _, err := srv.Submit(Request{Workload: "NoSuchWorkload"}); err == nil {
		t.Error("bogus workload admitted")
	}
	bad := smallReq(1)
	bad.TestPanic = true // server runs without test hooks
	if _, err := srv.Submit(bad); err == nil {
		t.Error("test_panic admitted without test hooks")
	}
	// Over HTTP these are 400s, which the client must not retry.
	noRetry := &Client{Base: cl.Base}
	_, err := noRetry.SubmitAsync(context.Background(), Request{Workload: "NoSuchWorkload"})
	var remote *RemoteError
	if !errors.As(err, &remote) || remote.Code != http.StatusBadRequest {
		t.Errorf("bogus workload over HTTP = %v, want 400", err)
	}
}
