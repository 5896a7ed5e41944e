// Job lifecycle: terminal jobs releasing their pipelines, the bounded job
// registry, Wait's retry loop, coherent accepted-vs-resolved counters and
// the list, stats and metrics endpoints.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestTerminalJobsReleasePipelines: resolve must nil the heartbeat
// closure — it captures the run's entire simulator pipeline (~5 MB per
// job at this window), which completed jobs otherwise pin against GC
// for as long as the registry remembers them.
func TestTerminalJobsReleasePipelines(t *testing.T) {
	srv, cl := newTestServer(t, Options{Workers: 2})
	ctx := context.Background()

	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	base := heap()

	const jobs = 8
	for i := 0; i < jobs; i++ {
		st, err := cl.Submit(ctx, smallReq(int64(700+i)))
		if err != nil || st.State != StateDone {
			t.Fatalf("job %d: st=%+v err=%v", i, st, err)
		}
	}
	// Deterministic half: every terminal job must have dropped its
	// progress closure.
	for _, job := range srv.Jobs() {
		job.mu.Lock()
		pinned := job.progress != nil
		job.mu.Unlock()
		if pinned {
			t.Errorf("terminal job %s still holds its progress closure", job.ID)
		}
	}
	// Quantitative half: with the closures dropped, the retained growth
	// is registry entries + cached report strings (~KBs). A pinned
	// pipeline retains ~5 MB, so 8 pinned jobs would add ~40 MB; a
	// 16 MB budget cleanly separates the two while staying deaf to GC
	// noise.
	if grew := int64(heap()) - int64(base); grew > 16<<20 {
		t.Errorf("heap grew %d MB across %d terminal jobs — pipelines appear pinned", grew>>20, jobs)
	}
}

// TestJobHistoryCap: the registry retains at most JobHistory terminal
// jobs; older ones are evicted, their IDs 404, and the eviction counter
// moves, and the survivors list in submission order. Without the cap,
// the registry leaks on a long-running server.
func TestJobHistoryCap(t *testing.T) {
	const cap = 3
	srv, cl := newTestServer(t, Options{Workers: 1, JobHistory: cap})
	ctx := context.Background()

	var ids []string
	for i := 0; i < 8; i++ {
		st, err := cl.Submit(ctx, smallReq(int64(720+i)))
		if err != nil || st.State != StateDone {
			t.Fatalf("job %d: st=%+v err=%v", i, st, err)
		}
		ids = append(ids, st.ID)
	}
	waitFor(t, "registry trimmed to cap", func() bool {
		return len(srv.Jobs()) == cap
	})
	if got := srv.Stats().JobsEvicted; got != 8-cap {
		t.Errorf("jobs_evicted = %d, want %d", got, 8-cap)
	}
	// The survivors list in submission order.
	var kept []string
	for _, j := range srv.Jobs() {
		kept = append(kept, j.ID)
	}
	if !slices.Equal(kept, ids[8-cap:]) {
		t.Errorf("Jobs() = %v, want %v", kept, ids[8-cap:])
	}
	// Oldest IDs are gone (404), the newest survive.
	for i, id := range ids {
		resp, err := http.Get(cl.Base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		want := http.StatusOK
		if i < 8-cap {
			want = http.StatusNotFound
		}
		if resp.StatusCode != want {
			t.Errorf("job %s (index %d): status %d, want %d", id, i, resp.StatusCode, want)
		}
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestWaitRetriesThroughBlips: Wait (the status long-poll) must survive
// transport errors and 503s with the same capped-jittered retry loop
// Submit has — a long-poll blip must not orphan a running job.
func TestWaitRetriesThroughBlips(t *testing.T) {
	srv := New(Options{Workers: 1, Logf: t.Logf})
	// A flaky front end: the first status GET dies mid-response (raw
	// transport error), the second is a 503 with Retry-After, and only
	// then do requests reach the server.
	var statusGets atomic.Int64
	flaky := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/") {
			switch statusGets.Add(1) {
			case 1:
				conn, _, err := w.(http.Hijacker).Hijack()
				if err != nil {
					t.Errorf("hijack: %v", err)
					return
				}
				conn.Close() // client sees an abrupt EOF
				return
			case 2:
				w.Header().Set("Retry-After", "1")
				http.Error(w, "upstream hiccup", http.StatusServiceUnavailable)
				return
			}
		}
		srv.Handler().ServeHTTP(w, r)
	})
	hts := httptest.NewServer(flaky)
	t.Cleanup(hts.Close)
	cl := &Client{Base: hts.URL, BaseDelay: 5 * time.Millisecond, MaxDelay: 20 * time.Millisecond}

	st, err := cl.SubmitAsync(context.Background(), smallReq(741))
	if err != nil {
		t.Fatal(err)
	}
	got, err := cl.Wait(context.Background(), st.ID)
	if err != nil {
		t.Fatalf("Wait gave up through the blips: %v", err)
	}
	if got.State != StateDone {
		t.Fatalf("job ended %s (%s): %s", got.State, got.ErrorKind, got.Error)
	}
	if n := statusGets.Load(); n < 3 {
		t.Errorf("status GET reached the flaky front end %d times, want >= 3 (two blips + success)", n)
	}
	// A 404 stays non-retryable: no retry storm on a genuinely missing
	// (e.g. history-evicted) job.
	if _, err := cl.Status(context.Background(), "j999999", false); err == nil {
		t.Error("Status of a missing job succeeded")
	} else {
		var remote *RemoteError
		if !errors.As(err, &remote) || remote.Code != http.StatusNotFound {
			t.Errorf("missing job error = %v, want 404", err)
		}
	}
	srv.Drain()
}

// TestStatsNeverOverResolved: under concurrent submissions and fast
// dedup resolution, no Stats snapshot may show more resolved jobs
// (completed+failed+canceled) than accepted ones — the acceptance is
// counted inside the admission critical section precisely so this
// invariant holds.
func TestStatsNeverOverResolved(t *testing.T) {
	srv, cl := newTestServer(t, Options{Workers: 2})
	ctx := context.Background()

	stop := make(chan struct{})
	var violations atomic.Int64
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := srv.Stats()
			if st.Completed+st.Failed+st.Canceled > st.Accepted {
				violations.Add(1)
			}
		}
	}()

	var wg sync.WaitGroup
	for round := 0; round < 3; round++ {
		req := smallReq(int64(760 + round))
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if st, err := cl.Submit(ctx, req); err != nil || st.State != StateDone {
					t.Errorf("submit: st=%+v err=%v", st, err)
				}
			}()
		}
		wg.Wait()
	}
	close(stop)
	if n := violations.Load(); n > 0 {
		t.Errorf("observed %d snapshots with resolved > accepted", n)
	}
	if st := srv.Stats(); st.Completed != 24 || st.Accepted != 24 {
		t.Errorf("final stats %+v, want 24/24", st)
	}
}

// TestMetricsEndpoint: /v1/metrics returns a consistent snapshot — one
// store aggregate and no per-shard list, ordered quantiles, and counters
// that reflect the traffic just served.
func TestMetricsEndpoint(t *testing.T) {
	_, cl := newTestServer(t, Options{Workers: 2})
	ctx := context.Background()
	req := smallReq(780)
	for i := 0; i < 3; i++ { // 1 miss + 2 pure hits
		if st, err := cl.Submit(ctx, req); err != nil || st.State != StateDone {
			t.Fatalf("st=%+v err=%v", st, err)
		}
	}

	resp, err := http.Get(cl.Base + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(body, &keys); err != nil {
		t.Fatal(err)
	}
	if _, ok := keys["shards"]; ok {
		t.Error(`/v1/metrics still carries a "shards" key`)
	}
	var m Metrics
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	if m.Global.Hits != 2 || m.Global.Misses != 1 || m.Global.Resolved != 3 || m.Global.Entries != 1 {
		t.Errorf("global = %+v, want 2 hits / 1 miss / 3 resolved / 1 entry", m.Global)
	}
	if m.Global.P50MS > m.Global.P90MS || m.Global.P90MS > m.Global.P99MS {
		t.Errorf("quantiles out of order: %+v", m.Global)
	}
	if m.Global.P99MS <= 0 || m.Global.ThroughputPerSec <= 0 {
		t.Errorf("latency/throughput not populated: %+v", m.Global)
	}
	if m.Workers.Live != 2 {
		t.Errorf("worker metrics %+v, want fixed pool of 2", m.Workers)
	}
	if m.JobsRetained != 3 {
		t.Errorf("jobs_retained = %d, want 3", m.JobsRetained)
	}
	if m.QueueDepth <= 0 {
		t.Errorf("queue depth missing from metrics: %+v", m)
	}
}

// TestListAndStatsEndpoints: GET /v1/jobs lists every job's status in
// submission order, cache hits included, and GET /v1/stats carries the
// counters of the traffic just served.
func TestListAndStatsEndpoints(t *testing.T) {
	_, cl := newTestServer(t, Options{Workers: 1})
	ctx := context.Background()
	var want []JobStatus
	for _, seed := range []int64{790, 790, 791} { // miss, hit, miss
		st, err := cl.Submit(ctx, smallReq(seed))
		if err != nil || st.State != StateDone {
			t.Fatalf("seed %d: st=%+v err=%v", seed, st, err)
		}
		want = append(want, st)
	}

	get := func(path string, v any) {
		t.Helper()
		resp, err := http.Get(cl.Base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
			t.Fatalf("GET %s: %d %q", path, resp.StatusCode, resp.Header.Get("Content-Type"))
		}
		if err := jsonDecode(resp, v); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
	}

	var list []JobStatus
	get("/v1/jobs", &list)
	if len(list) != len(want) {
		t.Fatalf("GET /v1/jobs listed %d jobs, want %d", len(list), len(want))
	}
	for i, st := range list {
		if st.ID != want[i].ID || st.Hash != want[i].Hash || st.Seed != want[i].Seed ||
			st.State != StateDone || st.Report != want[i].Report {
			t.Errorf("job %d listed as %+v, want %+v", i, st, want[i])
		}
	}
	if list[0].Hash != list[1].Hash || list[0].ID == list[1].ID {
		t.Errorf("the cache hit is not its own job over the same config: %q/%q, %q/%q",
			list[0].ID, list[0].Hash, list[1].ID, list[1].Hash)
	}

	var stats Stats
	get("/v1/stats", &stats)
	if want := (Stats{Accepted: 3, Completed: 3, CacheHits: 1, Workers: 1}); stats != want {
		t.Errorf("GET /v1/stats = %+v, want %+v", stats, want)
	}
}
