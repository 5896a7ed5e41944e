package service

import (
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/report"
)

// TestLoadThousandsOfClients is the PR 7 acceptance load test: 2000
// concurrent clients hammer one server over real HTTP with a mix of
// duplicate (hot), distinct (cold) and shed-retried traffic, sized so
// both the LRU result cache and the job-history registry overflow and
// evict under load. It asserts, all at once and under -race:
//
//   - every client lands a terminal "done" job whose report is
//     byte-identical to a serial core.Run of the same config;
//   - no Stats snapshot ever shows a counter decreasing, or more
//     resolved jobs than accepted ones;
//   - the post-drain heap returns to within a fixed budget of the
//     baseline (terminal jobs must not pin simulator pipelines) and no
//     goroutines leak;
//   - the final /v1/metrics snapshot is internally consistent (shards
//     sum to the global aggregate, ordered quantiles).
func TestLoadThousandsOfClients(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping 2000-client load test in -short mode")
	}
	const (
		clients     = 2000
		hotConfigs  = 4  // 3/4 of clients dogpile these
		coldConfigs = 24 // the rest spread over these
	)
	newReq := func(i int) Request {
		// i/4 decorrelates the seed from the i%4 hot/cold split, so the
		// cold quarter really does spread over all coldConfigs seeds.
		seed := int64(1 + (i/4)%hotConfigs)
		if i%4 == 0 {
			seed = int64(100_000 + (i/4)%coldConfigs)
		}
		return Request{Workload: "Pmake", Seed: seed, Window: 250_000, Warmup: 100_000}
	}

	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	baseHeap := heap()
	baseGoroutines := runtime.NumGoroutine()

	srv := New(Options{
		Workers:       2,
		MaxWorkers:    4,
		QueueDepth:    8,
		Shards:        4,
		CacheEntries:  16, // < hot+cold distinct configs -> LRU evictions
		JobHistory:    64, // << total jobs -> registry evictions
		RetryAfter:    20 * time.Millisecond,
		AdaptInterval: 50 * time.Millisecond,
		ScaleCooldown: 100 * time.Millisecond,
		Logf:          func(string, ...any) {}, // 2000 clients would drown t.Logf
	})
	hts := httptest.NewUnstartedServer(nil)
	hts.Config = srv.HTTPServer()
	hts.Start()
	// The shared transport bounds sockets; the 2000 clients are
	// goroutines multiplexed over it, exactly like a fleet behind a
	// connection pool.
	transport := &http.Transport{MaxIdleConnsPerHost: 256, MaxConnsPerHost: 512}
	httpc := &http.Client{Transport: transport}
	cl := &Client{
		Base: hts.URL, HTTP: httpc,
		Retries:   40, // shed storms are expected; clients must ride them out
		BaseDelay: 5 * time.Millisecond,
		MaxDelay:  200 * time.Millisecond,
	}

	// Monotone-counter watchdog: samples Stats concurrently with the
	// whole run.
	stopWatch := make(chan struct{})
	watchDone := make(chan struct{})
	var monotoneViolations, overResolved atomic.Int64
	go func() {
		defer close(watchDone)
		var prev Stats
		for {
			select {
			case <-stopWatch:
				return
			default:
			}
			st := srv.Stats()
			if st.Accepted < prev.Accepted || st.Completed < prev.Completed ||
				st.Failed < prev.Failed || st.Canceled < prev.Canceled ||
				st.Shed < prev.Shed || st.CacheHits < prev.CacheHits ||
				st.CacheEvictions < prev.CacheEvictions || st.JobsEvicted < prev.JobsEvicted {
				monotoneViolations.Add(1)
			}
			if st.Completed+st.Failed+st.Canceled > st.Accepted {
				overResolved.Add(1)
			}
			prev = st
			time.Sleep(500 * time.Microsecond)
		}
	}()

	// Lazily-built serial oracle: one plain core.Run per distinct config.
	var oracleMu sync.Mutex
	oracle := map[int64]string{}
	oracleReport := func(req Request) string {
		oracleMu.Lock()
		defer oracleMu.Unlock()
		if r, ok := oracle[req.Seed]; ok {
			return r
		}
		cfg, err := req.Config()
		if err != nil {
			t.Error(err)
			return ""
		}
		r := report.Single(core.Run(cfg))
		oracle[req.Seed] = r
		return r
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	var landed, mismatched, clientErrs atomic.Int64
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := newReq(i)
			st, err := cl.Submit(ctx, req)
			if err != nil {
				clientErrs.Add(1)
				t.Errorf("client %d: %v", i, err)
				return
			}
			if st.State != StateDone {
				clientErrs.Add(1)
				t.Errorf("client %d: job ended %s (%s): %s", i, st.State, st.ErrorKind, st.Error)
				return
			}
			landed.Add(1)
			if st.Report != oracleReport(req) {
				mismatched.Add(1)
				t.Errorf("client %d (seed %d): report diverged from serial core.Run", i, req.Seed)
			}
		}(i)
	}
	wg.Wait()

	if n := landed.Load(); n != clients {
		t.Errorf("%d/%d clients landed a done job (%d errors, %d mismatches)",
			n, clients, clientErrs.Load(), mismatched.Load())
	}
	st := srv.Stats()
	if st.Accepted < clients {
		t.Errorf("accepted %d jobs for %d clients", st.Accepted, clients)
	}
	if st.Failed != 0 || st.Canceled != 0 {
		t.Errorf("unexpected failures under load: %+v", st)
	}
	if st.CacheHits == 0 {
		t.Error("duplicate-heavy traffic produced no cache hits")
	}
	if st.CacheEvictions == 0 {
		t.Errorf("%d distinct configs over a %d-entry cache produced no LRU evictions", hotConfigs+coldConfigs, 16)
	}
	if st.JobsEvicted == 0 {
		t.Errorf("%d jobs over a 64-job history produced no registry evictions", st.Accepted)
	}

	// Final metrics snapshot must be internally consistent.
	m := srv.Metrics()
	var hits, misses, resolved int64
	for _, sh := range m.Shards {
		hits += sh.Hits
		misses += sh.Misses
		resolved += sh.Resolved
	}
	if hits != m.Global.Hits || misses != m.Global.Misses || resolved != m.Global.Resolved {
		t.Errorf("shard sums (h=%d m=%d r=%d) != global %+v", hits, misses, resolved, m.Global)
	}
	if m.Global.P50MS > m.Global.P90MS || m.Global.P90MS > m.Global.P99MS {
		t.Errorf("quantiles out of order: %+v", m.Global)
	}
	if m.Global.Resolved < int64(clients) {
		t.Errorf("latency histogram saw %d resolutions for %d clients", m.Global.Resolved, clients)
	}
	if m.JobsRetained > 64 {
		t.Errorf("registry retains %d jobs, cap is 64", m.JobsRetained)
	}

	srv.Drain()
	close(stopWatch)
	<-watchDone
	if n := monotoneViolations.Load(); n > 0 {
		t.Errorf("%d Stats snapshots saw a counter decrease", n)
	}
	if n := overResolved.Load(); n > 0 {
		t.Errorf("%d Stats snapshots saw resolved > accepted", n)
	}
	if after := srv.Stats(); after.Completed != after.Accepted {
		t.Errorf("drain left work unresolved: %+v", after)
	}

	// Zero goroutine leaks and bounded memory once the fleet is gone.
	hts.Close()
	transport.CloseIdleConnections()
	waitFor(t, "goroutines to return to baseline", func() bool {
		runtime.GC() // finalizers on dead conns
		return runtime.NumGoroutine() <= baseGoroutines+10
	})
	if grew := int64(heap()) - int64(baseHeap); grew > 32<<20 {
		t.Errorf("heap grew %d MB across %d jobs — results or pipelines are leaking", grew>>20, st.Accepted)
	}
}
