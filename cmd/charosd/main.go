// Command charosd is the experiment service: an HTTP/JSON server that
// runs deterministic characterization jobs submitted by clients, with
// cooperative cancellation, per-run panic isolation, a progress
// watchdog, bounded admission (429 + Retry-After under saturation), a
// content-addressed result cache with singleflight dedup, and a
// SIGTERM-triggered drain that resolves every accepted job before the
// process exits.
//
// Server mode:
//
//	charosd [-addr :8416] [-workers N] [-queue N]
//	        [-cache-entries N] [-job-history N]
//	        [-job-timeout D] [-stall-timeout D]
//	        [-drain-policy finish|cancel] [-drain-timeout D]
//	        [-retry-after D] [-test-hooks]
//
// A fixed pool of -workers runs the jobs. The result store is one LRU
// that keeps exactly -cache-entries completed results; GET /v1/metrics
// exposes its hit/miss/eviction counters plus p50/p90/p99
// submit-to-terminal latency and throughput, and a per-job list with
// each run's simulated-Mcycles/s.
//
// Client mode (submit one job and wait):
//
//	charosd -submit [-addr host:port] [-workload Pmake] [-seed N]
//	        [-window N] [-warmup N] [-sample W:L:P] [-ncpu N]
//	        [-machine 4d340|4d380] [-check]
//	        [-timeout D] [-retries N] [-nowait] [-test-panic]
//
// Load-generator mode (fire N concurrent clients and report):
//
//	charosd -load N [-addr host:port] [-workload Pmake] [-window N]
//	        [-warmup N] [-load-hot K] [-load-distinct K]
//
// Submission is idempotent: results are content-addressed by the
// canonical config hash, so a client that was shed (or lost its
// connection) simply resubmits — with capped exponential backoff and
// jitter — and lands on the cached result if the run already happened.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/machineflag"
	"repro/internal/service"
)

// flags are charosd's flags.
type flags struct {
	// Server mode.
	addr, drainPolicy                                  *string
	workers                                            *int
	cacheEntries, jobHistory, queue                    *int
	retryAfter, jobTimeout, stallTimeout, drainTimeout *time.Duration
	testHooks                                          *bool
	// The job that -submit and -load send.
	wl, machine, sampleSpec *string
	ncpu                    *int
	seed, window, warmup    *int64
	check                   *bool
	// Client modes.
	submit, nowait, testPanic            *bool
	timeout                              *time.Duration
	retries, load, loadHot, loadDistinct *int
}

func newFlags(fs *flag.FlagSet) *flags {
	return &flags{
		addr:         fs.String("addr", ":8416", "listen address (server) or server address (with -submit)"),
		workers:      fs.Int("workers", 0, "worker-pool size (0 = GOMAXPROCS)"),
		cacheEntries: fs.Int("cache-entries", 4096, "completed results kept resident; beyond it the least recently used is evicted"),
		jobHistory:   fs.Int("job-history", 4096, "terminal jobs retained in the registry; older IDs return 404"),
		queue:        fs.Int("queue", 64, "admission-queue depth; beyond it submissions shed with 429"),
		retryAfter:   fs.Duration("retry-after", time.Second, "Retry-After hint advertised on shed"),
		jobTimeout:   fs.Duration("job-timeout", 0, "default per-job wall-clock cap (0 = none)"),
		stallTimeout: fs.Duration("stall-timeout", 10*time.Second,
			"watchdog: kill runs whose simulated-cycle heartbeat stalls this long (<0 disables)"),
		drainPolicy: fs.String("drain-policy", "finish",
			"SIGTERM drain policy: finish (run accepted jobs to completion) or cancel"),
		drainTimeout: fs.Duration("drain-timeout", 30*time.Second,
			"drain hard deadline; past it in-flight runs are force-canceled (still resolved)"),
		testHooks: fs.Bool("test-hooks", false, "enable test hooks (test_panic jobs) — never in production"),

		submit:  fs.Bool("submit", false, "client mode: submit one job and print its report"),
		wl:      fs.String("workload", "Pmake", "job workload: Pmake, Multpgm, Oracle, OracleStd"),
		machine: fs.String("machine", "", "job machine preset: 4d340 (default), 4d380"),
		ncpu:    fs.Int("ncpu", 0, "job CPU count (0 = preset's count)"),
		seed:    fs.Int64("seed", 1, "job seed"),
		window: machineflag.CyclesFlag(fs, "window", 0,
			"job traced window in 30ns cycles, K/M/G suffixes ok (0 = default)"),
		warmup: machineflag.CyclesFlag(fs, "warmup", 0,
			"job warmup in 30ns cycles, K/M/G suffixes ok (0 = default)"),
		sampleSpec: fs.String("sample", "",
			"job sampling schedule \"warmup:len:period\" in cycles (e.g. 100K:200K:10M); empty = exact counts only, no interval estimate"),
		check:        fs.Bool("check", false, "run the job under the invariant checker"),
		timeout:      fs.Duration("timeout", 0, "client: job + wait deadline (0 = none); sent as the job's budget"),
		retries:      fs.Int("retries", 0, "client: retry budget after shed/transport errors (0 = default 8, negative = none)"),
		nowait:       fs.Bool("nowait", false, "client: return after admission instead of waiting for the result"),
		testPanic:    fs.Bool("test-panic", false, "client: submit a job that panics mid-run (server must run -test-hooks)"),
		load:         fs.Int("load", 0, "load-generator mode: fire N concurrent clients at the server and report"),
		loadHot:      fs.Int("load-hot", 4, "load mode: distinct hot configs shared by 3/4 of the clients (dedup path)"),
		loadDistinct: fs.Int("load-distinct", 16, "load mode: distinct cold configs spread over the rest (eviction path)"),
	}
}

// loadRequest is the job every -load client submits, before the load
// generator sets its seed.
func (f *flags) loadRequest() service.Request {
	return service.Request{
		Workload: *f.wl, Machine: *f.machine, NCPU: *f.ncpu,
		Window: *f.window, Warmup: *f.warmup, Sample: *f.sampleSpec,
	}
}

// submitRequest is the one job -submit sends.
func (f *flags) submitRequest() service.Request {
	req := f.loadRequest()
	req.Seed, req.Check = *f.seed, *f.check
	req.TimeoutMS, req.TestPanic = int64(*f.timeout/time.Millisecond), *f.testPanic
	return req
}

// options resolves the server-mode flags.
func (f *flags) options() (service.Options, error) {
	if *f.drainPolicy != "finish" && *f.drainPolicy != "cancel" {
		return service.Options{}, fmt.Errorf("bad -drain-policy %q (want finish or cancel)", *f.drainPolicy)
	}
	return service.Options{
		Workers:      *f.workers,
		CacheEntries: *f.cacheEntries, JobHistory: *f.jobHistory,
		QueueDepth: *f.queue, RetryAfter: *f.retryAfter,
		JobTimeout: *f.jobTimeout, StallTimeout: *f.stallTimeout,
		DrainFinish: *f.drainPolicy == "finish", DrainTimeout: *f.drainTimeout,
		TestHooks: *f.testHooks,
	}, nil
}

func main() { os.Exit(run()) }

func run() int {
	f := newFlags(flag.CommandLine)
	flag.Parse()

	if *f.load > 0 {
		return loadMain(*f.addr, *f.load, *f.loadHot, *f.loadDistinct, f.loadRequest())
	}
	if *f.submit {
		return clientMain(*f.addr, f.submitRequest(), *f.timeout, *f.retries, *f.nowait)
	}

	opts, err := f.options()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	logger := log.New(os.Stderr, "charosd: ", log.LstdFlags|log.Lmicroseconds)
	opts.Logf = logger.Printf
	srv := service.New(opts)

	ln, err := net.Listen("tcp", *f.addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	httpSrv := srv.HTTPServer()
	logger.Printf("serving on %s (workers=%d cache=%d history=%d queue=%d drain=%s/%s)",
		ln.Addr(), *f.workers, *f.cacheEntries, *f.jobHistory,
		*f.queue, *f.drainPolicy, *f.drainTimeout)

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	select {
	case got := <-sig:
		logger.Printf("signal %v: draining", got)
		// Keep serving status/wait requests while the drain resolves the
		// accepted jobs, then shut the listener down gracefully.
		srv.Drain()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		httpSrv.Shutdown(ctx)
		logger.Printf("exit")
		return 0
	case err := <-serveErr:
		if !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return 0
	}
}

// clientMain submits one job and renders the outcome. Exit codes: 0 job
// done, 1 job failed/canceled (structured error printed), 2 bad usage,
// 3 could not submit (shed/unreachable after retries).
func clientMain(addr string, req service.Request, timeout time.Duration, retries int, nowait bool) int {
	base := addr
	if len(base) > 0 && base[0] == ':' {
		base = "127.0.0.1" + base
	}
	cl := &service.Client{Base: "http://" + base, Retries: retries}
	ctx := context.Background()
	if timeout > 0 {
		// Leave headroom over the job budget so the structured job error
		// (provenance) reaches us rather than a raw client deadline.
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout+30*time.Second)
		defer cancel()
	}
	var st service.JobStatus
	var err error
	if nowait {
		st, err = cl.SubmitAsync(ctx, req)
	} else {
		st, err = cl.Submit(ctx, req)
	}
	if err != nil {
		var remote *service.RemoteError
		if errors.As(err, &remote) && remote.Code == http.StatusBadRequest {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		fmt.Fprintf(os.Stderr, "submit failed: %v\n", err)
		return 3
	}
	if nowait {
		fmt.Printf("accepted %s state=%s hash=%s\n", st.ID, st.State, st.Hash)
		return 0
	}
	switch st.State {
	case service.StateDone:
		fmt.Print(st.Report)
		return 0
	default:
		fmt.Fprintf(os.Stderr, "job %s %s (%s): %s\n", st.ID, st.State, st.ErrorKind, st.Error)
		return 1
	}
}

// loadSeed is load client i's seed: three clients in four share the hot
// configs (duplicate traffic: dedup and singleflight), the rest spread
// over the distinct cold ones (LRU churn). The index is i/4, not i, so
// the seed does not correlate with the i%4 split and every hot and every
// cold seed is used.
func loadSeed(i, hot, distinct int) int64 {
	if i%4 != 0 {
		return 1 + int64((i/4)%hot)
	}
	return 100_000 + int64((i/4)%distinct)
}

// loadMain is the load-generator: n concurrent clients hammer the server
// over real HTTP with a mix of duplicate hot configs (the dedup path)
// and distinct cold ones (the eviction path), retrying sheds per
// Retry-After. It counts raw status codes and fails if anything but
// 200 (terminal job) or 429 (shed, retried) ever comes back, or if any
// job resolves to a state other than "done". Exit codes: 0 all clients
// landed, 1 bad responses or unfinished jobs, 3 transport failure.
func loadMain(addr string, n, hot, distinct int, base service.Request) int {
	host := addr
	if len(host) > 0 && host[0] == ':' {
		host = "127.0.0.1" + host
	}
	url := "http://" + host + "/v1/jobs?wait=1"
	if hot < 1 {
		hot = 1
	}
	if distinct < 1 {
		distinct = 1
	}
	tr := &http.Transport{MaxIdleConnsPerHost: 128, MaxConnsPerHost: 256}
	hc := &http.Client{Transport: tr}
	defer tr.CloseIdleConnections()

	var ok200, shed429, badCode, badState, transport atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		req := base
		req.Seed = loadSeed(i, hot, distinct)
		body, err := json.Marshal(req)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 3
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for attempt := 0; ; attempt++ {
				resp, err := hc.Post(url, "application/json", bytes.NewReader(body))
				if err != nil {
					transport.Add(1)
					return
				}
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					ok200.Add(1)
					var st service.JobStatus
					if json.Unmarshal(raw, &st) != nil || st.State != service.StateDone {
						badState.Add(1)
					}
					return
				case http.StatusTooManyRequests:
					shed429.Add(1)
					if attempt > 200 {
						badCode.Add(1) // never landed
						return
					}
					after := time.Second
					if sec, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && sec > 0 {
						after = time.Duration(sec) * time.Second
					}
					time.Sleep(after/2 + time.Duration(i%97)*time.Millisecond)
				default:
					badCode.Add(1)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	fmt.Printf("load: %d clients in %.1fs — %d done, %d sheds retried, %d bad codes, %d bad states, %d transport errors\n",
		n, time.Since(start).Seconds(), ok200.Load(), shed429.Load(),
		badCode.Load(), badState.Load(), transport.Load())
	if badCode.Load() > 0 || badState.Load() > 0 || transport.Load() > 0 || ok200.Load() != int64(n) {
		return 1
	}
	return 0
}
