// Package service is the hardened experiment server behind cmd/charosd:
// clients submit deterministic (workload, machine, seed, window) jobs
// over HTTP/JSON and get back the run's report.Single rendering —
// byte-identical to a serial core.Run of the same config.
//
// Robustness is the design center, not an afterthought:
//
//   - Cancellation: every job runs under a context; a client timeout, the
//     watchdog, or a drain stops the simulation before its next bus
//     transaction and resolves the job with a structured
//     *core.CanceledError carrying provenance (config hash, seed, cycle).
//   - Isolation: a panicking run becomes that job's *runner.PanicError
//     (stack, config hash, cycle) — the worker pool survives.
//   - Liveness: a watchdog polls each run's simulated-cycle heartbeat and
//     kills runs that stop making progress.
//   - Load shedding: admission is a bounded queue; a full queue sheds
//     with HTTP 429 + Retry-After instead of growing without bound.
//   - Drain: SIGTERM stops admission, resolves every accepted job (finish
//     or cancel, by policy) under a hard deadline, and only then lets the
//     process exit — no accepted job is ever dropped.
//   - Dedup: runs are deterministic, so results are content-addressed by
//     the canonical config hash, with singleflight dedup of concurrent
//     identical submissions.
package service

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/machineflag"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/sample"
	"repro/internal/workload"
)

// ErrStalled is the watchdog's cancellation cause: the run's
// simulated-cycle heartbeat stopped advancing for longer than the
// configured stall timeout.
var ErrStalled = errors.New("watchdog: no simulated-cycle progress")

// ErrDraining is the cancellation cause of jobs cut short by a
// policy=cancel drain or by the drain hard deadline.
var ErrDraining = errors.New("server draining")

// ErrSaturated is returned by Submit when the admission queue is full;
// the HTTP layer maps it to 429 + Retry-After.
var ErrSaturated = errors.New("admission queue full")

// ErrDrainingSubmit is returned by Submit once draining has begun; the
// HTTP layer maps it to 503.
var ErrDrainingSubmit = errors.New("not accepting jobs: draining")

// Request is the JSON job submission. The zero value of every field maps
// to the simulator's defaults, exactly as the CLI flags do.
type Request struct {
	// Workload is Pmake, Multpgm, Oracle or OracleStd (case-insensitive).
	Workload string `json:"workload"`
	// Machine is a preset name (4d340, 4d380); empty means 4d340.
	Machine string `json:"machine,omitempty"`
	NCPU    int    `json:"ncpu,omitempty"`
	Seed    int64  `json:"seed,omitempty"`
	// Window and Warmup are in 30ns cycles.
	Window int64 `json:"window,omitempty"`
	Warmup int64 `json:"warmup,omitempty"`
	// Check runs the invariant checker alongside the job.
	Check bool `json:"check,omitempty"`
	// Sample is a sampled-simulation schedule "warmup:len:period" in
	// cycles (K/M/G suffixes ok, e.g. "100K:200K:10M"): the report then
	// carries the interval estimate with error bars in place of the exact
	// classification lines. The schedule is part of the job's cache
	// identity: sampled and full runs of the same config hash differently.
	Sample string `json:"sample,omitempty"`
	// TimeoutMS is the job's wall-clock budget; 0 inherits the server
	// default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// TestPanic makes the worker panic inside the run's recovery scope.
	// Honored only when the server runs with Options.TestHooks — it
	// exists so the smoke test can drive the panic-isolation path end to
	// end over HTTP.
	TestPanic bool `json:"test_panic,omitempty"`
}

// maxNCPU bounds a request's processor count: the largest machine the
// scaling experiments simulate, and small enough that one request cannot
// pin a worker for minutes building and stepping thousands of CPUs.
const maxNCPU = 64

// Config resolves the request into a core.Config, validating the
// workload, machine preset and schedule names and the range of every
// number, so that a bad request is the client's 400 and never a worker's
// panic or a silently substituted default. Errors name the JSON field.
func (r Request) Config() (core.Config, error) {
	switch {
	case r.NCPU < 0 || r.NCPU > maxNCPU:
		return core.Config{}, fmt.Errorf("ncpu %d: must be in [0, %d] (0 = the machine preset's count)", r.NCPU, maxNCPU)
	case r.Window < 0:
		return core.Config{}, fmt.Errorf("window %d: must be ≥ 0 (0 = the default window)", r.Window)
	case r.Warmup < 0:
		return core.Config{}, fmt.Errorf("warmup %d: must be ≥ 0 (0 = half the window)", r.Warmup)
	case r.TimeoutMS < 0:
		return core.Config{}, fmt.Errorf("timeout_ms %d: must be ≥ 0 (0 = the server default)", r.TimeoutMS)
	}
	kind, err := workload.ParseKind(r.Workload)
	if err != nil {
		return core.Config{}, err
	}
	m, err := machineflag.Preset(r.Machine)
	if err != nil {
		return core.Config{}, err
	}
	sched, err := sample.Parse(r.Sample)
	if err != nil {
		return core.Config{}, err
	}
	cfg := core.Config{
		Workload: kind, Machine: m, NCPU: r.NCPU, Seed: r.Seed,
		Window: arch.Cycles(r.Window), Warmup: arch.Cycles(r.Warmup),
		Check: r.Check, Sample: sched,
	}
	// What is left is wrong with the combination, not with one field: an
	// unbuildable machine ("arch.Machine: …") or a schedule the window or
	// pipeline cannot serve ("sample: …").
	if err := cfg.Validate(); err != nil {
		return core.Config{}, err
	}
	return cfg, nil
}

// Job states.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"   // run panicked
	StateCanceled = "canceled" // deadline, watchdog or drain
)

// Job is one accepted submission.
type Job struct {
	ID   string
	Hash string
	Req  Request
	Cfg  core.Config

	// seq is the admission number behind ID; listings sort by it (ID
	// strings stop sorting numerically past j999999).
	seq int64

	// entry is the job's singleflight claim (leader jobs only).
	entry *cacheEntry
	// submitted is the admission stamp; resolve's time.Since(submitted)
	// is the submit-to-terminal latency observed by the metrics layer
	// (the only two wall-clock reads on the job path).
	submitted time.Time

	mu      sync.Mutex
	state   string
	outcome Outcome
	// mcps records the run's simulated-Mcycles/s throughput. Leader
	// jobs only: a dedup follower or cache hit executed nothing, so it
	// stays zero — honest observability, not an inherited number.
	mcps float64
	// progress reports the run's simulated-cycle heartbeat while
	// running. resolve nils it at terminal state — the closure pins the
	// run's entire simulator pipeline (caches, shadow memory, classifier
	// pages), which must not outlive the run.
	progress func() arch.Cycles
	done     chan struct{}
}

func (j *Job) setState(s string) {
	j.mu.Lock()
	j.state = s
	j.mu.Unlock()
}

// Snapshot returns the job's externally visible state.
func (j *Job) Snapshot() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID: j.ID, Hash: j.Hash, State: j.state,
		Workload: j.Req.Workload, Seed: j.Req.Seed,
		Cycle:         j.outcome.Cycle,
		MCyclesPerSec: j.mcps,
	}
	if j.state == StateRunning && j.progress != nil {
		st.Cycle = int64(j.progress())
	}
	if j.state == StateDone {
		st.Report = j.outcome.Report
	}
	if j.outcome.Err != nil {
		st.Error = j.outcome.Err.Error()
		st.ErrorKind = errorKind(j.outcome.Err)
	}
	return st
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// JobStatus is the JSON representation of a job.
type JobStatus struct {
	ID       string `json:"id"`
	Hash     string `json:"hash"`
	State    string `json:"state"`
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// Cycle is the simulated-cycle heartbeat (live progress while
	// running, the cycle reached at termination afterwards).
	Cycle int64 `json:"cycle,omitempty"`
	// MCyclesPerSec is the run's simulated-Mcycles/s throughput — zero
	// for dedup followers and cache hits, which executed nothing.
	MCyclesPerSec float64 `json:"mcycles_per_sec,omitempty"`
	Report        string  `json:"report,omitempty"`
	Error         string  `json:"error,omitempty"`
	// ErrorKind classifies Error: "panic", "deadline", "stalled",
	// "drained" or "canceled".
	ErrorKind string `json:"error_kind,omitempty"`
}

// errorKind classifies a structured run error for clients.
func errorKind(err error) string {
	var p *runner.PanicError
	switch {
	case errors.As(err, &p):
		return "panic"
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	case errors.Is(err, ErrStalled):
		return "stalled"
	case errors.Is(err, ErrDraining):
		return "drained"
	default:
		return "canceled"
	}
}

// deterministicErr reports whether the error reproduces on a re-run of
// the same config (a panic does; a timing-dependent cancellation does
// not) — only deterministic outcomes may stay cached.
func deterministicErr(err error) bool {
	var p *runner.PanicError
	return errors.As(err, &p)
}

// Options tunes the server.
type Options struct {
	// Workers is the fixed run-executing pool size (default GOMAXPROCS).
	Workers int
	// CacheEntries is how many completed results stay resident; beyond
	// it the store's LRU evicts the least recently used (default 4096).
	CacheEntries int
	// JobHistory bounds terminal jobs retained in the registry; older
	// terminal jobs are evicted and their IDs return 404 (default 4096).
	JobHistory int
	// QueueDepth bounds the admission queue; submissions beyond it are
	// shed with ErrSaturated (default 64).
	QueueDepth int
	// RetryAfter is the backoff hint advertised with sheds (default 1s).
	RetryAfter time.Duration
	// JobTimeout caps each job's wall clock; 0 means no default cap.
	JobTimeout time.Duration
	// StallTimeout is how long a run may go without simulated-cycle
	// progress before the watchdog kills it (default 10s; <0 disables).
	StallTimeout time.Duration
	// WatchdogPoll is the heartbeat sampling period (default
	// StallTimeout/4).
	WatchdogPoll time.Duration
	// DrainFinish selects the drain policy: true finishes queued and
	// in-flight jobs, false cancels them (they still resolve, as
	// canceled). The hard deadline applies either way.
	DrainFinish bool
	// DrainTimeout is the drain hard deadline (default 30s): when it
	// passes, in-flight jobs are force-canceled so every accepted job
	// still resolves before Drain returns.
	DrainTimeout time.Duration
	// TestHooks enables Request.TestPanic (never set in production).
	TestHooks bool
	// Logf, when non-nil, receives one line per lifecycle event.
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.CacheEntries <= 0 {
		o.CacheEntries = defaultCacheEntries
	}
	if o.JobHistory <= 0 {
		o.JobHistory = 4096
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = time.Second
	}
	if o.StallTimeout == 0 {
		o.StallTimeout = 10 * time.Second
	}
	if o.WatchdogPoll <= 0 {
		o.WatchdogPoll = o.StallTimeout / 4
		if o.WatchdogPoll <= 0 {
			o.WatchdogPoll = time.Second
		}
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = 30 * time.Second
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// Stats is the server's counter snapshot.
type Stats struct {
	Accepted  int64 `json:"accepted"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Canceled  int64 `json:"canceled"`
	Shed      int64 `json:"shed"`
	CacheHits int64 `json:"cache_hits"`
	// CacheEvictions counts completed results dropped by the LRU cap;
	// JobsEvicted terminal jobs dropped by the registry cap.
	CacheEvictions int64 `json:"cache_evictions"`
	JobsEvicted    int64 `json:"jobs_evicted"`
	Workers        int   `json:"workers"`
	QueueLen       int   `json:"queue_len"`
	Draining       bool  `json:"draining"`
}

// Server owns the worker pool, the admission queue and the result store.
type Server struct {
	opts  Options
	store *Store
	// live counts running pool workers: Options.Workers while serving,
	// 0 once Drain has returned.
	live atomic.Int64

	// hardCtx is canceled to force-stop every run (drain hard deadline).
	hardCtx  context.Context
	hardStop context.CancelCauseFunc

	queue chan *Job

	mu   sync.Mutex
	jobs map[string]*Job
	// terminal is the completion-order queue of retained terminal job
	// IDs; beyond Options.JobHistory the oldest are evicted from jobs
	// so a long-running server's registry stays bounded.
	terminal []string
	nextID   int64

	draining atomic.Bool
	workerWG sync.WaitGroup
	jobWG    sync.WaitGroup // one count per accepted, unresolved job

	accepted, completed, failed, canceledN, shed, jobsEvicted atomic.Int64
}

// New builds and starts a server (its worker pool runs immediately).
func New(opts Options) *Server {
	opts = opts.withDefaults()
	ctx, stop := context.WithCancelCause(context.Background())
	s := &Server{
		opts:     opts,
		store:    NewStore(0, opts.CacheEntries),
		hardCtx:  ctx,
		hardStop: stop,
		queue:    make(chan *Job, opts.QueueDepth),
		jobs:     make(map[string]*Job),
	}
	for i := 0; i < opts.Workers; i++ {
		s.startWorker()
	}
	return s
}

// startWorker spawns one pool worker, which drains the queue until Drain
// closes it.
func (s *Server) startWorker() {
	s.workerWG.Add(1)
	s.live.Add(1)
	go func() {
		defer s.workerWG.Done()
		defer s.live.Add(-1)
		for job := range s.queue {
			s.execute(job)
		}
	}()
}

// RetryAfter is the shed backoff hint.
func (s *Server) RetryAfter() time.Duration { return s.opts.RetryAfter }

// Draining reports whether admission has stopped.
func (s *Server) Draining() bool { return s.draining.Load() }

// Stats returns a counter snapshot.
func (s *Server) Stats() Stats {
	return Stats{
		Accepted:       s.accepted.Load(),
		Completed:      s.completed.Load(),
		Failed:         s.failed.Load(),
		Canceled:       s.canceledN.Load(),
		Shed:           s.shed.Load(),
		CacheHits:      s.store.Hits(),
		CacheEvictions: s.store.Evictions(),
		JobsEvicted:    s.jobsEvicted.Load(),
		Workers:        int(s.live.Load()),
		QueueLen:       len(s.queue),
		Draining:       s.draining.Load(),
	}
}

// Metrics assembles the /v1/metrics payload: the store's
// hit/miss/eviction counters, latency quantiles and throughput, plus the
// worker pool and registry state.
func (s *Server) Metrics() Metrics {
	global := s.store.Snapshot()
	s.mu.Lock()
	retained := len(s.terminal)
	jobs := s.registeredLocked()
	s.mu.Unlock()
	sortBySeq(jobs)
	perJob := make([]JobMetrics, 0, len(jobs))
	for _, j := range jobs {
		j.mu.Lock()
		jm := JobMetrics{
			ID: j.ID, State: j.state, MCyclesPerSec: j.mcps,
		}
		j.mu.Unlock()
		perJob = append(perJob, jm)
	}
	return Metrics{
		UptimeSec:    time.Since(s.store.start).Seconds(),
		Global:       global,
		Workers:      WorkerMetrics{Live: int(s.live.Load())},
		QueueLen:     len(s.queue),
		QueueDepth:   cap(s.queue),
		JobsRetained: retained,
		JobsEvicted:  s.jobsEvicted.Load(),
		Jobs:         perJob,
	}
}

// Job looks up a job by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs returns every job in submission order.
func (s *Server) Jobs() []*Job {
	s.mu.Lock()
	jobs := s.registeredLocked()
	s.mu.Unlock()
	sortBySeq(jobs)
	return jobs
}

// registeredLocked returns the registry's jobs in no order; s.mu is held.
func (s *Server) registeredLocked() []*Job {
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	return jobs
}

// sortBySeq puts jobs in submission order.
func sortBySeq(jobs []*Job) {
	slices.SortFunc(jobs, func(a, b *Job) int { return cmp.Compare(a.seq, b.seq) })
}

// Submit admits a job. It returns ErrDrainingSubmit once draining has
// begun and ErrSaturated when the admission queue is full; any other
// error means the request itself was invalid. An accepted job is
// guaranteed to resolve — Drain waits for it.
func (s *Server) Submit(req Request) (*Job, error) {
	if s.draining.Load() {
		return nil, ErrDrainingSubmit
	}
	cfg, err := req.Config()
	if err != nil {
		return nil, err
	}
	if req.TestPanic && !s.opts.TestHooks {
		return nil, errors.New("test_panic requires the server to run with test hooks enabled")
	}
	hash := cfg.Hash()
	job := &Job{
		Req: req, Cfg: cfg, Hash: hash,
		state: StateQueued, done: make(chan struct{}),
		submitted: time.Now(),
	}

	// Admission, registration and the drain handshake share s.mu: once
	// Drain flips the flag (under the same lock), no Submit can enqueue
	// onto the closed queue or race a jobWG.Add against the final Wait.
	s.mu.Lock()
	if s.draining.Load() {
		s.mu.Unlock()
		return nil, ErrDrainingSubmit
	}
	// Forced-panic jobs bypass the cache: the panic comes from the hook,
	// not the config, so their outcome must neither dedup onto nor poison
	// the hash shared with honest submissions of the same config.
	var entry *cacheEntry
	leader := true
	if !req.TestPanic {
		entry, leader = s.store.Begin(hash)
	}
	s.nextID++
	job.seq = s.nextID
	job.ID = fmt.Sprintf("j%06d", s.nextID)
	s.jobs[job.ID] = job
	s.jobWG.Add(1)
	if leader {
		job.entry = entry
		select {
		case s.queue <- job:
		default:
			// Shed: unwind the registration and roll the singleflight
			// claim back so a retry can lead. The claim is dropped before
			// s.mu is released: Begin only runs under s.mu, so no other
			// Submit of this hash can join the doomed entry as a follower
			// and be accepted only to end canceled.
			delete(s.jobs, job.ID)
			s.jobWG.Done()
			if entry != nil {
				s.store.Abandon(hash, entry, Outcome{Err: ErrSaturated})
			}
			s.mu.Unlock()
			s.shed.Add(1)
			return nil, ErrSaturated
		}
	}
	// Count the acceptance inside the admission critical section, after
	// the job is certain to be admitted: resolve bumps the terminal
	// counters under the same mutex, so no Stats snapshot can ever show
	// more resolved jobs than accepted ones, and no rollback decrement
	// is needed — every counter stays monotone.
	s.accepted.Add(1)
	s.mu.Unlock()

	if !leader {
		// Content-addressed dedup: an identical config is already
		// resolved (pure cache hit) or in flight (singleflight
		// follower). Either way the job consumes no queue slot.
		go func() {
			defer s.jobWG.Done()
			s.resolve(job, entry.Wait())
		}()
	}
	return job, nil
}

// execute runs one leader job to a terminal outcome. Panics inside the
// run surface as the job's PanicError (runner.RunOneMonitored recovers them), so
// the worker goroutine itself never dies.
func (s *Server) execute(job *Job) {
	defer s.jobWG.Done()
	ctx := s.hardCtx
	var cancel context.CancelFunc
	timeout := s.opts.JobTimeout
	if job.Req.TimeoutMS > 0 {
		timeout = time.Duration(job.Req.TimeoutMS) * time.Millisecond
	}
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	wctx, wcancel := context.WithCancelCause(ctx)
	defer wcancel(nil)

	job.setState(StateRunning)
	runDone := make(chan struct{})
	defer close(runDone)
	if s.opts.StallTimeout > 0 {
		go s.watchdog(wctx, wcancel, job, runDone)
	}

	var hooks []func()
	if job.Req.TestPanic && s.opts.TestHooks {
		hooks = append(hooks, func() {
			panic(fmt.Sprintf("test hook: forced panic (job %s)", job.ID))
		})
	}
	res := runner.RunOneMonitored(wctx, job.Cfg, func(p func() arch.Cycles) {
		job.mu.Lock()
		job.progress = p
		job.mu.Unlock()
	}, nil, hooks...)
	job.mu.Lock()
	job.mcps = res.Stats.MCyclesPerSec
	job.mu.Unlock()

	var out Outcome
	switch {
	case res.Err != nil:
		out = Outcome{Err: res.Err, Cycle: errCycle(res.Err)}
	default:
		out = Outcome{Report: report.Single(res.Ch), Cycle: int64(res.Ch.Cfg.Window + res.Ch.Cfg.Warmup)}
	}
	if job.entry != nil {
		s.store.Complete(job.Hash, job.entry, out)
	}
	s.resolve(job, out)
}

// errCycle extracts the provenance cycle from a structured run error.
func errCycle(err error) int64 {
	var c *core.CanceledError
	if errors.As(err, &c) {
		return int64(c.Cycle)
	}
	var p *runner.PanicError
	if errors.As(err, &p) {
		return int64(p.Cycle)
	}
	return 0
}

// resolve moves a job to its terminal state and closes Done. The
// submit-to-terminal latency is observed and the terminal counters bump
// before Done closes, so a client woken by its job sees fully settled
// stats and metrics.
func (s *Server) resolve(job *Job, out Outcome) {
	job.mu.Lock()
	job.outcome = out
	// Drop the heartbeat closure: it captures the whole simulator
	// pipeline (caches, shadow memory, classifier pages), which a
	// terminal job must not pin against GC.
	job.progress = nil
	switch {
	case out.Err == nil:
		job.state = StateDone
	case deterministicErr(out.Err):
		job.state = StateFailed
	default:
		job.state = StateCanceled
	}
	state := job.state
	job.mu.Unlock()
	if !job.submitted.IsZero() {
		s.store.RecordLatency(job.Hash, time.Since(job.submitted))
	}
	s.retireJob(job.ID, state)
	close(job.done)
	s.opts.Logf("job %s %s (%s seed %d cfg %.12s) cycle=%d err=%v",
		job.ID, state, job.Req.Workload, job.Req.Seed, job.Hash, out.Cycle, out.Err)
}

// retireJob bumps the terminal counter for state, appends the job to the
// bounded retention queue, and evicts the oldest terminal jobs beyond
// Options.JobHistory from the registry (their IDs then 404) — without
// the cap, jobs grows without bound on a long-running server.
// Sharing s.mu with admission makes the counters coherent: accepted is
// counted inside Submit's critical section, so resolved counts can never
// overtake it in any Stats snapshot.
func (s *Server) retireJob(id, state string) {
	s.mu.Lock()
	switch state {
	case StateDone:
		s.completed.Add(1)
	case StateFailed:
		s.failed.Add(1)
	default:
		s.canceledN.Add(1)
	}
	s.terminal = append(s.terminal, id)
	for len(s.terminal) > s.opts.JobHistory {
		old := s.terminal[0]
		// Walking the slice forward is the standard queue idiom; append
		// reallocates and compacts once the backing array fills, so the
		// retained window stays O(JobHistory).
		s.terminal = s.terminal[1:]
		delete(s.jobs, old)
		s.jobsEvicted.Add(1)
	}
	s.mu.Unlock()
}

// watchdog kills the run when its simulated-cycle heartbeat stops
// advancing for StallTimeout.
func (s *Server) watchdog(ctx context.Context, cancel context.CancelCauseFunc, job *Job, runDone <-chan struct{}) {
	tick := time.NewTicker(s.opts.WatchdogPoll)
	defer tick.Stop()
	var last arch.Cycles
	lastAdvance := time.Now()
	for {
		select {
		case <-ctx.Done():
			return
		case <-runDone:
			return
		case <-tick.C:
			job.mu.Lock()
			probe := job.progress
			job.mu.Unlock()
			var now arch.Cycles
			if probe != nil {
				now = probe()
			}
			if now != last {
				last = now
				lastAdvance = time.Now()
				continue
			}
			if time.Since(lastAdvance) > s.opts.StallTimeout {
				s.opts.Logf("job %s stalled at cycle %d for %s — killing", job.ID, last, s.opts.StallTimeout)
				cancel(ErrStalled)
				return
			}
		}
	}
}

// Drain stops admission and resolves every accepted job: with
// DrainFinish, queued and in-flight jobs run to completion; without it,
// they are canceled immediately (and still resolve, as canceled). If the
// hard deadline passes first, remaining runs are force-canceled. Drain
// returns once every accepted job is terminal and the workers have
// exited; it is idempotent only in the sense that the first call wins.
func (s *Server) Drain() {
	s.mu.Lock()
	if s.draining.Swap(true) {
		s.mu.Unlock()
		return
	}
	close(s.queue) // workers finish the backlog, then exit
	s.mu.Unlock()
	s.opts.Logf("drain: admission stopped (policy=%s, hard deadline %s)",
		map[bool]string{true: "finish", false: "cancel"}[s.opts.DrainFinish], s.opts.DrainTimeout)
	if !s.opts.DrainFinish {
		s.hardStop(ErrDraining)
	}
	resolved := make(chan struct{})
	go func() {
		s.jobWG.Wait()
		close(resolved)
	}()
	select {
	case <-resolved:
	case <-time.After(s.opts.DrainTimeout):
		s.opts.Logf("drain: hard deadline passed — force-canceling in-flight runs")
		s.hardStop(ErrDraining)
		<-resolved
	}
	s.workerWG.Wait()
	s.opts.Logf("drain complete: all accepted jobs resolved (%d done, %d failed, %d canceled)",
		s.completed.Load(), s.failed.Load(), s.canceledN.Load())
}
