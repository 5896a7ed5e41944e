// Package runner is the parallel experiment engine: a worker pool that
// fans independent core.Config runs (and, through Map/ForEach, any other
// index-shaped fan-out) across GOMAXPROCS goroutines with order-preserving
// result collection.
//
// Determinism is the contract. Every core.Run builds its own simulator,
// kernel and RNG from its config's seed, so a run's output depends only on
// its config — never on which worker executed it or in what order. Results
// are collected into a slice indexed by submission order, which makes a
// parallel batch byte-identical to the serial execution of the same
// configs. `Options{Parallelism: 1}` restores strictly serial execution.
//
//	res, batch := runner.Experiments(cfgs, runner.Options{})
//	// res[i] corresponds to cfgs[i]; batch.Table() shows the speedup.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/metrics"
)

// Options tunes the pool.
type Options struct {
	// Parallelism is the worker count. <= 0 means runtime.GOMAXPROCS(0);
	// 1 runs strictly serially on the calling goroutine.
	Parallelism int
	// SimWorkers, when > 1, is the intra-run worker count applied to
	// each submitted config that does not set core.Config.SimWorkers
	// itself: the conservative parallel engine inside each run. It never
	// changes a run's output — combine with CapTotal so pool × intra-run
	// workers stays inside the machine.
	SimWorkers int
}

// workers resolves the worker count for a batch of n jobs.
func (o Options) workers(n int) int {
	p := o.Parallelism
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p > n {
		p = n
	}
	if p < 1 {
		p = 1
	}
	return p
}

// CapTotal bounds pool-level parallelism when the runs themselves are
// internally parallel: with simWorkers > 1 each run occupies simWorkers
// cores, so the pool shrinks until parallelism × simWorkers fits inside
// runtime.GOMAXPROCS(0) — floor 1, one run always proceeds. With
// simWorkers <= 1 (serial engine) the parallelism passes through
// unchanged, including the <= 0 "use GOMAXPROCS" convention.
func CapTotal(parallelism, simWorkers int) int {
	if simWorkers <= 1 {
		return parallelism
	}
	lim := runtime.GOMAXPROCS(0) / simWorkers
	if lim < 1 {
		lim = 1
	}
	if parallelism <= 0 || parallelism > lim {
		return lim
	}
	return parallelism
}

// DeriveSeed mixes a base seed and a run index into an independent,
// reproducible per-run seed (splitmix64 finalizer). Sweeps that want
// statistically independent runs derive one seed per submission index, so
// the whole sweep replays from the base seed alone — on any worker count.
func DeriveSeed(base int64, i int) int64 {
	z := uint64(base) + uint64(i+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	s := int64(z &^ (1 << 63))
	if s == 0 {
		return 1 // seed 0 means "default" to the simulator
	}
	return s
}

// PanicError is the structured error of a run whose pipeline panicked:
// the panic value, the goroutine stack at the point of the panic, and
// the run's provenance (config hash, seed, cycle reached). RunOne and
// ExperimentsContext convert panics into PanicErrors so one broken
// configuration cannot take down a batch or a worker pool.
type PanicError struct {
	core.Provenance
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("run panicked (%s): %v", e.Provenance, e.Value)
}

// ForEachContext is ForEach with cooperative cancellation: indexes not
// yet started when ctx is canceled are skipped (fn never sees them), and
// the skip is reported through the returned error — nil only if every
// index ran. fn receives ctx to thread into context-aware work.
func ForEachContext(ctx context.Context, n int, opts Options, fn func(ctx context.Context, i int)) error {
	var skipped int64
	var mu sync.Mutex
	ForEach(n, opts, func(i int) {
		if ctx.Err() != nil {
			mu.Lock()
			skipped++
			mu.Unlock()
			return
		}
		fn(ctx, i)
	})
	if skipped > 0 {
		return fmt.Errorf("runner: %d of %d jobs not started: %w", skipped, n, context.Cause(ctx))
	}
	return nil
}

// MapContext fans fn across the pool under ctx. Slots whose index was
// skipped because ctx was canceled hold T's zero value, and the skip is
// reported through the error.
func MapContext[T any](ctx context.Context, n int, opts Options, fn func(ctx context.Context, i int) T) ([]T, error) {
	out := make([]T, n)
	err := ForEachContext(ctx, n, opts, func(ctx context.Context, i int) { out[i] = fn(ctx, i) })
	return out, err
}

// ForEach runs fn(0..n-1) on a bounded worker pool and returns when all
// calls have finished. fn must not depend on execution order; writes
// should go to the caller's slot i.
func ForEach(n int, opts Options, fn func(i int)) {
	w := opts.workers(n)
	if w == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	wg.Add(w)
	for q := 0; q < w; q++ {
		go func() {
			defer wg.Done()
			for i := range jobs {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}

// Map fans fn across the pool and returns its results indexed by
// submission order: Map(n, o, f)[i] == f(i) regardless of parallelism.
func Map[T any](n int, opts Options, fn func(i int) T) []T {
	out := make([]T, n)
	ForEach(n, opts, func(i int) { out[i] = fn(i) })
	return out
}

// Result pairs a characterization with its per-run observability.
type Result struct {
	Ch    *core.Characterization
	Stats metrics.RunStats
	// Err is non-nil when the run did not complete: a
	// *core.CanceledError (context cancel, deadline, watchdog kill) or a
	// *PanicError (the pipeline panicked; the pool survives). Ch is nil
	// exactly when Err is non-nil.
	Err error
}

// RunOne executes one config through core.RunContext with panic
// isolation: a panic anywhere in the pipeline comes back as a
// *PanicError in Result.Err instead of unwinding into the caller. The
// optional preRun hooks fire inside the recovery scope before the
// simulation starts — the service's test hooks use them to force
// failures down the production error path.
func RunOne(ctx context.Context, cfg core.Config, preRun ...func()) Result {
	return RunOneMonitored(ctx, cfg, nil, preRun...)
}

// RunOneMonitored is RunOne plus core.RunMonitored's progress probe:
// onStart (if non-nil) receives the run's simulated-cycle heartbeat
// function just before simulation begins — the service watchdog feeds
// on it.
func RunOneMonitored(ctx context.Context, cfg core.Config, onStart func(progress func() arch.Cycles), preRun ...func()) (res Result) {
	canonical := cfg.Canonical()
	var progress func() arch.Cycles
	t0 := time.Now()
	defer func() {
		if r := recover(); r != nil {
			var cycle arch.Cycles
			if progress != nil {
				cycle = progress()
			}
			res = Result{
				Err: &PanicError{
					Provenance: core.Provenance{ConfigHash: canonical.Hash(),
						Workload: canonical.Workload.String(), Seed: canonical.Seed, Cycle: cycle},
					Value: r,
					Stack: debug.Stack(),
				},
				Stats: metrics.RunStats{Label: runLabel(canonical), Wall: time.Since(t0)},
			}
		}
	}()
	for _, f := range preRun {
		f()
	}
	ch, err := core.RunMonitored(ctx, cfg, func(p func() arch.Cycles) {
		progress = p
		if onStart != nil {
			onStart(p)
		}
	})
	st := metrics.RunStats{Label: runLabel(canonical), Wall: time.Since(t0)}
	if err != nil {
		return Result{Err: err, Stats: st}
	}
	// ch.Cfg has defaults applied; warmup cycles are simulated (and paid
	// for) too.
	st.SimCycles = int64(ch.Cfg.Window+ch.Cfg.Warmup) * int64(ch.Cfg.NCPU)
	st.Throughput()
	st.SimWorkers = ch.Sim.SimWorkers()
	sp := ch.Sim.SpecStats()
	st.SpecPhases, st.SpecSteps, st.SpecCommitted = sp.Phases, sp.SpecSteps, sp.CommittedSteps
	st.BusTxns = ch.Sim.Bus.Stats.Transactions()
	if ch.Sim.Chk != nil {
		st.Checks = ch.Sim.Chk.Checks
	}
	return Result{Ch: ch, Stats: st}
}

// Experiments runs each config through core.Run on the pool. Results are
// indexed by submission order (Result[i] is cfgs[i]'s run), so output
// rendered from them is byte-identical to a serial execution. The batch
// stats carry per-run wall-clock and simulated-cycle throughput plus
// process-wide allocation deltas; per-run allocation counts are exact
// only for serial batches (Go accounts heap allocation process-wide).
// A panicking config surfaces as that run's Result.Err; the rest of the
// batch completes normally.
func Experiments(cfgs []core.Config, opts Options) ([]Result, metrics.BatchStats) {
	return ExperimentsContext(context.Background(), cfgs, opts)
}

// ExperimentsContext is Experiments under a context: a canceled or
// expired ctx stops every in-flight run before its next bus transaction
// and resolves the remaining slots with *core.CanceledError — every
// submitted config gets a terminal Result either way, in submission
// order.
func ExperimentsContext(ctx context.Context, cfgs []core.Config, opts Options) ([]Result, metrics.BatchStats) {
	if opts.SimWorkers > 1 {
		// Copy before defaulting — the caller's configs stay untouched.
		withDefault := make([]core.Config, len(cfgs))
		copy(withDefault, cfgs)
		for i := range withDefault {
			if withDefault[i].SimWorkers == 0 {
				withDefault[i].SimWorkers = opts.SimWorkers
			}
		}
		cfgs = withDefault
	}
	n := len(cfgs)
	w := opts.workers(n)
	serial := w == 1
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	out := make([]Result, n)
	ForEach(n, opts, func(i int) {
		var m0 runtime.MemStats
		if serial {
			runtime.ReadMemStats(&m0)
		}
		out[i] = RunOne(ctx, cfgs[i])
		if serial && out[i].Err == nil {
			var m1 runtime.MemStats
			runtime.ReadMemStats(&m1)
			out[i].Stats.Allocs = m1.Mallocs - m0.Mallocs
			out[i].Stats.AllocBytes = m1.TotalAlloc - m0.TotalAlloc
		}
	})
	batch := metrics.BatchStats{Parallelism: w, Wall: time.Since(start)}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	batch.Allocs = after.Mallocs - before.Mallocs
	batch.AllocBytes = after.TotalAlloc - before.TotalAlloc
	batch.Runs = make([]metrics.RunStats, n)
	for i, r := range out {
		batch.SerialWall += r.Stats.Wall
		batch.Runs[i] = r.Stats
	}
	return out, batch
}

// runLabel names a run for the timing table.
func runLabel(c core.Config) string {
	return fmt.Sprintf("%s/ncpu%d/seed%d", c.Workload, c.NCPU, c.Seed)
}
