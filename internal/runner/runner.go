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
	"sort"
	"sync"
	"time"

	"repro/internal/arch"
	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/metrics"
)

// Options tunes the pool.
type Options struct {
	// Parallelism is the worker count. <= 0 means runtime.GOMAXPROCS(0);
	// 1 runs strictly serially on the calling goroutine.
	Parallelism int
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

// PanicError is the structured error of a run whose pipeline panicked:
// the panic value, the goroutine stack at the point of the panic, and
// the run's provenance (config hash, seed, cycle reached). RunOneMonitored
// and ExperimentsContext convert panics into PanicErrors so one broken
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

// RunOneMonitored executes one config through core.RunMonitored with panic
// isolation: a panic anywhere in the pipeline comes back as a *PanicError
// in Result.Err instead of unwinding into the caller. onStart (if non-nil)
// receives the run's simulated-cycle heartbeat function just before
// simulation begins — the service watchdog feeds on it. The run feeds its
// traced window to sinks (see core.RunMonitored). The optional preRun
// hooks fire inside the recovery scope before the simulation starts — the
// service's test hooks use them to force failures down the production
// error path.
func RunOneMonitored(ctx context.Context, cfg core.Config, onStart func(progress func() arch.Cycles), sinks []bus.Recorder, preRun ...func()) (res Result) {
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
	}, sinks...)
	st := metrics.RunStats{Label: runLabel(canonical), Wall: time.Since(t0)}
	if err != nil {
		return Result{Err: err, Stats: st}
	}
	// ch.Cfg has defaults applied; warmup cycles are simulated (and paid
	// for) too.
	st.SimCycles = int64(ch.Cfg.Window+ch.Cfg.Warmup) * int64(ch.Cfg.NCPU)
	st.Throughput()
	st.BusTxns = ch.Sim.Bus.Stats.Transactions()
	st.ClassifyWait = ch.ClassifyWait
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
	return ExperimentsContext(context.Background(), cfgs, nil, opts)
}

// ExperimentsContext is Experiments under a context: a canceled or
// expired ctx stops every in-flight run before its next bus transaction
// and resolves the remaining slots with *core.CanceledError — every
// submitted config gets a terminal Result either way, in submission
// order. A pooled batch starts its runs longest-first (see longestFirst),
// so the slots a cancel reaches before they start are the cheapest ones.
// Run i feeds its traced window to sinks[i]; sinks is nil or holds one
// (possibly empty) list per config.
func ExperimentsContext(ctx context.Context, cfgs []core.Config, sinks [][]bus.Recorder, opts Options) ([]Result, metrics.BatchStats) {
	n := len(cfgs)
	w := opts.workers(n)
	serial := w == 1
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	out := make([]Result, n)
	order := longestFirst(cfgs, w)
	ForEach(n, opts, func(k int) {
		i := order[k]
		var m0 runtime.MemStats
		if serial {
			runtime.ReadMemStats(&m0)
		}
		var own []bus.Recorder
		if sinks != nil {
			own = sinks[i]
		}
		out[i] = RunOneMonitored(ctx, cfgs[i], nil, own)
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

// longestFirst is the order in which a pool of w workers starts a batch:
// by simulated CPU-cycles, NCPU × (Window+Warmup) of the canonical config,
// descending, with ties in submission order. Started last, the longest
// run of a sweep (Figure 11's 16 CPUs) finishes alone while the other
// workers idle; started first, the short runs fill in around it. A serial
// batch (w == 1) keeps submission order.
func longestFirst(cfgs []core.Config, w int) []int {
	order := make([]int, len(cfgs))
	for i := range order {
		order[i] = i
	}
	if w <= 1 {
		return order
	}
	cost := make([]int64, len(cfgs))
	for i, c := range cfgs {
		c = c.Canonical()
		cost[i] = int64(c.NCPU) * int64(c.Window+c.Warmup)
	}
	sort.SliceStable(order, func(a, b int) bool { return cost[order[a]] > cost[order[b]] })
	return order
}

// runLabel names a run for the timing table.
func runLabel(c core.Config) string {
	return fmt.Sprintf("%s/ncpu%d/seed%d", c.Workload, c.NCPU, c.Seed)
}
