// Package core is the characterization pipeline — the paper's contribution
// as an API. One call builds the simulated 4D/340, boots the kernel model,
// runs a workload under the hardware monitor, postprocesses the bus trace
// with the Section 2.2 methodology, and exposes every quantity the paper's
// tables and figures report.
//
//	ch := core.Run(core.Config{Workload: workload.Pmake})
//	user, sys, idle := ch.TimeSplit()
//	all, os, induced := ch.StallPct()
package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"time"

	"repro/internal/arch"
	"repro/internal/bus"
	"repro/internal/cachesweep"
	"repro/internal/check"
	"repro/internal/inject"
	"repro/internal/kernel"
	"repro/internal/sample"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Config selects a workload and machine configuration.
type Config struct {
	// Workload is one of workload.Pmake, Multpgm, Oracle.
	Workload workload.Kind
	// Machine is the simulated hardware; the zero value means
	// arch.Default() (the measured 4D/340). NCPU, when set, overrides
	// Machine.NCPU.
	Machine arch.Machine
	// NCPU is the processor count (default Machine.NCPU).
	NCPU int
	// Seed makes runs reproducible (default 1).
	Seed int64
	// Window is the traced window in cycles (default 12M ≈ 0.36 s at
	// 33 MHz); Warmup defaults to half the window.
	Window arch.Cycles
	Warmup arch.Cycles
	// Affinity enables cache-affinity scheduling (the §4.2.2 ablation).
	Affinity bool
	// OptimizedText lays out the kernel image to avoid I-cache
	// conflicts between hot paths (the §4.2.1 ablation).
	OptimizedText bool
	// BlockOpBypass routes block copies/clears around the caches (the
	// §4.2.2 ablation).
	BlockOpBypass bool
	// UpdateProtocol switches coherence from write-invalidate to
	// write-update (a protocol ablation beyond the paper).
	UpdateProtocol bool
	// NoTrace disables the monitor and the classification; only kernel
	// and lock statistics are collected (used by the Figure 11 sweeps).
	NoTrace bool
	// Buffered selects the postprocess pipeline, the default's
	// differential oracle: the monitor records the window's whole trace
	// and the classifier and sinks replay it after the run, as the paper's
	// monitor + postprocess flow did. The default streams the transactions
	// through a bounded chunk pipe to them on their own goroutine and
	// stores no trace. Both must produce byte-identical reports; no
	// product path sets Buffered.
	Buffered bool
	// CollectIResim records the I-miss stream for Figure 6 sweeps.
	CollectIResim bool
	// CollectDResim records the data-miss stream for the §4.2.2
	// data-cache sweep.
	CollectDResim bool
	// Check enables the invariant checker (shadow memory, coherence,
	// lock discipline); violations land in Characterization.CheckErrors.
	Check bool
	// Inject, when non-nil and enabled, runs the workload under
	// deterministic fault injection.
	Inject *inject.Config
	// Sample, when enabled, tallies the classifier's counts over the
	// schedule's measured intervals (see the sample package) and fills
	// Characterization.Sampled with the per-class estimate and its
	// standard errors. The run itself is unchanged. Requires the
	// streaming classifier: incompatible with NoTrace and Buffered.
	// Included in Hash() — a sampled run's report is not a full run's.
	Sample sample.Schedule

	// reference runs the generic oracle paths (way-loop caches, full snoop
	// broadcasts, rescan-every-step scheduler) instead of the memory-system
	// fast path. Reports must be byte-identical either way, so it is not a
	// product mode: only the package's differential test sets it.
	reference bool

	tombstone
}

// Validate names what makes a configuration unrunnable, after defaults
// are applied: every binary and the service call it on what the user
// typed, and RunMonitored panics with its error.
func (c Config) Validate() error {
	c = c.withDefaults()
	if err := c.Machine.Validate(); err != nil {
		return err
	}
	if (c.CollectIResim || c.CollectDResim) && c.NCPU > trace.MaxResimCPUs {
		return fmt.Errorf("resim streams cover at most %d CPUs, not %d", trace.MaxResimCPUs, c.NCPU)
	}
	if !c.Sample.Enabled() {
		return nil
	}
	if err := c.Sample.Validate(); err != nil {
		return err
	}
	if c.NoTrace || c.Buffered {
		// The interval tally is read from the classifier mid-run.
		return errors.New("sample: needs the streaming classifier (not with notrace or buffered)")
	}
	if c.Sample.Samples(c.Window) == 0 {
		return fmt.Errorf("sample: schedule %s fits no measured interval in a window of %d cycles", c.Sample, c.Window)
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Window <= 0 {
		c.Window = arch.DefaultWindow
	}
	if c.Warmup <= 0 {
		c.Warmup = c.Window / 2
	}
	if c.Machine == (arch.Machine{}) {
		c.Machine = arch.Default()
	}
	if c.NCPU == 0 {
		c.NCPU = c.Machine.NCPU
	} else {
		c.Machine.NCPU = c.NCPU
	}
	return c
}

// Canonical returns the config with every default applied — the form the
// simulator actually runs and the form Hash digests. Two configs that
// canonicalize equal produce byte-identical runs.
func (c Config) Canonical() Config { return c.withDefaults() }

// Hash returns the canonical content hash of the config: a hex SHA-256
// over every field after default resolution. Runs are deterministic, so
// the hash content-addresses the run's entire output — it keys the
// experiment service's result cache and tags every structured run error.
func (c Config) Hash() string {
	c = c.withDefaults()
	h := sha256.New()
	fmt.Fprintf(h, "workload=%s;machine=%+v;ncpu=%d;seed=%d;window=%d;warmup=%d;",
		c.Workload, c.Machine, c.NCPU, c.Seed, c.Window, c.Warmup)
	// reference=false is a literal: the reference paths render the same
	// report, so a reference run shares its default twin's content address.
	fmt.Fprintf(h, "affinity=%t;opttext=%t;blockop=%t;update=%t;notrace=%t;buffered=%t;reference=false;iresim=%t;dresim=%t;check=%t;",
		c.Affinity, c.OptimizedText, c.BlockOpBypass, c.UpdateProtocol, c.NoTrace,
		c.Buffered, c.CollectIResim, c.CollectDResim, c.Check)
	if c.Inject != nil {
		fmt.Fprintf(h, "inject=%+v;", *c.Inject)
	}
	if c.Sample.Enabled() {
		// Appended only when sampling is on, so every pre-sampling hash
		// (and cached result keyed by it) is unchanged.
		fmt.Fprintf(h, "sample=%s;", c.Sample)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Provenance identifies a run in structured errors: which configuration
// (by canonical content hash), which seed and workload, and how many
// simulated cycles it reached before stopping.
type Provenance struct {
	ConfigHash string
	Workload   string
	Seed       int64
	Cycle      arch.Cycles
}

func (p Provenance) String() string {
	hash := p.ConfigHash
	if len(hash) > 12 {
		hash = hash[:12]
	}
	return fmt.Sprintf("%s/seed%d cfg=%s cycle=%d", p.Workload, p.Seed, hash, p.Cycle)
}

// ErrCanceled is the sentinel every cooperative cancellation matches via
// errors.Is, whatever the trigger (context cancel, deadline, watchdog).
var ErrCanceled = errors.New("run canceled")

// CanceledError is the structured error of a run that was stopped before
// completion. It wraps both ErrCanceled and the cancellation cause, so
// errors.Is works against either.
type CanceledError struct {
	Provenance
	// Cause is the reason: context.Canceled, context.DeadlineExceeded,
	// or a service-level cause (watchdog stall, drain).
	Cause error
}

func (e *CanceledError) Error() string {
	return fmt.Sprintf("run canceled (%s): %v", e.Provenance, e.Cause)
}

func (e *CanceledError) Unwrap() []error { return []error{ErrCanceled, e.Cause} }

// The sample package duplicates trace.NumClasses so it can stay a leaf
// (sim imports sample; trace's tests import sim). This conversion stops
// compiling the moment the two constants disagree.
var _ = sample.Counts(trace.ClassCounts{})

// Characterization holds everything measured in one run.
type Characterization struct {
	Cfg   Config
	Sim   *sim.Simulator
	Trace *trace.Result // nil when Cfg.NoTrace
	// Ops are the traced-window kernel counters.
	Ops kernel.Counters
	// CheckErrors are the invariant violations found when Cfg.Check was
	// set (nil/empty on a clean run).
	CheckErrors []*check.CheckError
	// Sampled is the per-class estimate extrapolated from the measured
	// intervals of Cfg.Sample, with standard errors (nil when sampling
	// is off). Trace is the exact whole-window result either way, so
	// the estimate can be read against the counts it approximates.
	Sampled *sample.Estimate
	// ClassifyWait is the wall-clock the simulating goroutine spent
	// blocked on the streaming classifier: a full chunk ring, the sample
	// barriers and the final drain (zero on buffered and no-trace runs).
	ClassifyWait time.Duration
}

// Run executes the full pipeline.
func Run(cfg Config) *Characterization {
	ch, err := RunContext(context.Background(), cfg)
	if err != nil {
		// Unreachable: a background context is never canceled.
		panic(err)
	}
	return ch
}

// RunContext executes the full pipeline under ctx. When ctx is canceled
// or its deadline passes, the simulation stops before its next bus
// transaction and a *CanceledError carrying the run's provenance (config
// hash, seed, cycle reached) is returned. Completed runs are untouched
// by the machinery: their Characterization is byte-identical to Run's.
func RunContext(ctx context.Context, cfg Config) (*Characterization, error) {
	return RunMonitored(ctx, cfg, nil)
}

// RunMonitored is RunContext plus a progress probe: just before the
// simulation starts, onStart (if non-nil) receives a function that
// reports the simulated cycle most recently reached, safe to call from
// other goroutines for the life of the run. Watchdogs use it as the
// per-run heartbeat to tell slow from wedged. Each sink is fed the
// traced window's transactions in bus order after the classifier, on the
// classifier's goroutine; a sink on a NoTrace config panics.
func RunMonitored(ctx context.Context, cfg Config, onStart func(progress func() arch.Cycles), sinks ...bus.Recorder) (*Characterization, error) {
	cfg = cfg.withDefaults()
	canceled := func(cycle arch.Cycles) *CanceledError {
		cause := context.Cause(ctx)
		if cause == nil {
			cause = ErrCanceled
		}
		return &CanceledError{
			Provenance: Provenance{ConfigHash: cfg.Hash(), Workload: cfg.Workload.String(),
				Seed: cfg.Seed, Cycle: cycle},
			Cause: cause,
		}
	}
	if ctx.Err() != nil {
		return nil, canceled(0)
	}
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("core: %v", err))
	}
	streaming := !cfg.NoTrace && !cfg.Buffered
	s := sim.New(sim.Config{
		Machine:        cfg.Machine,
		NCPU:           cfg.NCPU,
		Seed:           cfg.Seed,
		Window:         cfg.Window,
		Warmup:         cfg.Warmup,
		NoTrace:        cfg.NoTrace,
		Streaming:      streaming,
		UpdateProtocol: cfg.UpdateProtocol,
		Reference:      cfg.reference,
		Check:          cfg.Check,
		Inject:         cfg.Inject,
		Sample:         cfg.Sample,
		Kernel: kernel.Config{Affinity: cfg.Affinity, OptimizedText: cfg.OptimizedText,
			BlockOpBypass: cfg.BlockOpBypass},
	})
	var cl *trace.Classifier
	var recs []bus.Recorder
	var p *pipe
	if !cfg.NoTrace {
		cl = newClassifier(s.K.T, s.K.L, cfg.NCPU)
		cl.CollectIResim = cfg.CollectIResim
		cl.CollectDResim = cfg.CollectDResim
		recs = append([]bus.Recorder{cl}, sinks...)
		if streaming {
			// The classifier and the sinks run behind the chunk pipe
			// on its own goroutine, fed every transaction in bus
			// order. The pipe is closed on every exit path, so no run
			// leaves its consumer behind.
			p = newPipe(ctx, recs...)
			defer p.close()
			s.Stream = p
		}
	} else if len(sinks) > 0 {
		panic("core: a NoTrace run records no transactions for its sinks")
	}
	var acc *sample.Accumulator
	if cfg.Sample.Enabled() {
		// Each measured interval's tally is the classifier-count delta
		// across that interval alone, read once the pipe has drained.
		acc = sample.NewAccumulator(cfg.Sample, cfg.Window)
		var snap sample.Counts
		s.OnMeasure = func(measuring bool) {
			p.sync()
			if measuring {
				snap = cl.CountsSnapshot()
				return
			}
			acc.Add(sample.Diff(cl.CountsSnapshot(), snap))
		}
	}
	workload.Setup(s.Kernel(), cfg.Workload)
	if onStart != nil {
		onStart(s.Progress)
	}
	if done := ctx.Done(); done != nil {
		// Relay ctx cancellation onto the simulator's cooperative flag.
		// The relay goroutine is reaped on every exit path, so canceled
		// and completed runs alike leak nothing.
		finished := make(chan struct{})
		defer close(finished)
		go func() {
			select {
			case <-done:
				s.Cancel()
			case <-finished:
			}
		}()
	}
	if !s.RunCancelable() {
		return nil, canceled(s.Progress())
	}
	ch := &Characterization{
		Cfg:         cfg,
		Sim:         s,
		Ops:         s.K.Counters().Sub(s.BaseCounters),
		CheckErrors: s.CheckErrors(),
	}
	if cl != nil {
		if streaming {
			p.close()
			ch.ClassifyWait = p.wait
		} else {
			// Postprocess path: replay the monitor's recorded trace, as
			// the paper's postprocessor did.
			feedAll(recs, s.Mon.Trace())
		}
		ch.Trace = cl.Finish()
	}
	if acc != nil {
		ch.Sampled = acc.Estimate()
	}
	// The run is over: cut every edge from the kept simulator to state
	// no report reads, so the classifier and the checker's shadow pages
	// are collected while the Characterization lives on.
	s.Stream, s.OnMeasure = nil, nil
	s.Bus.SetRecorder(nil)
	if s.Chk != nil {
		s.Chk.Finish()
	}
	return ch, nil
}

// newClassifier builds a run's classifier; the package's tests wrap it to
// watch the classifier's lifetime.
var newClassifier = trace.NewClassifier

// NonIdle returns the non-idle execution cycles of the traced window
// (summed over CPUs).
func (c *Characterization) NonIdle() arch.Cycles {
	var n arch.Cycles
	for _, cpu := range c.Sim.CPUs {
		n += cpu.Time[arch.ModeUser] + cpu.Time[arch.ModeKernel]
	}
	return n
}

// TimeSplit returns the user/system/idle percentages (Table 1 columns
// 2-4).
func (c *Characterization) TimeSplit() (user, sys, idle float64) {
	var u, s, i arch.Cycles
	for _, cpu := range c.Sim.CPUs {
		u += cpu.Time[arch.ModeUser]
		s += cpu.Time[arch.ModeKernel]
		i += cpu.Time[arch.ModeIdle]
	}
	tot := float64(u + s + i)
	if tot == 0 {
		return 0, 0, 0
	}
	return 100 * float64(u) / tot, 100 * float64(s) / tot, 100 * float64(i) / tot
}

// OSMissShare returns OS misses / total misses (Table 1 column 5).
func (c *Characterization) OSMissShare() float64 {
	return 100 * c.Trace.OSShare()
}

// StallPct returns the Table 1 stall columns: all misses, OS misses only,
// and OS plus OS-induced application misses, each as a percentage of
// non-idle time (35 cycles per monitored bus access, §3.1).
func (c *Characterization) StallPct() (all, osOnly, osInduced float64) {
	nonIdle := float64(c.NonIdle())
	if nonIdle == 0 {
		return 0, 0, 0
	}
	r := c.Trace
	induced := r.Counts[0][0][trace.DispOS] + r.Counts[0][1][trace.DispOS]
	stall := int64(c.Cfg.Machine.MissStallCycles)
	all = 100 * float64(r.Total*stall) / nonIdle
	osOnly = 100 * float64(r.OSMissTotal*stall) / nonIdle
	osInduced = osOnly + 100*float64(induced*stall)/nonIdle
	return all, osOnly, osInduced
}

// stallShare converts a miss count into its stall percentage of non-idle
// time, returning 0 for a degenerate all-idle window.
func (c *Characterization) stallShare(misses int64) float64 {
	nonIdle := float64(c.NonIdle())
	if nonIdle == 0 {
		return 0
	}
	return 100 * float64(misses*int64(c.Cfg.Machine.MissStallCycles)) / nonIdle
}

// OSIMissStallPct returns the stall share of OS instruction misses
// (Table 9 column 3).
func (c *Characterization) OSIMissStallPct() float64 {
	return c.stallShare(c.Trace.ClassSum(1, 1))
}

// MigrationStallPct returns the stall share of migration data misses
// (Tables 4 and 9).
func (c *Characterization) MigrationStallPct() float64 {
	return c.stallShare(c.Trace.MigrationTotal)
}

// BlockOpStallPct returns the stall share of block-operation data misses
// (Tables 6 and 9).
func (c *Characterization) BlockOpStallPct() float64 {
	var n int64
	for _, v := range c.Trace.BlockOpDMisses {
		n += v
	}
	return c.stallShare(n)
}

// SyncStallPct returns the Table 10 synchronization stall estimates: the
// sync-bus protocol of the measured machine and the simulated cacheable
// atomic-RMW scenario, as percentages of non-idle time.
func (c *Characterization) SyncStallPct() (current, rmwCached float64) {
	cur, rmw := c.Sim.K.Locks.TotalSyncStall(c.Cfg.Machine.MissStallCycles)
	nonIdle := float64(c.NonIdle())
	if nonIdle == 0 {
		return 0, 0
	}
	return 100 * float64(cur) / nonIdle, 100 * float64(rmw) / nonIdle
}

// Figure6 runs the cache sweep (requires CollectIResim).
func (c *Characterization) Figure6() cachesweep.Figure6Result {
	if c.Trace == nil || len(c.Trace.IResim) == 0 {
		panic("core: Figure6 requires CollectIResim")
	}
	return cachesweep.Figure6(c.Trace.IResim, c.Cfg.NCPU)
}

// DefaultDSweepConfigs returns the canonical data-cache sweep points of
// the §4.2.2 discussion, starting from the measured machine's 256 KB L2.
// The geometry entry (charos -exp geometry) re-runs the full system at the
// direct-mapped points of this same list, so the replay and direct sweeps
// share one config source.
func DefaultDSweepConfigs() []cachesweep.Config {
	return []cachesweep.Config{
		{Size: 256 << 10, Assoc: 1}, // the measured machine's L2
		{Size: 512 << 10, Assoc: 1},
		{Size: 1 << 20, Assoc: 1},
		{Size: 4 << 20, Assoc: 2},
	}
}

// DCacheSweep replays the data-miss stream against larger and associative
// coherence-level caches (requires CollectDResim): the paper's §4.2.2
// argument that Sharing misses set a floor no capacity removes. A nil cfgs
// runs DefaultDSweepConfigs.
func (c *Characterization) DCacheSweep(cfgs []cachesweep.Config) []cachesweep.DPoint {
	if c.Trace == nil || len(c.Trace.DResim) == 0 {
		panic("core: DCacheSweep requires CollectDResim")
	}
	if cfgs == nil {
		cfgs = DefaultDSweepConfigs()
	}
	return cachesweep.DSweep(c.Trace.DResim, c.Cfg.NCPU, cfgs)
}
