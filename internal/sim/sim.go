package sim

import (
	"math"
	"sync/atomic"

	"repro/internal/arch"
	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/check"
	"repro/internal/inject"
	"repro/internal/kernel"
	"repro/internal/monitor"
	"repro/internal/sample"
	"repro/internal/tlb"
)

// Config tunes the simulator. Window and Warmup have no defaults here:
// core.Config.withDefaults is the one place they are chosen, and every
// caller passes both.
type Config struct {
	// Machine is the simulated hardware; the zero value means
	// arch.Default() (the measured 4D/340). NCPU, when set, overrides
	// Machine.NCPU — existing callers and CLI flags keep working.
	Machine arch.Machine
	// NCPU is the processor count (default Machine.NCPU).
	NCPU int
	// Seed drives all randomness.
	Seed int64
	// Window is the traced portion of the run in cycles.
	Window arch.Cycles
	// Warmup runs before tracing is enabled so that cold-start
	// transients are excluded (the paper traces a running system).
	Warmup arch.Cycles
	// NoTrace disables the monitor entirely (kernel-counter-only runs,
	// e.g. the Figure 11 CPU sweeps).
	NoTrace bool
	// Streaming skips the monitor: no Monitor is built, and the recorder
	// assigned to Simulator.Stream (e.g. an inline trace.Classifier) is
	// attached to the bus when tracing starts instead.
	Streaming bool
	// UpdateProtocol switches the bus to write-update coherence (the
	// protocol ablation).
	UpdateProtocol bool
	// Reference runs the generic oracle paths end to end: way-loop/LRU
	// caches, full snoop broadcasts with no presence filter, and the
	// rescan-every-step scheduler. The fast path must produce
	// byte-identical reports; core's differential test proves it.
	Reference bool
	// Check enables the invariant checker (shadow memory, coherence,
	// lock discipline). Off by default: it costs time and memory.
	Check bool
	// Inject, when non-nil and enabled, perturbs the run with
	// deterministic faults.
	Inject *inject.Config
	// SimWorkers > 1 enables the conservative parallel engine: the
	// machine's CPUs are partitioned across that many goroutines, each
	// speculating privately between bus-commit points, with a
	// deterministic merge that keeps reports byte-identical to the
	// serial engine (0 or 1). It silently falls back to serial when the
	// configuration doesn't support speculation (reference/check/inject
	// runs, a buffered monitor, set-associative geometries, 1 CPU, or
	// more CPUs than the presence filter covers).
	SimWorkers int
	// Sample, when enabled, makes Run stop at the schedule's measured-
	// interval boundaries to call OnMeasure. What is simulated does not
	// depend on it: the stops fall between steps.
	Sample sample.Schedule
	// Kernel carries kernel tuning; NCPU and Seed are propagated.
	Kernel kernel.Config
}

func (c Config) withDefaults() Config {
	if c.Machine == (arch.Machine{}) {
		c.Machine = arch.Default()
	}
	if c.NCPU == 0 {
		c.NCPU = c.Machine.NCPU
	} else {
		c.Machine.NCPU = c.NCPU
	}
	c.Kernel.Machine = c.Machine
	c.Kernel.NCPU = c.NCPU
	c.Kernel.Seed = c.Seed
	return c
}

// userBurst caps how long a CPU runs user code per step, bounding the
// clock skew between CPUs (and therefore the lock-interval approximation
// error).
const userBurst = 2000

// netPeriod is how often CPU 1 takes a network interrupt (≈2 ms): the
// trace-transfer daemons of Section 2.1.
const netPeriod = 70_000

// idleStep is how far an idle CPU advances per poll of the run queue.
const idleStep = 400

// Simulator owns the machine and the kernel.
type Simulator struct {
	Cfg Config
	K   *kernel.Kernel
	Bus *bus.System
	// Mon records the traced window's transactions (nil on streaming and
	// no-trace runs).
	Mon *monitor.Monitor
	// Stream, when non-nil, is attached to the bus at trace start (after
	// warmup) and consumes every transaction inline. Set it before Run —
	// typically to a trace.Classifier, which core wires up. Streaming
	// runs only: a run with a Monitor feeds the monitor alone.
	Stream bus.Recorder
	CPUs   []*CPU
	// Chk is the invariant checker (nil unless Cfg.Check).
	Chk *check.Checker
	// Inj is the fault injector (nil unless Cfg.Inject is enabled).
	Inj *inject.Injector
	// par is the conservative parallel engine (nil when running serial:
	// SimWorkers ≤ 1 or an unsupported configuration).
	par *parEngine

	// OnMeasure, when set on a run with a Cfg.Sample schedule, is called
	// with true as each measured interval begins and false as it ends,
	// every CPU at a step boundary — core snapshots and differences the
	// classifier's counts there.
	OnMeasure func(measuring bool)

	traceEscapes bool
	end          arch.Cycles
	nextNet      arch.Cycles

	// cancel is the cooperative cancellation flag. Cancel (any goroutine)
	// sets it; the CPUs poll it before every bus transaction they issue,
	// so a canceled run unwinds before the next transaction starts. The
	// flag is never set on an ordinary run, so the uncanceled step
	// sequence — and therefore every report — is byte-identical to a
	// build without it.
	cancel atomic.Bool
	// cycle is the simulated-cycle heartbeat: the clock of the most
	// recently stepped CPU, stored every step so watchdogs on other
	// goroutines can tell a slow run from a wedged one.
	cycle atomic.Int64

	// Cached routine pointers for the per-step hot paths (resolved once
	// at construction, avoiding the KText name-map lookup per call).
	rIdleLoop    *kernel.Routine
	rLockAcquire *kernel.Routine
	rLockRelease *kernel.Routine

	// TraceStartAt is when tracing was enabled (for rate computations).
	TraceStartAt arch.Cycles
	// BaseCounters is the kernel-counter snapshot at trace start; the
	// traced window's counters are K.Counters().Sub(BaseCounters).
	BaseCounters kernel.Counters
	// OpCycles accumulates kernel time by high-level operation (for
	// calibration and the Figure 9 cross-check).
	OpCycles [kernel.NumOps]arch.Cycles
	// Run-queue depth sampling (diagnostics).
	QDepthSum int64
	QSamples  int64
	// ICacheFlushes counts code-page-reallocation flushes.
	ICacheFlushes int64
}

// New builds a simulator. Workloads then create processes through
// Kernel() and call Run.
func New(cfg Config) *Simulator {
	cfg = cfg.withDefaults()
	s := &Simulator{Cfg: cfg}
	s.K = kernel.New(cfg.Kernel)
	s.rIdleLoop = s.K.T.R("idle_loop")
	s.rLockAcquire = s.K.T.R("lock_acquire")
	s.rLockRelease = s.K.T.R("lock_release")
	// The recorder (the monitor, or the streaming Stream) is attached at
	// trace start (Run), once warmup is over.
	s.Bus = bus.NewSystem(cfg.Machine, nil)
	if !cfg.NoTrace && !cfg.Streaming {
		s.Mon = &monitor.Monitor{}
	}
	if cfg.UpdateProtocol {
		s.Bus.Proto = bus.WriteUpdate
	}
	if cfg.Reference {
		s.Bus.SetReference(true)
	}
	if cfg.Check {
		s.Chk = check.New(s.Bus, cfg.Machine.MemFrames())
		if len(s.K.T.Routines) >= math.MaxUint16 {
			panic("sim: kernel routine IDs overflow the checker's 16-bit routine ID")
		}
		s.Chk.RoutineOf = func(q arch.CPUID) uint16 { return s.CPUs[q].RoutineID() }
		s.Chk.RoutineName = func(id uint16) string { return s.K.T.ByID(int(id) - 1).Name }
		s.Bus.Check = s.Chk
	}
	if cfg.Inject != nil && cfg.Inject.Enabled() {
		icfg := *cfg.Inject
		if icfg.Seed == 0 {
			// Derive a private fault seed from the run seed so every
			// injected run replays from (-seed, -inject) alone.
			icfg.Seed = cfg.Seed*1_000_003 + 77
		}
		s.Inj = inject.New(icfg, cfg.NCPU)
		s.Bus.Jitter = s.Inj.Jitter
	}
	s.CPUs = make([]*CPU, cfg.NCPU)
	for i := range s.CPUs {
		s.CPUs[i] = &CPU{
			id:            arch.CPUID(i),
			sim:           s,
			tlb:           tlb.New(cfg.Machine.TLBEntries),
			ic:            s.Bus.I[i],
			dc:            s.Bus.D[i],
			hitFilter:     s.Chk == nil,
			mode:          arch.ModeKernel,
			nextClockTick: arch.ClockTickCycles + arch.Cycles(i*1000),
		}
	}
	if cfg.SimWorkers > 1 && s.specAllowed() {
		s.par = newParEngine(s, cfg.SimWorkers)
	}
	return s
}

// Kernel returns the kernel instance for workload setup.
func (s *Simulator) Kernel() *kernel.Kernel { return s.K }

// CheckErrors returns the invariant violations collected so far (nil when
// the checker is disabled; see check.Checker.Violations for the full
// count when more than the cap occurred).
func (s *Simulator) CheckErrors() []*check.CheckError {
	if s.Chk == nil {
		return nil
	}
	return s.Chk.Errors()
}

// canceledSignal unwinds a canceled run out of arbitrarily deep kernel
// call stacks; RunCancelable recovers it. The simulator is abandoned
// mid-flight afterwards — only Progress (for provenance) remains
// meaningful.
type canceledSignal struct{}

// Cancel requests cooperative termination. Safe to call from any
// goroutine, any number of times; the run's CPUs observe the flag before
// issuing their next bus transaction and unwind out of RunCancelable.
func (s *Simulator) Cancel() { s.cancel.Store(true) }

// Canceled reports whether Cancel has been called.
func (s *Simulator) Canceled() bool { return s.cancel.Load() }

// Progress returns the simulated cycle most recently reached — the
// per-run heartbeat. Safe to call concurrently with a running simulation;
// it only ever moves forward (modulo per-CPU clock skew bounded by
// userBurst).
func (s *Simulator) Progress() arch.Cycles { return arch.Cycles(s.cycle.Load()) }

// pollCancel is the per-transaction cancellation check: every CPU calls
// it immediately before issuing a bus transaction, so once the flag is
// set no further transaction starts.
func (s *Simulator) pollCancel(c *CPU) {
	if s.cancel.Load() {
		s.cycle.Store(int64(c.now))
		panic(canceledSignal{})
	}
}

// RunCancelable executes Run but allows a concurrent Cancel to stop it
// between bus transactions. It reports whether the run completed; a
// false return means the simulator was abandoned at Progress() cycles
// with its internal state torn mid-operation — read nothing but
// Progress from it.
func (s *Simulator) RunCancelable() (completed bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(canceledSignal); !ok {
				panic(r)
			}
		}
	}()
	s.Run()
	return true
}

// Run executes warmup plus the traced window.
func (s *Simulator) Run() {
	// Wire memory down to the circulating pool (see kernel.Config).
	s.K.WireAllBut(s.K.Cfg.PoolFrames)
	// Initial schedule: each CPU picks its first process (or idles).
	for _, c := range s.CPUs {
		s.beginOS(c, kernel.OpOtherSyscall)
		s.scheduleNext(c, nil, false)
	}
	// Warmup, no recorder attached.
	s.end = s.Cfg.Warmup
	s.loop()
	// Attach the recorder, synchronize per-CPU state into the trace.
	s.traceEscapes = true
	if s.Mon != nil {
		s.Bus.SetRecorder(s.Mon)
	} else if s.Stream != nil {
		s.Bus.SetRecorder(s.Stream)
	}
	s.TraceStartAt = s.minClock()
	s.BaseCounters = s.K.Counters()
	s.K.Locks.ResetStats()
	s.CPUs[0].Escape(monitor.EvTraceStart)
	// Initial-state dump: which frames hold code (the postprocessor
	// needs this to tell instruction fetches from data reads in user
	// space).
	for _, fr := range s.K.CodeFrames() {
		s.CPUs[0].Escape(monitor.EvPageAlloc, fr, uint32(1))
	}
	for _, c := range s.CPUs {
		c.needSync = true
		// Reset accounting so reported fractions cover the traced
		// window only.
		c.Time = [3]arch.Cycles{}
		c.Stall = [3]arch.Cycles{}
		c.L2Stall = [3]arch.Cycles{}
		c.SyncCycles = 0
	}
	// The traced window, with a stop at each measured-interval boundary
	// of the sampling schedule (none when sampling is off). A stop falls
	// between steps — where the parallel engine's workers have quiesced
	// too — so the step sequence is the same with or without it.
	if s.OnMeasure != nil {
		for _, iv := range s.Cfg.Sample.Intervals(s.Cfg.Window) {
			s.end = s.TraceStartAt + iv.Start
			s.loop()
			s.OnMeasure(true)
			s.end = s.TraceStartAt + iv.End
			s.loop()
			s.OnMeasure(false)
		}
	}
	s.end = s.TraceStartAt + s.Cfg.Window
	s.loop()
}

// StateHash fingerprints the architectural state of the whole machine —
// every I-cache, both data-cache levels and the TLB of each CPU. Two runs
// that took the same trajectory (e.g. a sampled and an unsampled run of
// the same configuration) end with equal hashes; the sampling tests
// assert exactly that.
func (s *Simulator) StateHash() uint64 {
	h := cache.HashSeed()
	for q, c := range s.CPUs {
		h = s.Bus.I[q].StateHash(h)
		h = s.Bus.D[q].StateHash(h)
		h = c.tlb.StateHash(h, cache.HashMix)
	}
	return h
}

// minPair is the one source of truth for "next CPU to step": among CPUs
// with now < limit it returns the one with the smallest clock (ties broken
// by lowest CPU id, i.e. first-index-wins, exactly like the original scan)
// plus the runner-up under the same ordering. Both are nil when every CPU
// has reached the limit.
func (s *Simulator) minPair(limit arch.Cycles) (lo, next *CPU) {
	for _, q := range s.CPUs {
		if q.now >= limit {
			continue
		}
		switch {
		case lo == nil || q.now < lo.now:
			lo, next = q, lo
		case next == nil || q.now < next.now:
			next = q
		}
	}
	return lo, next
}

func (s *Simulator) minClock() arch.Cycles {
	c, _ := s.minPair(arch.Cycles(math.MaxInt64))
	if c == nil {
		// Unreachable with a finite limit, but a simulator with zero
		// CPUs (or a future caller passing a real limit) must not nil-
		// deref; the window end is the only sensible clock then.
		return s.end
	}
	return c.now
}

// loop steps the CPU with the smallest clock until all pass s.end.
//
// The fast path batches: stepping a CPU only advances that CPU's clock, so
// once chosen it stays the minimum until it overtakes the runner-up — the
// scheduler scan is paid per batch, not per step. On a tie the lower CPU id
// runs first (minPair's ordering), so the step sequence is exactly the one
// the rescan-every-step reference policy produces.
func (s *Simulator) loop() {
	if s.Cfg.Reference {
		s.loopReference()
		return
	}
	if s.par != nil {
		s.loopParallel()
		return
	}
	for {
		c, next := s.minPair(s.end)
		if c == nil {
			return
		}
		if next == nil {
			// Sole CPU still below the window end: run it out.
			for c.now < s.end {
				s.step(c)
			}
			continue
		}
		for c.now < s.end && (c.now < next.now || (c.now == next.now && c.id < next.id)) {
			s.step(c)
		}
	}
}

// loopReference is the original O(N)-per-step scheduler, kept verbatim as
// the reference oracle for the batching loop above.
func (s *Simulator) loopReference() {
	for {
		var c *CPU
		for _, q := range s.CPUs {
			if q.now < s.end && (c == nil || q.now < c.now) {
				c = q
			}
		}
		if c == nil {
			return
		}
		s.step(c)
	}
}

// step runs one bounded unit of work on a CPU.
func (s *Simulator) step(c *CPU) {
	s.pollCancel(c)
	s.cycle.Store(int64(c.now))
	s.QDepthSum += int64(s.K.RunnableCount())
	s.QSamples++
	if c.needSync {
		c.needSync = false
		s.syncEscape(c)
	}
	// Fault injection: deterministic perturbations delivered at step
	// boundaries, where an interrupt could also arrive. Faults may move
	// performance counters; the checker proves they never move
	// correctness.
	if in := s.Inj; in != nil {
		if in.DueEvict(int(c.id), c.now) {
			in.Stats.Evictions += int64(s.Bus.InjectEvictRandom(in.Rng(), c.id, in.Cfg.EvictBurst, c.now))
		}
		if in.DueIFlush(int(c.id), c.now) {
			in.Stats.IFlushes++
			s.Bus.InjectIFlush(c.id, c.now)
		}
		if in.DueIntr(int(c.id), c.now) {
			in.Stats.ExtraInterrupts++
			s.interrupt(c, kernel.IntrNet, func() { s.K.NetIntr(c) })
			return
		}
		if c.cur != nil && in.DueMigrate(int(c.id), c.now) {
			// Preempt the running process and requeue it; whichever CPU
			// picks it up next refills its cache footprint from scratch.
			in.Stats.ForcedMigrations++
			pr := c.cur
			s.beginOS(c, kernel.OpOtherSyscall)
			s.K.EnterException(c, pr)
			c.cur = nil
			s.scheduleNext(c, pr, true)
			return
		}
	}
	// Asynchronous interrupts for this CPU.
	if ev, ok := s.K.PopDueEventFor(c.id, c.now); ok {
		s.interrupt(c, ev.Kind, func() {
			if ev.Kind == kernel.IntrDisk {
				s.K.DiskIntr(c, ev.Ch)
			} else {
				s.K.NetIntr(c)
			}
		})
		return
	}
	// Periodic network activity on CPU 1.
	if c.id == 1 {
		if s.nextNet == 0 {
			s.nextNet = c.now + netPeriod
		}
		if c.now >= s.nextNet {
			s.nextNet = c.now + netPeriod
			s.interrupt(c, kernel.IntrNet, func() { s.K.NetIntr(c) })
			return
		}
	}
	// The 10 ms clock.
	if c.now >= c.nextClockTick {
		c.nextClockTick += arch.ClockTickCycles
		s.clockTick(c)
		return
	}
	if c.cur == nil {
		s.idleLoop(c)
		return
	}
	s.runUser(c)
}

// syncEscape records the CPU's state at trace start so the postprocessor
// knows the initial mode and process of every CPU.
func (s *Simulator) syncEscape(c *CPU) {
	if c.cur != nil {
		c.Escape(monitor.EvRunProc, uint32(c.cur.PID))
		return
	}
	// Idle: reopen the OS/idle window in the trace.
	c.Escape(monitor.EvEnterOS, uint32(kernel.OpOtherSyscall), 0)
	c.Escape(monitor.EvEnterIdle)
}

// beginOS opens an OS invocation: escape, mode switch, op accounting.
func (s *Simulator) beginOS(c *CPU, op kernel.OpKind) {
	s.K.CountOp(op)
	var pid arch.PID
	if c.cur != nil {
		pid = c.cur.PID
	}
	c.Escape(monitor.EvEnterOS, uint32(op), uint32(pid))
	c.mode = arch.ModeKernel
	c.inOS = true
	c.curOp = op
	c.osStart = c.now
}

// endOS closes the OS invocation and returns to user mode.
func (s *Simulator) endOS(c *CPU) {
	c.Escape(monitor.EvExitOS)
	c.inOS = false
	c.mode = arch.ModeUser
	s.OpCycles[c.curOp] += c.now - c.osStart
	c.osStart = 0
}

// enterIdle parks the CPU in the OS idle loop (the OS window stays open,
// as in Figure 1's "OS in the Idle Loop" segment).
func (s *Simulator) enterIdle(c *CPU) {
	c.Escape(monitor.EvEnterIdle)
	c.mode = arch.ModeIdle
	s.OpCycles[c.curOp] += c.now - c.osStart
	c.osStart = c.now // further time is idle, not op time
	c.cur = nil
}

// intrEnter/intrExit tell the checker an interrupt is being accepted and
// has returned, so the lock/interrupt-masking invariant can be verified.
func (s *Simulator) intrEnter(c *CPU) {
	if s.Chk != nil {
		s.Chk.OnInterruptEnter(c.id, c.now)
	}
}

func (s *Simulator) intrExit(c *CPU) {
	if s.Chk != nil {
		s.Chk.OnInterruptExit(c.id)
	}
}

// interrupt wraps an interrupt handler in the right trace events for the
// CPU's current state (user mode or inside the idle loop).
func (s *Simulator) interrupt(c *CPU, kind kernel.IntrKind, handler func()) {
	if c.inOS {
		// Interrupted the idle loop: stay inside the open OS window.
		s.K.CountOp(kernel.OpInterrupt)
		c.Escape(monitor.EvEnterIntr, uint32(kind))
		c.mode = arch.ModeKernel
		start := c.now
		s.intrEnter(c)
		handler()
		s.intrExit(c)
		s.OpCycles[kernel.OpInterrupt] += c.now - start
		c.Escape(monitor.EvExitIntr)
		if s.K.RunnableCount() > 0 {
			c.Escape(monitor.EvExitIdle)
			c.osStart = c.now
			s.scheduleNext(c, nil, false)
			return
		}
		c.mode = arch.ModeIdle
		return
	}
	pr := c.cur
	s.beginOS(c, kernel.OpInterrupt)
	c.Escape(monitor.EvEnterIntr, uint32(kind))
	s.intrEnter(c)
	s.K.EnterException(c, pr)
	handler()
	s.intrExit(c)
	c.Escape(monitor.EvExitIntr)
	s.K.ExitException(c, pr)
	s.endOS(c)
}

// clockTick delivers the scheduler tick, preempting the current process at
// quantum expiry.
func (s *Simulator) clockTick(c *CPU) {
	if c.inOS {
		// Tick during idle.
		s.K.CountOp(kernel.OpInterrupt)
		c.Escape(monitor.EvEnterIntr, uint32(kernel.IntrClock))
		c.mode = arch.ModeKernel
		start := c.now
		s.intrEnter(c)
		s.K.ClockIntr(c, nil, c.now)
		s.intrExit(c)
		s.OpCycles[kernel.OpInterrupt] += c.now - start
		c.Escape(monitor.EvExitIntr)
		if s.K.RunnableCount() > 0 {
			c.Escape(monitor.EvExitIdle)
			c.osStart = c.now
			s.scheduleNext(c, nil, false)
			return
		}
		c.mode = arch.ModeIdle
		return
	}
	pr := c.cur
	s.beginOS(c, kernel.OpInterrupt)
	c.Escape(monitor.EvEnterIntr, uint32(kernel.IntrClock))
	s.intrEnter(c)
	s.K.EnterException(c, pr)
	resched := s.K.ClockIntr(c, pr, c.now)
	s.intrExit(c)
	c.Escape(monitor.EvExitIntr)
	if resched {
		c.cur = nil
		s.scheduleNext(c, pr, true)
		return
	}
	s.K.ExitException(c, pr)
	s.endOS(c)
}

// scheduleNext context-switches to the next ready process, running any
// pending kernel continuation it holds; with nothing runnable the CPU
// idles. Called inside an open OS window.
func (s *Simulator) scheduleNext(c *CPU, old *kernel.Proc, requeue bool) {
	for {
		next := s.K.ContextSwitch(c, old, requeue)
		if next == nil {
			s.enterIdle(c)
			return
		}
		c.cur = next
		c.flushMicroTLB()
		if cont, _ := s.K.TakeContinuation(next); cont != nil {
			switch cont(c, next) {
			case kernel.SysBlocked:
				c.cur = nil
				old, requeue = nil, false
				continue
			case kernel.SysYield:
				c.cur = nil
				old, requeue = next, true
				continue
			case kernel.SysExited:
				c.cur = nil
				old, requeue = nil, false
				continue
			}
		}
		s.K.ExitException(c, next)
		s.endOS(c)
		return
	}
}

// idleLoop advances an idle CPU: poll the run queue, pick up work when it
// appears.
func (s *Simulator) idleLoop(c *CPU) {
	if s.K.RunnableCount() > 0 {
		c.Escape(monitor.EvExitIdle)
		c.mode = arch.ModeKernel
		c.osStart = c.now
		s.scheduleNext(c, nil, false)
		return
	}
	// Spin in the idle loop: fetch it and poll the run-queue head.
	c.execQuiet(s.rIdleLoop)
	c.dataRef(s.K.L.RunQueue.Base, false)
	c.adv(idleStep)
}

// doSyscall performs one system call as a full OS invocation.
func (s *Simulator) doSyscall(c *CPU, req kernel.SyscallReq) {
	pr := c.cur
	s.beginOS(c, kernel.OpKindOf(req))
	s.K.EnterException(c, pr)
	st := s.K.Syscall(c, pr, req)
	s.settle(c, pr, st)
}

// doExit terminates the current process.
func (s *Simulator) doExit(c *CPU) {
	pr := c.cur
	s.beginOS(c, kernel.OpOtherSyscall)
	s.K.EnterException(c, pr)
	st := s.K.ExitProc(c, pr)
	s.settle(c, pr, st)
}

// settle finishes an OS invocation according to the syscall status.
func (s *Simulator) settle(c *CPU, pr *kernel.Proc, st kernel.SysStatus) {
	switch st {
	case kernel.SysDone:
		s.K.ExitException(c, pr)
		s.endOS(c)
	case kernel.SysBlocked, kernel.SysExited:
		c.cur = nil
		s.scheduleNext(c, nil, false)
	case kernel.SysYield:
		c.cur = nil
		s.scheduleNext(c, pr, true)
	}
}

// pageFault services an expensive TLB fault as its own OS invocation.
func (s *Simulator) pageFault(c *CPU, pr *kernel.Proc, vpage uint32, write bool) {
	s.beginOS(c, kernel.OpExpensiveTLB)
	s.K.EnterException(c, pr)
	s.K.LockShr(c, pr)
	s.K.PageFault(c, pr, vpage, write)
	s.K.UnlockShr(c, pr)
	s.K.ExitException(c, pr)
	s.endOS(c)
}
