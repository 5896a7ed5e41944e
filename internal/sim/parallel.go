package sim

import (
	"sync"
	"sync/atomic"

	"repro/internal/arch"
	"repro/internal/bus"
)

// The conservative parallel engine. The serial scheduler's invariant is
// that steps execute in (clock-at-step-start, CPU id) order; this engine
// preserves that sequence exactly while extracting parallelism from the
// parts of a step that touch no shared state.
//
// It alternates two phases:
//
//   - Speculation (parallel): the CPUs are partitioned across worker
//     goroutines. Each CPU runs ahead privately through whole user-mode
//     virtual steps — private cache fills journaled, bus-visible effects
//     deferred (bus.Spec) — up to a frozen horizon: its next clock tick,
//     pending interrupt, net interrupt, window end, or any kernel entry
//     (syscalls, faults, behavior draws). Every shared structure is
//     read-only in this phase, so it is race-free by construction.
//
//   - Commit (serial): steps are consumed strictly in the serial
//     (clock, id) order, interleaving speculated steps (their deferred
//     ops replayed onto the bus, statistics, recorder and presence
//     filter) with ordinary serial steps for CPUs that have none. Any
//     committed work that would modify a CPU's caches, TLB or event
//     horizon first truncates that CPU's unconsumed speculation (the
//     bus.OnTouch / kernel.OnEventPost hooks), which rolls its state
//     back via the journal; the steps re-run serially. A speculated
//     Shared-state prediction is re-validated against the live presence
//     filter at replay and a mispredicted step is likewise rolled back
//     and re-run.
//
// The result: every consumed step observes exactly the state the serial
// engine would have produced, so reports are byte-identical at any
// worker count — the determinism fuzz test proves it against the serial
// oracle.

// maxSpecSteps bounds one CPU's run-ahead per phase: deep segments
// amortize phase overhead but raise the cost of a truncation.
const maxSpecSteps = 64

// SpecStats counts parallel-engine activity for metrics and tests.
type SpecStats struct {
	// Phases is the number of speculation/commit rounds.
	Phases int64
	// SpecSteps is the number of virtual steps speculated.
	SpecSteps int64
	// CommittedSteps is how many of them were consumed by the merge.
	CommittedSteps int64
	// TruncatedSteps were discarded (remote touch or event arrival)
	// and re-run serially.
	TruncatedSteps int64
	// Mispredicts counts steps discarded for a stale Shared prediction.
	Mispredicts int64
}

type parEngine struct {
	s       *Simulator
	workers int
	segs    []*specCPU

	// unconsumed is the number of speculated steps awaiting commit.
	unconsumed int
	// canceled is set by a worker that observed the cancel flag.
	canceled atomic.Bool

	stats SpecStats
}

func newParEngine(s *Simulator, workers int) *parEngine {
	if workers > len(s.CPUs) {
		workers = len(s.CPUs)
	}
	e := &parEngine{s: s, workers: workers}
	e.segs = make([]*specCPU, len(s.CPUs))
	for i, c := range s.CPUs {
		e.segs[i] = &specCPU{c: c, bs: bus.NewSpec(s.Bus, c.id)}
	}
	return e
}

// specAllowed reports whether the configuration supports speculation:
// the direct-mapped fast path with a presence filter, no checker, no
// injection, no buffered monitor, and more than one CPU.
func (s *Simulator) specAllowed() bool {
	m := s.Cfg.Machine
	return !s.Cfg.Reference && !s.Cfg.Check &&
		s.Inj == nil && s.Mon == nil &&
		s.Cfg.NCPU > 1 && s.Cfg.NCPU <= 64 &&
		m.ICacheAssoc == 1 && m.DCacheL1Assoc == 1 && m.DCacheL2Assoc == 1
}

// SimWorkers returns the effective intra-run worker count: the
// configured count when the parallel engine engaged, 1 otherwise.
func (s *Simulator) SimWorkers() int {
	if s.par != nil {
		return s.par.workers
	}
	return 1
}

// SpecStats returns the parallel-engine counters (zero when serial).
func (s *Simulator) SpecStats() SpecStats {
	if s.par == nil {
		return SpecStats{}
	}
	return s.par.stats
}

// loopParallel is the parallel counterpart of loop: serial catch-up
// until the minimum CPU can speculate, then alternating speculation and
// commit phases.
func (s *Simulator) loopParallel() {
	e := s.par
	s.Bus.OnTouch = e.touchAddr
	s.Bus.OnTouchAll = e.truncateSpec
	s.K.OnEventPost = e.eventPost
	defer func() {
		s.Bus.OnTouch = nil
		s.Bus.OnTouchAll = nil
		s.K.OnEventPost = nil
	}()
	for {
		// Serial catch-up: run ordinary steps in serial order until a
		// speculation phase can do useful work — the minimum CPU is at a
		// speculation-eligible boundary (it would otherwise have to step
		// serially anyway), or at least two CPUs are (they can overlap
		// even while the minimum catches up serially inside commit).
		for {
			c, _ := s.minPair(s.end)
			if c == nil {
				return
			}
			if e.eligible(c) || e.countEligible() >= 2 {
				break
			}
			s.step(c)
		}
		e.phaseSpec()
		if e.canceled.Load() {
			// A worker saw the cancel flag; re-raise it here on the
			// engine goroutine so RunCancelable's provenance (and the
			// recover path) match the serial engine's.
			c, _ := s.minPair(s.end)
			if c != nil {
				s.pollCancel(c)
			}
			panic(canceledSignal{})
		}
		e.commit()
	}
}

// eligible reports whether c sits at a boundary from which user-mode
// speculation can start: running a process, below the window end, and
// not due for a sync escape, clock tick, pending event, or (CPU 1) the
// periodic net interrupt.
func (e *parEngine) eligible(c *CPU) bool {
	s := e.s
	if c.cur == nil || c.needSync || c.now >= s.end || c.now >= c.nextClockTick {
		return false
	}
	if at, ok := s.K.NextEventTimeFor(c.id); ok && c.now >= at {
		return false
	}
	if c.id == 1 && (s.nextNet == 0 || c.now >= s.nextNet) {
		return false
	}
	return true
}

// countEligible returns how many CPUs could speculate right now.
func (e *parEngine) countEligible() int {
	n := 0
	for _, c := range e.s.CPUs {
		if e.eligible(c) {
			n++
		}
	}
	return n
}

// phaseSpec runs the parallel speculation phase: the CPUs are dealt
// round-robin to fresh worker goroutines, each advancing its CPUs
// privately. Workers touch only their CPUs' private state plus read-only
// shared structures, and are joined before commit starts.
func (e *parEngine) phaseSpec() {
	e.stats.Phases++
	e.unconsumed = 0
	n := len(e.segs)
	w := e.workers
	panics := make([]any, w)
	var wg sync.WaitGroup
	for wi := 0; wi < w; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(canceledSignal); ok {
						e.canceled.Store(true)
						return
					}
					panics[wi] = r
				}
			}()
			for i := wi; i < n; i += w {
				e.specRun(e.segs[i])
			}
		}(wi)
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
	for _, sp := range e.segs {
		e.unconsumed += len(sp.cps)
		e.stats.SpecSteps += int64(len(sp.cps))
		if sp.canceled {
			e.canceled.Store(true)
		}
	}
	if e.canceled.Load() {
		// The segments are garbage; make sure commit never reads them.
		for _, sp := range e.segs {
			sp.cps = sp.cps[:0]
		}
		e.unconsumed = 0
	}
}

// specRun advances one CPU privately through whole virtual steps until a
// frozen horizon, a non-private site, or the per-phase step cap.
func (e *parEngine) specRun(sp *specCPU) {
	s := e.s
	c := sp.c
	sp.reset()
	if c.cur == nil || c.needSync {
		return
	}
	// Freeze the horizons. They are stable for the whole phase: events
	// are only posted and the net timer only advanced by committed
	// steps, and a post targeting this CPU truncates its speculation.
	dueAt, dueOK := s.K.NextEventTimeFor(c.id)
	netAt := s.nextNet
	netDue := c.id == 1
	for len(sp.cps) < maxSpecSteps {
		if s.cancel.Load() {
			sp.canceled = true
			break
		}
		if c.now >= s.end || c.now >= c.nextClockTick {
			break
		}
		if dueOK && c.now >= dueAt {
			break
		}
		if netDue && (netAt == 0 || c.now >= netAt) {
			break
		}
		sp.cps = append(sp.cps, specSnap{})
		c.takeSnap(sp, &sp.cps[len(sp.cps)-1])
		sp.bs.BeginStep(len(sp.cps) - 1)
		deadline := c.now + userBurst
		if c.nextClockTick < deadline {
			deadline = c.nextClockTick
		}
		sp.stopped = false
		c.spec = sp
		s.runUserUntil(c, deadline)
		c.spec = nil
		if sp.canceled {
			break
		}
		if sp.stopped {
			// Partial burst: the commit phase finishes it serially
			// against this deadline after replaying its ops.
			sp.final = true
			sp.finalDeadline = deadline
			break
		}
	}
	sp.opsTotal = len(sp.bs.Ops)
}

// commit consumes speculated steps and ordinary serial steps in exactly
// the serial engine's (clock-at-step-start, CPU id) order until every
// speculated step has been consumed or truncated.
func (e *parEngine) commit() {
	s := e.s
	for e.unconsumed > 0 {
		c := e.commitMin()
		if c == nil {
			return
		}
		sp := e.segs[c.id]
		if sp.cursor < len(sp.cps) {
			e.commitStep(sp)
		} else {
			s.step(c)
		}
	}
}

// commitMin picks the CPU with the smallest committed clock — the clock
// of its next unconsumed speculated step, or its live clock — with the
// serial scheduler's first-index-wins tie break.
func (e *parEngine) commitMin() *CPU {
	s := e.s
	var lo *CPU
	var loNow arch.Cycles
	for _, q := range s.CPUs {
		now := q.now
		if sp := e.segs[q.id]; sp.cursor < len(sp.cps) {
			now = sp.cps[sp.cursor].now
		}
		if now >= s.end {
			continue
		}
		if lo == nil || now < loNow {
			lo, loNow = q, now
		}
	}
	return lo
}

// commitStep consumes one speculated step: validate and replay its
// deferred bus ops, then account it exactly as a serial step would. A
// failed validation rolls the segment back and re-runs the step
// serially.
func (e *parEngine) commitStep(sp *specCPU) {
	s := e.s
	c := sp.c
	k := sp.cursor
	ck := &sp.cps[k]
	s.pollCancel(c)
	from := ck.opsMark
	to := sp.opsTotal
	if k+1 < len(sp.cps) {
		to = sp.cps[k+1].opsMark
	}
	if !s.Bus.ReplayOps(c.id, sp.bs.Ops[from:to]) {
		// Stale Shared prediction: discard this and every later step of
		// the segment, then take the step serially from identical state.
		e.stats.Mispredicts++
		e.truncateFrom(sp, k)
		s.step(c)
		return
	}
	// The serial step's bookkeeping. The run-queue depth read here is
	// live, and therefore exactly the serial value: every serially-
	// earlier step has committed and speculation never moves the queue.
	s.cycle.Store(int64(ck.now))
	s.QDepthSum += int64(s.K.RunnableCount())
	s.QSamples++
	sp.cursor++
	e.unconsumed--
	e.stats.CommittedSteps++
	if sp.final && k == len(sp.cps)-1 {
		// Finish the partial burst serially against its original
		// deadline; the cursor is already past it, so a self-touch
		// cannot re-truncate this step.
		s.runUserUntil(c, sp.finalDeadline)
	}
}

// truncateSpec discards CPU q's entire unconsumed speculation (TLB
// shootdowns, whole-I-cache flushes: no single block to test against).
func (e *parEngine) truncateSpec(q arch.CPUID) {
	if sp := e.segs[q]; sp.cursor < len(sp.cps) {
		e.truncateFrom(sp, sp.cursor)
	}
}

// touchAddr handles a committed bus operation about to modify block a in
// CPU q's caches: q's speculation is truncated from its first unconsumed
// step that depends on a, and left intact when none does.
func (e *parEngine) touchAddr(q arch.CPUID, a arch.PAddr) {
	sp := e.segs[q]
	if sp.cursor >= len(sp.cps) {
		return
	}
	if from, ok := sp.bs.Touched(a, sp.cursor); ok {
		e.truncateFrom(sp, from)
	}
}

// eventPost handles an event posted to CPU q for delivery at `at`: the
// speculated steps whose entry clock is before `at` would have run
// identically (the serial engine checks for due events only at step
// boundaries), so truncation starts at the first step at or past it.
func (e *parEngine) eventPost(q arch.CPUID, at arch.Cycles) {
	sp := e.segs[q]
	for k := sp.cursor; k < len(sp.cps); k++ {
		if sp.cps[k].now >= at {
			e.truncateFrom(sp, k)
			return
		}
	}
}

// truncateFrom rolls segment sp back to the entry state of step k,
// dropping steps k.. entirely.
func (e *parEngine) truncateFrom(sp *specCPU, k int) {
	ck := &sp.cps[k]
	sp.bs.TruncateTo(ck.opsMark, ck.jMark)
	sp.bs.TruncAccess(k)
	sp.c.restoreSnap(ck)
	dropped := len(sp.cps) - k
	e.unconsumed -= dropped
	e.stats.TruncatedSteps += int64(dropped)
	sp.cps = sp.cps[:k]
	sp.opsTotal = ck.opsMark
	sp.final = false
}
