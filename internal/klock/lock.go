// Package klock models the kernel's synchronization: spinlocks whose
// accesses travel over the machine's dedicated synchronization bus and are
// therefore invisible to the hardware monitor (Section 2.1). Following the
// paper's methodology, the locks themselves keep statistics — acquires,
// first-attempt failures, waiters at release, same-CPU locality, spin
// attempts — which a measurement process snapshots before and after a run
// (Section 2.2).
//
// The package also implements the Section 5.1 re-simulation: replaying the
// logged lock-access sequence under a cacheable load-linked/
// store-conditional protocol (MIPS R4000 style) to estimate the stall time
// if locks used the main bus and caches.
package klock

import (
	"sort"

	"repro/internal/arch"
	"repro/internal/check"
)

// Cost model for the synchronization bus. Each test-and-set style attempt
// is an uncached sync-bus operation; the protocol's lack of an atomic
// read-modify-write makes every operation expensive (Section 5.1).
const (
	// SyncOpCycles is the cost of one sync-bus transaction.
	SyncOpCycles = 25
	// AcquireCycles is the cost of one successful acquire: without an
	// atomic read-modify-write the protocol needs a read, a set, and a
	// verify round on the synchronization bus (Section 5.1).
	AcquireCycles = 4 * SyncOpCycles
	// ReleaseCycles is a single releasing write.
	ReleaseCycles = SyncOpCycles
	// SpinGapCycles is the delay between consecutive spin attempts on a
	// held lock.
	SpinGapCycles = 25
)

// Event is one successful acquire in a lock's access log.
type Event struct {
	Time   arch.Cycles // when the acquire succeeded
	CPU    arch.CPUID
	Failed bool // first attempt found the lock taken
}

// interval is one completed hold of the lock.
type interval struct {
	start, end arch.Cycles
	cpu        arch.CPUID
	waiters    int
}

const ringSize = 64

// Lock is one kernel spinlock (or one element of a lock array such as
// Shr_x or Ino_x). Locks are used by the single-threaded simulator; they
// are not Go mutexes.
type Lock struct {
	// Name identifies the lock; array elements share their family name.
	Name string
	// Family is the interned integer ID of the lock's family, assigned
	// sequentially by the Registry (array elements share it). The
	// invariant checker indexes its interrupt-discipline table by this
	// ID instead of the name string. User locks keep 0; they are exempt
	// from the kernel lock discipline.
	Family int
	// User marks user-level synchronization-library locks, which are
	// excluded from the OS synchronization statistics but still use the
	// sync bus and trigger sginap after repeated failures.
	User bool

	// ring holds the last ringSize completed holds. The first Release
	// allocates it: a kernel has hundreds of array-element locks and
	// most are never acquired.
	ring  *[ringSize]interval
	ringN int // total intervals ever recorded

	heldBy    arch.CPUID
	heldSince arch.Cycles
	held      bool
	// pendingWaiters counts waiters that arrived during the current
	// (unreleased) hold; transferred to its interval at Release.
	pendingWaiters int

	// ownerRoutine is the kernel routine that performed the most recent
	// acquire (diagnostics only; see NoteOwner).
	ownerRoutine string

	log []Event

	acquires          int64
	failed            int64
	attempts          int64 // acquire attempts including spins
	releases          int64
	relWithWaiters    int64
	waitersSum        int64
	firstAcq, lastAcq arch.Cycles
}

// NewLock returns an unheld lock.
func NewLock(name string) *Lock { return &Lock{Name: name} }

// heldAt returns the recorded interval of another CPU covering time t with
// the latest end, if any.
func (l *Lock) heldAt(t arch.Cycles, cpu arch.CPUID) *interval {
	var best *interval
	n := ringSize
	if l.ringN < n {
		n = l.ringN
	}
	for i := 0; i < n; i++ {
		iv := &l.ring[i]
		if iv.cpu != cpu && iv.start <= t && t < iv.end {
			if best == nil || iv.end > best.end {
				best = iv
			}
		}
	}
	return best
}

// Acquire attempts to take the lock at time now on the given CPU. It
// returns the time at which the acquire succeeded (== now when the lock was
// free) and the number of spin attempts beyond the first. The caller is
// responsible for advancing its clock to acquiredAt and charging the
// sync-bus cost of the attempts.
//
// Contention is detected against recorded hold intervals of other CPUs: the
// simulator steps one CPU's kernel invocation to completion before stepping
// another, so every conflicting hold is already recorded by the time a
// later-stepped CPU acquires (see DESIGN.md §4).
func (l *Lock) Acquire(cpu arch.CPUID, now arch.Cycles) (acquiredAt arch.Cycles, spins int) {
	if l.held && !l.User && l.heldBy == cpu {
		// A kernel spinlock re-acquired by its holder would spin on
		// itself forever.
		panic(&check.CheckError{
			Kind: check.LockViolation, Cycle: now, CPU: cpu, Lock: l.Name,
			Detail: "double acquire of a held spinlock by the same CPU (self-deadlock)",
			Owner:  l.heldBy, OwnerCycle: l.heldSince, OwnerRoutine: l.ownerRoutine, HasOwner: true,
		})
	}
	t := now
	failedFirst := false
	// A pending (unreleased) hold by another CPU can only be a user
	// lock held across preemption; its end is unknown, so wait a
	// nominal critical section past the later of now and the hold
	// start.
	if l.held && l.heldBy != cpu {
		failedFirst = true
		l.failed++
		l.noteWaiterOnPending()
		wait := l.heldSince + 100 - t
		if wait < 100 {
			wait = 100
		}
		spins += int(wait/SpinGapCycles) + 1
		t += wait
	}
	for {
		iv := l.heldAt(t, cpu)
		if iv == nil {
			break
		}
		if !failedFirst {
			failedFirst = true
			l.failed++
		}
		iv.waiters++
		if iv.waiters == 1 {
			l.relWithWaiters++
		}
		l.waitersSum++
		wait := iv.end - t
		spins += int(wait/SpinGapCycles) + 1
		t = iv.end
	}
	l.acquires++
	l.attempts += int64(1 + spins)
	if l.acquires == 1 {
		l.firstAcq = t
	}
	l.lastAcq = t
	l.held = true
	l.heldBy = cpu
	l.heldSince = t
	l.log = append(l.log, Event{Time: t, CPU: cpu, Failed: failedFirst})
	return t, spins
}

// TryAcquire is the user synchronization library's bounded acquire: it
// spins for at most maxWait cycles and gives up if the lock is still held
// (the library then issues sginap, Section 4.1). Failed tries are counted
// as failed acquires and spin attempts but do not appear in the acquire
// log.
func (l *Lock) TryAcquire(cpu arch.CPUID, now, maxWait arch.Cycles) (acquiredAt arch.Cycles, ok bool, spins int) {
	t := now
	deadline := now + maxWait
	failedFirst := false
	// A pending hold (a user-lock holder that may have been preempted —
	// possibly by the very process now trying, so a same-CPU pending
	// hold is just as contended): its release time is unknown, so spin
	// out the deadline and give up — the sginap path.
	if l.held && (l.User || l.heldBy != cpu) {
		l.failed++
		l.noteWaiterOnPending()
		spent := int(maxWait/SpinGapCycles) + 1
		l.attempts += int64(spent)
		return deadline, false, spent
	}
	for {
		iv := l.heldAt(t, cpu)
		if iv == nil {
			break
		}
		if !failedFirst {
			failedFirst = true
			l.failed++
		}
		iv.waiters++
		if iv.waiters == 1 {
			l.relWithWaiters++
		}
		l.waitersSum++
		if iv.end > deadline {
			// Give up: we spun until the deadline.
			spent := int((deadline-t)/SpinGapCycles) + 1
			spins += spent
			l.attempts += int64(spent)
			return deadline, false, spins
		}
		wait := iv.end - t
		spins += int(wait/SpinGapCycles) + 1
		t = iv.end
	}
	l.acquires++
	l.attempts += int64(1 + spins)
	if l.acquires == 1 {
		l.firstAcq = t
	}
	l.lastAcq = t
	l.held = true
	l.heldBy = cpu
	l.heldSince = t
	l.log = append(l.log, Event{Time: t, CPU: cpu, Failed: failedFirst})
	return t, true, spins
}

// Release frees the lock at time now, recording the completed hold
// interval. The interval is keyed to the CPU that acquired the lock:
// kernel spinlocks are always released where they were acquired, but a
// user-level lock holder can be preempted and resume on another CPU
// (which is exactly why the synchronization library falls back to sginap).
func (l *Lock) Release(cpu arch.CPUID, now arch.Cycles) {
	if !l.held {
		e := &check.CheckError{
			Kind: check.LockViolation, Cycle: now, CPU: cpu, Lock: l.Name,
			Detail: "release of a lock that is not held",
		}
		if l.acquires > 0 {
			// Last-holder provenance: heldBy/heldSince survive Release.
			e.Owner, e.OwnerCycle, e.OwnerRoutine, e.HasOwner = l.heldBy, l.heldSince, l.ownerRoutine, true
		}
		panic(e)
	}
	if !l.User && l.heldBy != cpu {
		panic(&check.CheckError{
			Kind: check.LockViolation, Cycle: now, CPU: cpu, Lock: l.Name,
			Detail: "kernel spinlock released by a CPU that does not hold it",
			Owner:  l.heldBy, OwnerCycle: l.heldSince, OwnerRoutine: l.ownerRoutine, HasOwner: true,
		})
	}
	end := now
	if end <= l.heldSince {
		end = l.heldSince + 1 // a hold takes at least a cycle
	}
	if l.ring == nil {
		l.ring = new([ringSize]interval)
	}
	l.ring[l.ringN%ringSize] = interval{
		start: l.heldSince, end: end, cpu: l.heldBy, waiters: l.pendingWaiters,
	}
	l.ringN++
	l.releases++
	l.held = false
	l.pendingWaiters = 0
}

// noteWaiterOnPending records a waiter against the current unreleased
// hold.
func (l *Lock) noteWaiterOnPending() {
	l.pendingWaiters++
	if l.pendingWaiters == 1 {
		l.relWithWaiters++
	}
	l.waitersSum++
}

// Held reports whether the lock is in a pending hold (between Acquire and
// Release on the currently-stepped CPU).
func (l *Lock) Held() bool { return l.held }

// NoteOwner records the kernel routine that performed the most recent
// acquire, so a later discipline violation can name it.
func (l *Lock) NoteOwner(routine string) { l.ownerRoutine = routine }

// ResetStats clears the statistics and the acquire log (but not the
// hold-interval ring, which contention detection still needs). The
// measurement process calls this when tracing starts so statistics cover
// the measured window only, mirroring the before/after snapshot of
// Section 2.2.
func (l *Lock) ResetStats() {
	l.log = nil
	l.acquires = 0
	l.failed = 0
	l.attempts = 0
	l.releases = 0
	l.relWithWaiters = 0
	l.waitersSum = 0
	l.pendingWaiters = 0
	l.firstAcq = 0
	l.lastAcq = 0
}

// Log returns the acquire log (not sorted).
func (l *Lock) Log() []Event { return l.log }

// Acquires returns the number of successful acquires.
func (l *Lock) Acquires() int64 { return l.acquires }

// sortedLog returns the acquire events in time order. Events are logged in
// per-CPU-step order, which can be locally out of order across CPUs.
func (l *Lock) sortedLog() []Event {
	out := make([]Event, len(l.log))
	copy(out, l.log)
	sort.Slice(out, func(i, j int) bool { return out[i].Time < out[j].Time })
	return out
}

// Stats is the per-lock characterization of Table 12.
type Stats struct {
	Name     string
	Acquires int64
	Failed   int64
	Attempts int64

	// CyclesBetweenAcq is the average number of cycles between two
	// consecutive successful acquires (Table 12 column 2; includes CPU
	// idle time).
	CyclesBetweenAcq float64
	// PctFailed is the percentage of acquire attempts that found the
	// lock taken (first attempts only, ignoring spins), column 3.
	PctFailed float64
	// AvgWaitersIfAny is the mean number of waiters at releases that
	// had at least one waiter, column 4.
	AvgWaitersIfAny float64
	// PctSameCPU is the percentage of successful acquires by the same
	// CPU as the previous acquire with no intervening access by another
	// CPU, column 5.
	PctSameCPU float64
	// CachedBusOps and UncachedOps are the bus-access counts of the
	// cacheable-lock replay and of the sync-bus protocol; their ratio
	// is column 6.
	CachedBusOps int64
	UncachedOps  int64
	// PctCachedVsUncached is 100*CachedBusOps/UncachedOps.
	PctCachedVsUncached float64
}

// ComputeStats derives the Table 12 characterization from the lock's
// counters and log.
func (l *Lock) ComputeStats() Stats {
	s := Stats{
		Name:     l.Name,
		Acquires: l.acquires,
		Failed:   l.failed,
		Attempts: l.attempts,
	}
	if l.acquires > 1 {
		s.CyclesBetweenAcq = float64(l.lastAcq-l.firstAcq) / float64(l.acquires-1)
	}
	if l.acquires > 0 {
		s.PctFailed = 100 * float64(l.failed) / float64(l.acquires)
	}
	if l.relWithWaiters > 0 {
		s.AvgWaitersIfAny = float64(l.waitersSum) / float64(l.relWithWaiters)
	}
	log := l.sortedLog()
	s.PctSameCPU = pctSameCPU(log)
	s.CachedBusOps = ReplayCached(log)
	s.UncachedOps = l.uncachedOps()
	if s.UncachedOps > 0 {
		s.PctCachedVsUncached = 100 * float64(s.CachedBusOps) / float64(s.UncachedOps)
	}
	return s
}

// uncachedOps is the number of off-cache lock accesses under the current
// machine's protocol: every acquire attempt (including spins) plus every
// release. This is the denominator of Table 12's cached/uncached ratio.
func (l *Lock) uncachedOps() int64 { return l.attempts + l.releases }

// stallCycles is the CPU time the protocol costs: a multi-transaction
// acquire (no atomic RMW), one transaction per spin and per release.
func (l *Lock) stallCycles() arch.Cycles {
	spins := l.attempts - l.acquires
	if spins < 0 {
		spins = 0
	}
	return arch.Cycles(l.acquires)*AcquireCycles +
		arch.Cycles(spins)*SyncOpCycles +
		arch.Cycles(l.releases)*ReleaseCycles
}

// pctSameCPU computes the fraction of acquires performed by the same CPU
// as the previous acquire with no other CPU touching the lock in between.
// A failed first attempt by another CPU counts as an intervening touch, so
// the sequence must be examined acquire by acquire.
func pctSameCPU(log []Event) float64 {
	if len(log) < 2 {
		return 0
	}
	same := 0
	for i := 1; i < len(log); i++ {
		// An intervening failed attempt by a third CPU would have
		// become a (possibly later) successful acquire in the log;
		// treat consecutive same-CPU successes as local.
		if log[i].CPU == log[i-1].CPU && !log[i].Failed {
			same++
		}
	}
	return 100 * float64(same) / float64(len(log)-1)
}

// ReplayCached replays a time-ordered acquire log under the cacheable
// LL/SC protocol of Section 5.1 and returns the number of main-bus
// accesses it would generate. A CPU re-acquiring a lock nobody touched
// since its own last access pays no bus access; a migrating acquire pays
// one; an acquire whose first attempt failed pays two more (the spin load
// and the refetch after the holder's releasing store invalidates it).
func ReplayCached(log []Event) int64 {
	var ops int64
	lastCPU := arch.CPUID(-1)
	for _, e := range log {
		if e.CPU != lastCPU {
			ops++
		}
		if e.Failed {
			ops += 2
		}
		lastCPU = e.CPU
	}
	return ops
}

// SyncCost summarizes the CPU stall attributable to this lock under both
// protocols (Table 10): the sync-bus protocol charges SyncOpCycles per
// operation; the cacheable-lock machine charges missStall (the machine's
// per-bus-access stall, arch.MissStallCycles on the measured one) per
// replay bus access.
func (l *Lock) SyncCost(missStall arch.Cycles) (current, rmwCached arch.Cycles) {
	current = l.stallCycles()
	rmwCached = arch.Cycles(ReplayCached(l.sortedLog())) * missStall
	return current, rmwCached
}
