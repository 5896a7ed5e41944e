package check

import (
	"fmt"

	"repro/internal/arch"
)

// heldLock is one kernel lock currently held by a CPU, with acquisition
// provenance for diagnostics.
type heldLock struct {
	key     any
	fam     int
	name    string
	cycle   arch.Cycles
	routine string
}

// intrLock returns whether interrupt handlers are known to take locks of
// the given family, growing the dense family table on demand (it replaces
// a name-keyed map on the per-acquire hot path).
func (k *Checker) intrLock(fam int) bool {
	return fam < len(k.intrLocks) && k.intrLocks[fam]
}

func (k *Checker) markIntrLock(fam int) {
	if fam >= len(k.intrLocks) {
		grown := make([]bool, fam+1)
		copy(grown, k.intrLocks)
		k.intrLocks = grown
	}
	k.intrLocks[fam] = true
}

// OnAcquire observes a lock acquisition that has just succeeded. key must
// identify the lock instance (lock families share names, so the name
// alone is ambiguous); fam is the interned family ID used for the
// interrupt-discipline table; user-level locks are exempt from the kernel
// discipline — a user lock's holder can be preempted, migrated, or time
// out — and are not tracked.
func (k *Checker) OnAcquire(cpu arch.CPUID, key any, fam int, name string, user bool, now arch.Cycles) {
	if user {
		return
	}
	k.Checks++
	for _, h := range k.held[cpu] {
		if h.key == key {
			k.report(&CheckError{
				Kind: LockViolation, Cycle: now, CPU: cpu, Lock: name,
				Routine: k.routine(cpu),
				Detail:  "double acquire of a spinlock already held by this CPU (self-deadlock)",
				Owner:   cpu, OwnerCycle: h.cycle, OwnerRoutine: h.routine, HasOwner: true,
			})
			return
		}
	}
	// A kernel spinlock held across an accepted interrupt deadlocks if
	// the handler takes the same lock; the checker learns which locks
	// interrupt handlers take and flags any acquisition at base level
	// that is later interrupted (see OnInterruptEnter).
	if k.intrDepth[cpu] > 0 {
		k.markIntrLock(fam)
	}
	k.held[cpu] = append(k.held[cpu], heldLock{key: key, fam: fam, name: name, cycle: now, routine: k.routine(cpu)})
}

// OnRelease observes a lock release about to happen. Releasing a lock the
// CPU does not hold is a discipline violation; if another CPU holds it,
// the error carries that owner's provenance.
func (k *Checker) OnRelease(cpu arch.CPUID, key any, fam int, name string, user bool, now arch.Cycles) {
	if user {
		return
	}
	k.Checks++
	hs := k.held[cpu]
	for i, h := range hs {
		if h.key == key {
			k.held[cpu] = append(hs[:i], hs[i+1:]...)
			return
		}
	}
	e := &CheckError{
		Kind: LockViolation, Cycle: now, CPU: cpu, Lock: name,
		Routine: k.routine(cpu),
		Detail:  "release of a spinlock this CPU does not hold",
	}
	for q := 0; q < k.n; q++ {
		for _, h := range k.held[q] {
			if h.key == key {
				e.Detail = fmt.Sprintf("release of a spinlock held by CPU %d", q)
				e.Owner, e.OwnerCycle, e.OwnerRoutine, e.HasOwner = arch.CPUID(q), h.cycle, h.routine, true
			}
		}
	}
	k.report(e)
}

// OnInterruptEnter observes a CPU accepting an interrupt. Accepting one
// while holding a lock that interrupt handlers are known to take is the
// classic spl-discipline bug: the handler would spin on a lock its own
// CPU holds.
func (k *Checker) OnInterruptEnter(cpu arch.CPUID, now arch.Cycles) {
	k.Checks++
	if k.intrDepth[cpu] == 0 {
		for _, h := range k.held[cpu] {
			if k.intrLock(h.fam) {
				k.report(&CheckError{
					Kind: LockViolation, Cycle: now, CPU: cpu, Lock: h.name,
					Routine: k.routine(cpu),
					Detail:  "interrupt accepted while holding a lock that interrupt handlers acquire",
					Owner:   cpu, OwnerCycle: h.cycle, OwnerRoutine: h.routine, HasOwner: true,
				})
			}
		}
	}
	k.intrDepth[cpu]++
}

// OnInterruptExit observes the matching return-from-interrupt.
func (k *Checker) OnInterruptExit(cpu arch.CPUID) {
	if k.intrDepth[cpu] > 0 {
		k.intrDepth[cpu]--
	}
}
