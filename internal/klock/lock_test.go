package klock

import (
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/arch"
)

func TestUncontendedAcquire(t *testing.T) {
	l := NewLock("x")
	at, spins := l.Acquire(0, 100)
	if at != 100 || spins != 0 {
		t.Fatalf("Acquire = (%d,%d), want (100,0)", at, spins)
	}
	if !l.Held() {
		t.Error("lock should be held")
	}
	l.Release(0, 200)
	if l.Held() {
		t.Error("lock should be free after release")
	}
	s := l.ComputeStats()
	if s.Acquires != 1 || s.Failed != 0 || s.Attempts != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestContendedAcquireWaits(t *testing.T) {
	l := NewLock("x")
	// CPU 0 holds [100, 600).
	l.Acquire(0, 100)
	l.Release(0, 600)
	// CPU 1 tries at 300: must wait until 600 and record a failure.
	at, spins := l.Acquire(1, 300)
	if at != 600 {
		t.Fatalf("acquiredAt = %d, want 600", at)
	}
	if spins != int(300/SpinGapCycles)+1 {
		t.Errorf("spins = %d, want %d", spins, 300/SpinGapCycles+1)
	}
	l.Release(1, 700)
	s := l.ComputeStats()
	if s.Failed != 1 || s.Acquires != 2 {
		t.Errorf("stats = %+v", s)
	}
	if s.PctFailed != 50 {
		t.Errorf("PctFailed = %v, want 50", s.PctFailed)
	}
	if s.AvgWaitersIfAny != 1 {
		t.Errorf("AvgWaitersIfAny = %v, want 1", s.AvgWaitersIfAny)
	}
}

func TestChainedHoldsAreWaitedThrough(t *testing.T) {
	l := NewLock("x")
	l.Acquire(0, 100)
	l.Release(0, 300)
	l.Acquire(2, 300)
	l.Release(2, 500)
	// CPU 1 tries at 200: CPU0 holds till 300, CPU2 till 500.
	at, _ := l.Acquire(1, 200)
	if at != 500 {
		t.Fatalf("acquiredAt = %d, want 500 (chained waits)", at)
	}
}

func TestSameCPUReacquireDoesNotConflict(t *testing.T) {
	l := NewLock("x")
	l.Acquire(0, 100)
	l.Release(0, 300)
	// Same CPU re-acquiring inside its own recorded interval (possible
	// only through time skew) must not deadlock against itself.
	at, _ := l.Acquire(0, 200)
	if at != 200 {
		t.Errorf("self-overlap acquire at %d, want 200", at)
	}
	l.Release(0, 250)
}

func TestReleaseByWrongCPUPanics(t *testing.T) {
	l := NewLock("x")
	l.Acquire(0, 10)
	defer func() {
		if recover() == nil {
			t.Error("wrong-CPU release did not panic")
		}
	}()
	l.Release(1, 20)
}

func TestZeroLengthHoldGetsMinimumInterval(t *testing.T) {
	l := NewLock("x")
	l.Acquire(0, 100)
	l.Release(0, 100) // degenerate
	at, _ := l.Acquire(1, 100)
	if at != 101 {
		t.Errorf("acquire inside minimum interval at %d, want 101", at)
	}
}

func TestCyclesBetweenAcquires(t *testing.T) {
	l := NewLock("x")
	for i := 0; i < 5; i++ {
		at := arch.Cycles(1000 * (i + 1))
		l.Acquire(arch.CPUID(i%2), at)
		l.Release(arch.CPUID(i%2), at+10)
	}
	s := l.ComputeStats()
	if s.CyclesBetweenAcq != 1000 {
		t.Errorf("CyclesBetweenAcq = %v, want 1000", s.CyclesBetweenAcq)
	}
}

func TestPctSameCPULocality(t *testing.T) {
	l := NewLock("x")
	// Pattern: CPU0 ×4, CPU1 ×1 → 3 same-CPU transitions of 4.
	times := []arch.Cycles{100, 200, 300, 400, 500}
	cpus := []arch.CPUID{0, 0, 0, 0, 1}
	for i := range times {
		l.Acquire(cpus[i], times[i])
		l.Release(cpus[i], times[i]+5)
	}
	s := l.ComputeStats()
	if s.PctSameCPU != 75 {
		t.Errorf("PctSameCPU = %v, want 75", s.PctSameCPU)
	}
}

func TestReplayCached(t *testing.T) {
	log := []Event{
		{Time: 1, CPU: 0},               // migrate in: 1 op
		{Time: 2, CPU: 0},               // local: 0
		{Time: 3, CPU: 1},               // migrate: 1
		{Time: 4, CPU: 0, Failed: true}, // migrate + contended: 1+2
	}
	if ops := ReplayCached(log); ops != 5 {
		t.Errorf("ReplayCached = %d, want 5", ops)
	}
	if ReplayCached(nil) != 0 {
		t.Error("empty replay should be 0")
	}
}

func TestHighLocalityLockHasLowCachedRatio(t *testing.T) {
	// A Dfbmaplk-like lock: always the same CPU, never contended.
	l := NewLock(Dfbmaplk)
	for i := 0; i < 100; i++ {
		at := arch.Cycles(1000 * i)
		l.Acquire(0, at)
		l.Release(0, at+20)
	}
	s := l.ComputeStats()
	if s.PctFailed != 0 {
		t.Errorf("PctFailed = %v, want 0", s.PctFailed)
	}
	if s.PctSameCPU < 99 {
		t.Errorf("PctSameCPU = %v, want ~100", s.PctSameCPU)
	}
	// Cached machine: ~1 bus access total; uncached: ~200 ops.
	if s.PctCachedVsUncached > 2 {
		t.Errorf("cached/uncached = %v%%, want <2%% for perfect locality", s.PctCachedVsUncached)
	}
}

func TestBouncingLockHasHighCachedRatio(t *testing.T) {
	// A Calock-like lock: alternating CPUs.
	l := NewLock(Calock)
	for i := 0; i < 100; i++ {
		at := arch.Cycles(1000 * i)
		l.Acquire(arch.CPUID(i%2), at)
		l.Release(arch.CPUID(i%2), at+20)
	}
	s := l.ComputeStats()
	if s.PctSameCPU > 1 {
		t.Errorf("PctSameCPU = %v, want ~0", s.PctSameCPU)
	}
	// cached = 100 migrations; uncached = 200 ops → 50%.
	if s.PctCachedVsUncached < 40 || s.PctCachedVsUncached > 60 {
		t.Errorf("cached/uncached = %v%%, want ≈50%%", s.PctCachedVsUncached)
	}
}

func TestSyncCost(t *testing.T) {
	l := NewLock("x")
	l.Acquire(0, 100)
	l.Release(0, 120)
	cur, rmw := l.SyncCost(arch.MissStallCycles)
	// One multi-transaction acquire plus one releasing write.
	if cur != AcquireCycles+ReleaseCycles {
		t.Errorf("current = %d, want %d", cur, AcquireCycles+ReleaseCycles)
	}
	// 1 replay bus access (cold).
	if rmw != arch.MissStallCycles {
		t.Errorf("rmw = %d, want %d", rmw, arch.MissStallCycles)
	}
}

func TestRegistryBasics(t *testing.T) {
	r := NewRegistry(90, 16, 536, 32)
	if r.Get(Memlock).Name != Memlock {
		t.Error("Get(Memlock) wrong")
	}
	if r.Elem(InoX, 5).Name != InoX {
		t.Error("Elem(InoX) wrong")
	}
	// Element indexing wraps.
	if r.Elem(ShrX, 95) != r.Elem(ShrX, 5) {
		t.Error("array indexing should wrap modulo length")
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown lock name should panic")
		}
	}()
	r.Get("nope")
}

// TestUntouchedLockHasNoRing: a kernel builds 680 locks per run and
// acquires a fraction of them, so a lock costs its counters until its first
// Release records a hold — the ring is neither inline nor allocated up front.
func TestUntouchedLockHasNoRing(t *testing.T) {
	if sz := unsafe.Sizeof(Lock{}); sz >= 256 {
		t.Errorf("Lock is %d bytes, want < 256: the hold ring must not be inline", sz)
	}
	const nlocks = 6 + 90 + 16 + 536 + 32
	var r *Registry
	allocs := testing.AllocsPerRun(10, func() { r = NewRegistry(90, 16, 536, 32) })
	if allocs >= 1.5*nlocks {
		t.Errorf("NewRegistry makes %.0f allocations for %d locks: a ring per lock is back", allocs, nlocks)
	}
	l := r.Elem(InoX, 7)
	if l.ring != nil {
		t.Fatal("never-acquired lock has a ring")
	}
	// Everything that reads a lock must cope with the missing ring.
	if iv := l.heldAt(100, 0); iv != nil {
		t.Errorf("heldAt on a never-acquired lock = %+v", iv)
	}
	if s := l.ComputeStats(); s.Acquires != 0 {
		t.Errorf("stats of a never-acquired lock = %+v", s)
	}
	l.ResetStats()
	r.FamilyStats(InoX)

	l.Acquire(1, 100)
	if l.ring != nil {
		t.Error("ring allocated by Acquire; only a completed hold needs it")
	}
	l.Release(1, 200)
	if l.ring == nil {
		t.Fatal("no ring after the first completed hold")
	}
	l.ResetStats() // keeps the ring: contention detection still needs it
	if at, _ := l.Acquire(0, 150); at != 200 {
		t.Errorf("acquire inside the recorded hold succeeded at %d, want 200", at)
	}
}

func TestFamilyAggregation(t *testing.T) {
	r := NewRegistry(4, 2, 8, 2)
	for i := 0; i < 10; i++ {
		l := r.Elem(InoX, i%3)
		at := arch.Cycles(100 * (i + 1))
		l.Acquire(arch.CPUID(i%2), at)
		l.Release(arch.CPUID(i%2), at+10)
	}
	s := r.FamilyStats(InoX)
	if s.Acquires != 10 {
		t.Errorf("family acquires = %d, want 10", s.Acquires)
	}
	if s.Name != InoX {
		t.Errorf("family name = %q", s.Name)
	}
	if r.TotalAcquires() != 10 {
		t.Errorf("TotalAcquires = %d, want 10", r.TotalAcquires())
	}
}

func TestAllStatsSortedByAcquires(t *testing.T) {
	r := NewRegistry(4, 2, 8, 2)
	for i := 0; i < 5; i++ {
		l := r.Get(Memlock)
		l.Acquire(0, arch.Cycles(100*i))
		l.Release(0, arch.Cycles(100*i+10))
	}
	r.Get(Runqlk).Acquire(0, 50)
	r.Get(Runqlk).Release(0, 60)
	all := r.AllStats()
	if all[0].Name != Memlock {
		t.Errorf("most acquired = %q, want Memlock", all[0].Name)
	}
	for i := 1; i < len(all); i++ {
		if all[i].Acquires > all[i-1].Acquires {
			t.Error("AllStats not sorted descending")
		}
	}
}

func TestTotalSyncStall(t *testing.T) {
	r := NewRegistry(4, 2, 8, 2)
	l := r.Get(Bfreelock)
	l.Acquire(0, 100)
	l.Release(0, 120)
	cur, rmw := r.TotalSyncStall(arch.MissStallCycles)
	if cur != AcquireCycles+ReleaseCycles || rmw != arch.MissStallCycles {
		t.Errorf("TotalSyncStall = (%d,%d)", cur, rmw)
	}
}

func TestLockFunctionTableComplete(t *testing.T) {
	for _, n := range []string{Memlock, Runqlk, Ifree, Dfbmaplk, Bfreelock,
		Calock, ShrX, StreamsX, InoX, Semlock} {
		if LockFunction[n] == "" {
			t.Errorf("missing Table 11 description for %s", n)
		}
	}
}

func TestTryAcquireSucceedsWhenFree(t *testing.T) {
	l := NewLock("x")
	at, ok, spins := l.TryAcquire(0, 100, 500)
	if !ok || at != 100 || spins != 0 {
		t.Fatalf("TryAcquire = (%d,%v,%d)", at, ok, spins)
	}
	l.Release(0, 150)
}

func TestTryAcquireGivesUpOnLongHold(t *testing.T) {
	l := NewLock("x")
	l.Acquire(0, 100)
	l.Release(0, 10_000)
	at, ok, spins := l.TryAcquire(1, 200, 500)
	if ok {
		t.Fatal("TryAcquire succeeded against a long hold")
	}
	if at != 700 {
		t.Errorf("gave up at %d, want 700 (deadline)", at)
	}
	if spins == 0 {
		t.Error("no spins recorded")
	}
	s := l.ComputeStats()
	if s.Failed != 1 || s.Acquires != 1 {
		t.Errorf("stats after failed try: %+v", s)
	}
	// Retry after the holder released: succeeds.
	if _, ok, _ := l.TryAcquire(1, 11_000, 500); !ok {
		t.Error("retry after release failed")
	}
	l.Release(1, 11_100)
}

func TestTryAcquireWaitsThroughShortHold(t *testing.T) {
	l := NewLock("x")
	l.Acquire(0, 100)
	l.Release(0, 300)
	at, ok, _ := l.TryAcquire(1, 200, 500)
	if !ok || at != 300 {
		t.Fatalf("TryAcquire = (%d,%v), want (300,true)", at, ok)
	}
	l.Release(1, 400)
}

func TestResetStatsClearsWindow(t *testing.T) {
	l := NewLock("x")
	l.Acquire(0, 100)
	l.Release(0, 200)
	l.ResetStats()
	s := l.ComputeStats()
	if s.Acquires != 0 || s.Attempts != 0 || len(l.Log()) != 0 {
		t.Errorf("stats survived reset: %+v", s)
	}
	// Contention detection still works against pre-reset intervals.
	at, _ := l.Acquire(1, 150)
	if at != 200 {
		t.Errorf("post-reset acquire at %d, want 200 (old interval respected)", at)
	}
	l.Release(1, 250)
}

func TestPendingHoldBlocksKernelAcquire(t *testing.T) {
	l := NewLock("u")
	l.User = true
	l.Acquire(0, 100) // held, not released (user lock across preemption)
	at, spins := l.Acquire(1, 150)
	if spins == 0 || at <= 150 {
		t.Errorf("acquire against pending hold: at=%d spins=%d", at, spins)
	}
	// Stats recorded the failed first attempt and the waiter.
	s := l.ComputeStats()
	if s.Failed != 1 {
		t.Errorf("failed = %d", s.Failed)
	}
}

// TestQuickLockInvariants drives random acquire/release schedules and
// checks the statistical invariants every Table 12 row depends on:
// intervals never overlap, acquires never exceed attempts, and the
// failed count is consistent with the contention observed.
func TestQuickLockInvariants(t *testing.T) {
	f := func(seq []uint8) bool {
		l := NewLock("q")
		now := arch.Cycles(100)
		held := false
		for _, b := range seq {
			now += arch.Cycles(b%37) + 1
			if !held {
				cpu := arch.CPUID(b % 4)
				at, _ := l.Acquire(cpu, now)
				if at < now {
					return false // acquired before it asked
				}
				now = at + arch.Cycles(b%11)
				l.Release(cpu, now)
			}
		}
		st := l.ComputeStats()
		if st.Acquires > st.Attempts || st.Failed != st.Attempts-st.Acquires {
			return false
		}
		// Successful acquires appear in non-decreasing time order.
		log := l.sortedLog()
		for i := 1; i < len(log); i++ {
			if log[i].Time < log[i-1].Time {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
