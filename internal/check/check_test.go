package check_test

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/bus"
	"repro/internal/check"
)

// sys builds a 4-CPU cache complex with the checker attached.
func sys() (*bus.System, *check.Checker) {
	m := arch.Default()
	s := bus.NewSystem(m, nil)
	k := check.New(s, m.MemFrames())
	s.Check = k
	return s, k
}

const blk = arch.PAddr(0x4000)

// l2Conflict maps to the same L2 set as blk (the L2 is 256 KB
// direct-mapped, so addresses 256 KB apart collide).
const l2Conflict = blk + 256<<10

// TestCoherenceSequences drives hand-built transaction sequences through
// the real bus. Legal sequences must stay silent; sequences corrupted
// behind the bus's back (direct cache manipulation, bypassing the snoop)
// must trip the checker with the right violation kind.
func TestCoherenceSequences(t *testing.T) {
	cases := []struct {
		name string
		run  func(s *bus.System)
		want check.Kind // checked only when violations > 0
		trip bool
		// detail, when set, must appear in the first violation's Detail.
		detail string
	}{
		{
			name: "legal read sharing",
			run: func(s *bus.System) {
				s.Read(0, blk, 10)
				s.Read(1, blk, 20)
				s.Read(2, blk, 30)
			},
		},
		{
			name: "legal write-invalidate round trip",
			run: func(s *bus.System) {
				s.Write(0, blk, 10)
				s.Read(1, blk, 20)  // dirty supply, both Shared
				s.Write(1, blk, 30) // upgrade, invalidates CPU 0
				s.Read(0, blk, 40)  // sharing miss, refill
				s.Read(0, blk, 50)  // hit, current version
			},
		},
		{
			name: "legal eviction and refill",
			run: func(s *bus.System) {
				s.Write(0, blk, 10)
				s.Read(0, l2Conflict, 20) // evicts blk dirty, write-back
				s.Read(0, blk, 30)        // refill from memory
			},
		},
		{
			name: "legal update-protocol broadcast",
			run: func(s *bus.System) {
				s.Proto = bus.WriteUpdate
				s.Read(0, blk, 10)
				s.Read(1, blk, 20)
				s.Write(0, blk, 30) // broadcast refreshes CPU 1
				s.Read(1, blk, 40)  // hit, must observe the broadcast
			},
		},
		{
			name: "legal bypass write then reread",
			run: func(s *bus.System) {
				s.Read(1, blk, 10)
				s.Bypass(0, blk, 1, true, 20) // invalidates CPU 1
				s.Read(1, blk, 30)            // miss, current version
			},
		},
		{
			name: "legal code-frame flush and refetch",
			run: func(s *bus.System) {
				s.Fetch(0, blk, 10)
				s.InvalidateCodeFrame(uint32(blk.Frame()), 15)
				s.Fetch(0, blk, 20) // miss: the flush emptied the cache
			},
		},
		{
			name: "dirty sharing: second dirty copy snuck past the snoop",
			run: func(s *bus.System) {
				s.Write(0, blk, 10)
				s.D[1].Access(blk, true) // corrupt: no bus transaction
				// Trigger via a local hit: a read miss would snoop and
				// repair the corruption before the scan could see it.
				s.Read(0, blk, 30)
			},
			want: check.Coherence, trip: true,
		},
		{
			name: "write race: stale copy read after a missed invalidation",
			run: func(s *bus.System) {
				s.Read(1, blk, 10)
				s.Write(0, blk, 20)       // invalidates CPU 1
				s.D[1].Access(blk, false) // corrupt: stale refill, no bus
				s.Read(1, blk, 30)        // hit on the stale copy
			},
			want: check.Shadow, trip: true,
		},
		{
			name: "exclusive copy duplicated without a snoop",
			run: func(s *bus.System) {
				s.Read(0, blk, 10)        // Exclusive (sole copy)
				s.D[1].Access(blk, false) // corrupt: second copy, no bus
				s.Read(0, blk, 30)        // local hit: no repairing snoop
			},
			want: check.Coherence, trip: true,
		},
		{
			name: "eviction during snoop: L2 dropped but L1 kept",
			run: func(s *bus.System) {
				s.Read(0, blk, 10)
				s.D[0].L2.Invalidate(blk) // corrupt: inclusion broken
				s.Read(1, blk, 30)
			},
			want: check.Inclusion, trip: true,
		},
		{
			name: "stale instruction fetch after code overwrite",
			run: func(s *bus.System) {
				s.Fetch(0, blk, 10)
				s.Write(1, blk, 20) // new code written, no I-flush
				s.Fetch(0, blk, 30) // I-cache hit on stale code
			},
			want: check.Shadow, trip: true,
		},
		{
			name: "dirty line marked shared",
			run: func(s *bus.System) {
				s.Write(0, blk, 10)            // Modified on CPU 0
				s.D[0].L2.SetShared(blk, true) // corrupt: dirty and Shared
				s.Read(0, blk, 30)             // local hit: state left as is
			},
			want: check.Coherence, trip: true, detail: "CPU 0 holds the block dirty but marked shared",
		},
		{
			name: "inclusion broken on a CPU that is not referencing",
			run: func(s *bus.System) {
				s.Read(0, blk, 10)
				s.Read(2, blk, 20)
				s.D[2].L2.Invalidate(blk) // corrupt: CPU 2 keeps only its L1 copy
				s.Read(0, blk, 30)        // CPU 0 hits locally; the scan still covers CPU 2
			},
			want: check.Inclusion, trip: true, detail: "CPU 2 holds the block in L1 but not in L2",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, k := sys()
			tc.run(s)
			if !tc.trip {
				if k.Violations != 0 {
					t.Fatalf("legal sequence tripped the checker: %v", k.Errors()[0])
				}
				return
			}
			if k.Violations == 0 {
				t.Fatal("corrupted sequence not detected")
			}
			e := k.Errors()[0]
			if e.Kind != tc.want {
				t.Errorf("kind = %v, want %v (%v)", e.Kind, tc.want, e)
			}
			if e.Cycle == 0 || e.Addr == 0 {
				t.Errorf("diagnostics incomplete (cycle %d, addr %#x): %v", e.Cycle, uint32(e.Addr), e)
			}
			if !strings.Contains(e.Detail, tc.detail) {
				t.Errorf("detail %q does not name %q", e.Detail, tc.detail)
			}
		})
	}
}

// TestShadowNamesLastWriter verifies the stale-read diagnostic carries
// last-writer provenance: who stored last, when.
func TestShadowNamesLastWriter(t *testing.T) {
	s, k := sys()
	k.RoutineOf = func(c arch.CPUID) uint16 { return uint16(c) + 1 }
	k.RoutineName = func(id uint16) string {
		return []string{"", "reader", "writer", "", ""}[id]
	}
	s.Read(0, blk, 10)
	s.Write(1, blk, 77)       // CPU 1 is the last writer, at cycle 77
	s.D[0].Access(blk, false) // corrupt: CPU 0 refills without the bus
	s.Read(0, blk, 90)
	if k.Violations == 0 {
		t.Fatal("stale read not detected")
	}
	e := k.Errors()[0]
	if e.Kind != check.Shadow || e.CPU != 0 || e.Addr != blk || e.Cycle != 90 {
		t.Fatalf("wrong diagnostics: %v", e)
	}
	if !e.HasOwner || e.Owner != 1 || e.OwnerCycle != 77 {
		t.Fatalf("last-writer provenance missing: %v", e)
	}
	if !strings.Contains(e.Error(), "CPU 1") || !strings.Contains(e.Error(), "cycle 77") {
		t.Errorf("rendered error lacks provenance: %v", e)
	}
}

// TestLockInvariants exercises the lock-discipline checks through the
// checker's event API.
func TestLockInvariants(t *testing.T) {
	type lk struct {
		n string
		f int
	}
	a, b := &lk{"Memlock", 0}, &lk{"Runqlk", 1}

	t.Run("double acquire", func(t *testing.T) {
		_, k := sys()
		k.OnAcquire(2, a, a.f, a.n, false, 100)
		k.OnAcquire(2, a, a.f, a.n, false, 200)
		if k.Violations != 1 {
			t.Fatalf("violations = %d, want 1", k.Violations)
		}
		e := k.Errors()[0]
		if e.Kind != check.LockViolation || e.CPU != 2 || e.Cycle != 200 || e.Lock != "Memlock" {
			t.Fatalf("wrong diagnostics: %v", e)
		}
		if !e.HasOwner || e.OwnerCycle != 100 {
			t.Fatalf("acquisition provenance missing: %v", e)
		}
	})

	t.Run("release by non-owner", func(t *testing.T) {
		_, k := sys()
		k.OnAcquire(0, a, a.f, a.n, false, 100)
		k.OnRelease(3, a, a.f, a.n, false, 150)
		if k.Violations != 1 {
			t.Fatalf("violations = %d, want 1", k.Violations)
		}
		e := k.Errors()[0]
		if !e.HasOwner || e.Owner != 0 || !strings.Contains(e.Detail, "CPU 0") {
			t.Fatalf("owner provenance missing: %v", e)
		}
	})

	t.Run("release of unheld lock", func(t *testing.T) {
		_, k := sys()
		k.OnRelease(1, b, b.f, b.n, false, 50)
		if k.Violations != 1 {
			t.Fatalf("violations = %d, want 1", k.Violations)
		}
	})

	t.Run("balanced holds are silent", func(t *testing.T) {
		_, k := sys()
		k.OnAcquire(0, a, a.f, a.n, false, 10)
		k.OnAcquire(0, b, b.f, b.n, false, 20)
		k.OnRelease(0, b, b.f, b.n, false, 30)
		k.OnRelease(0, a, a.f, a.n, false, 40)
		k.OnAcquire(0, a, a.f, a.n, false, 50) // re-acquire after release is fine
		k.OnRelease(0, a, a.f, a.n, false, 60)
		if k.Violations != 0 {
			t.Fatalf("legal sequence tripped: %v", k.Errors()[0])
		}
	})

	t.Run("user locks exempt", func(t *testing.T) {
		_, k := sys()
		k.OnAcquire(0, a, 0, "Ulock", true, 10)
		k.OnAcquire(0, a, 0, "Ulock", true, 20) // double-hold across preemption
		k.OnRelease(1, a, 0, "Ulock", true, 30) // released on another CPU
		if k.Violations != 0 {
			t.Fatalf("user lock tripped kernel discipline: %v", k.Errors()[0])
		}
	})

	t.Run("interrupt while holding an interrupt-taken lock", func(t *testing.T) {
		_, k := sys()
		// The checker learns Runqlk is taken by interrupt handlers...
		k.OnInterruptEnter(1, 100)
		k.OnAcquire(1, b, b.f, b.n, false, 110)
		k.OnRelease(1, b, b.f, b.n, false, 120)
		k.OnInterruptExit(1)
		// ...so holding it while accepting an interrupt is flagged.
		k.OnAcquire(0, b, b.f, b.n, false, 200)
		k.OnInterruptEnter(0, 210)
		if k.Violations != 1 {
			t.Fatalf("violations = %d, want 1", k.Violations)
		}
		e := k.Errors()[0]
		if e.Kind != check.LockViolation || e.Lock != "Runqlk" || e.CPU != 0 {
			t.Fatalf("wrong diagnostics: %v", e)
		}
	})
}

// TestViolationCap keeps the error list bounded while counting everything.
func TestViolationCap(t *testing.T) {
	_, k := sys()
	for i := 0; i < 200; i++ {
		k.OnRelease(0, i, 0, "L", false, arch.Cycles(i+1))
	}
	if k.Violations != 200 {
		t.Fatalf("Violations = %d, want 200", k.Violations)
	}
	if len(k.Errors()) > 100 {
		t.Fatalf("error list unbounded: %d", len(k.Errors()))
	}
}

// TestShadowCounterWrap drives a block version and a CPU's flush epoch to
// the 32-bit wrap point. The store or flush that would wrap is reported,
// and the renumbering behind it keeps a stale copy stale: without it the
// wrapped counter would come back to 0, the value an untouched copy holds,
// and the corrupted hit below would pass unseen.
func TestShadowCounterWrap(t *testing.T) {
	t.Run("version", func(t *testing.T) {
		s, k := sys()
		k.SetVersion(blk, math.MaxUint32)
		s.Write(0, blk, 10)       // the store that would wrap
		s.D[1].Access(blk, false) // corrupt: CPU 1 fills without the bus
		s.Read(1, blk, 20)        // hit on a copy never filled with data
		wantWrapThenStale(t, k, 10, "version", "load observed a stale copy")
	})
	t.Run("epoch", func(t *testing.T) {
		s, k := sys()
		k.SetEpoch(1, math.MaxUint32)
		s.InvalidateCodeFrame(uint32(blk.Frame()), 10) // the flush that would wrap CPU 1
		s.I[1].Access(blk, false)                      // corrupt: CPU 1 fetches without the bus
		s.Fetch(1, blk, 20)                            // hit on a copy no fill recorded
		wantWrapThenStale(t, k, 10, "epoch", "should have been flushed")
	})
}

// wantWrapThenStale asserts the first violation reports a wrapping counter
// (at the given cycle) and that a later one still catches the stale hit.
func wantWrapThenStale(t *testing.T, k *check.Checker, cycle arch.Cycles, counter, stale string) {
	t.Helper()
	errs := k.Errors()
	if len(errs) == 0 {
		t.Fatal("wrap not reported")
	}
	if e := errs[0]; e.Kind != check.Shadow || e.Cycle != cycle || !strings.Contains(e.Detail, "wrap") ||
		!strings.Contains(e.Detail, counter) {
		t.Errorf("first violation is not the %s wrap at cycle %d: %v", counter, cycle, e)
	}
	for _, e := range errs[1:] {
		if strings.Contains(e.Detail, stale) {
			return
		}
	}
	t.Errorf("stale hit after the %s wrap not detected; violations: %v", counter, errs)
}

// TestCheckersResolveOwnRoutines runs two checkers at once, each with its
// own routine names, under the race detector in CI: the routine-ID table
// is per checker, so neither may see the other's names.
func TestCheckersResolveOwnRoutines(t *testing.T) {
	var wg sync.WaitGroup
	for _, prefix := range []string{"left", "right"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, k := sys()
			var step int
			// ID 1+7c+j is CPU c's routine j of 7.
			k.RoutineOf = func(c arch.CPUID) uint16 { return uint16(1 + 7*int(c) + step%7) }
			k.RoutineName = func(id uint16) string {
				return fmt.Sprintf("%s_%d_%d", prefix, (id-1)/7, (id-1)%7)
			}
			for step = 1; step < 2000; step++ {
				s.Write(arch.CPUID(step%4), blk+arch.PAddr(step%64)*arch.BlockSize, arch.Cycles(step))
			}
			s.Read(0, blk, 3000)
			s.Write(1, blk, 3001)     // CPU 1 stores last ...
			s.D[0].Access(blk, false) // ... and CPU 0 refills behind the bus
			s.Read(0, blk, 3002)
			if k.Violations == 0 {
				t.Errorf("%s: stale read not detected", prefix)
				return
			}
			e := k.Errors()[0]
			if want := fmt.Sprintf("%s_1_%d", prefix, 3001%7); e.OwnerRoutine != want {
				t.Errorf("%s: last writer's routine = %q, want %q", prefix, e.OwnerRoutine, want)
			}
		}()
	}
	wg.Wait()
}

// TestFinishDropsShadowState checks what a finished checker keeps: its
// counts and errors, not its shadow pages.
func TestFinishDropsShadowState(t *testing.T) {
	s, k := sys()
	s.Read(0, blk, 10)
	s.Write(1, blk, 20)
	s.D[0].Access(blk, false) // corrupt: CPU 0 refills without the bus
	s.Read(0, blk, 30)
	if k.ShadowPages() == 0 {
		t.Fatal("no shadow page before Finish")
	}
	checks, violations, errs := k.Checks, k.Violations, len(k.Errors())
	k.Finish()
	if n := k.ShadowPages(); n != 0 {
		t.Errorf("checker holds %d shadow pages after Finish", n)
	}
	if k.Checks != checks || k.Violations != violations || len(k.Errors()) != errs || violations == 0 {
		t.Errorf("Finish changed the results: checks %d→%d, violations %d→%d, errors %d→%d",
			checks, k.Checks, violations, k.Violations, errs, len(k.Errors()))
	}
}
