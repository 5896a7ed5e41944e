package check_test

import (
	"strings"
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
				s.Read(1, blk, 20) // dirty supply, both Shared
				s.Write(1, blk, 30) // upgrade, invalidates CPU 0
				s.Read(0, blk, 40) // sharing miss, refill
				s.Read(0, blk, 50) // hit, current version
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
				s.InvalidateCodeFrame(uint32(blk.Frame()))
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
	k.RoutineOf = func(c arch.CPUID) string {
		return []string{"reader", "writer", "", ""}[c]
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

// TestFailFastPanics verifies FailFast converts the first violation into
// a panic carrying the *CheckError.
func TestFailFastPanics(t *testing.T) {
	s, k := sys()
	k.FailFast = true
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("FailFast did not panic")
		}
		if _, ok := r.(*check.CheckError); !ok {
			t.Fatalf("panic value %T, want *check.CheckError", r)
		}
	}()
	s.Read(1, blk, 10)
	s.Write(0, blk, 20)
	s.D[1].Access(blk, false)
	s.Read(1, blk, 30)
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
