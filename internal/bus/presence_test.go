package bus

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/arch"
	"repro/internal/check"
)

// presencePool builds a set of block addresses engineered to collide: four
// block offsets per stride, at strides of the L2 size (256 KB) so fills
// evict each other, plus 64 KB strides for L1-only conflicts.
func presencePool() []arch.PAddr {
	var pool []arch.PAddr
	for stride := 0; stride < 6; stride++ {
		base := arch.PAddr(stride * arch.DCacheL2Size)
		for blk := 0; blk < 4; blk++ {
			pool = append(pool, base+arch.PAddr(blk*arch.BlockSize))
		}
	}
	for stride := 1; stride < 4; stride++ {
		pool = append(pool, arch.PAddr(stride*arch.DCacheL1Size))
	}
	return pool
}

// checkPresence asserts the filter invariant: for every pool address and
// every CPU, the presence bit equals brute-force L2 residency, and no bits
// beyond the CPU count are ever set.
func checkPresence(t *testing.T, s *System, pool []arch.PAddr, step int) {
	t.Helper()
	for _, a := range pool {
		m := s.pres.mask(a)
		if extra := m &^ (uint64(1)<<uint(s.N) - 1); extra != 0 {
			t.Fatalf("step %d: addr %#x: presence bits %#x beyond %d CPUs", step, uint64(a), extra, s.N)
		}
		for q := 0; q < s.N; q++ {
			got := m&(1<<uint(q)) != 0
			want := s.D[q].Resident(a)
			if got != want {
				t.Fatalf("step %d: addr %#x cpu %d: presence bit %v, resident %v (mask %#x)",
					step, uint64(a), q, got, want, m)
			}
		}
	}
}

// TestPresenceFilterMatchesResidency is the filter's property test: after
// every operation of a random read/write/DMA/evict stream — under both
// coherence protocols — the per-block CPU mask must agree exactly with a
// brute-force residency scan of every data cache. Runs race-clean so it
// can back the -race tier.
func TestPresenceFilterMatchesResidency(t *testing.T) {
	pool := presencePool()
	for _, proto := range []Protocol{WriteInvalidate, WriteUpdate} {
		s := NewSystem(testMachine(4), nil)
		s.Proto = proto
		if s.pres == nil {
			t.Fatal("presence filter not allocated in fast mode")
		}
		rng := rand.New(rand.NewSource(1992))
		now := arch.Cycles(0)
		for step := 0; step < 4000; step++ {
			c := arch.CPUID(rng.Intn(s.N))
			a := pool[rng.Intn(len(pool))]
			switch op := rng.Intn(10); {
			case op < 4:
				s.Read(c, a, now)
			case op < 8:
				s.Write(c, a, now)
			case op < 9:
				// DMA: invalidates every cached copy, own CPU included.
				s.Bypass(c, a, 1+rng.Intn(3), rng.Intn(2) == 0, now)
			default:
				s.InjectEvict(c, a, now)
			}
			now += arch.Cycles(1 + rng.Intn(50))
			checkPresence(t, s, pool, step)
		}
	}
}

// TestPresenceFilterReferenceModeDisabled pins the oracle contract: in
// reference mode the filter is gone and the full snoop loops run, yet
// coherence outcomes match the fast path (covered end-to-end by the
// report-identity test; here we just pin the filter's absence).
func TestPresenceFilterReferenceModeDisabled(t *testing.T) {
	s := NewSystem(testMachine(2), nil)
	s.SetReference(true)
	if s.pres != nil {
		t.Fatal("presence filter should be nil in reference mode")
	}
	a := arch.PAddr(0x4000)
	s.Read(0, a, 0)
	s.Read(1, a, 1)
	if !s.D[0].L2.Shared(a) || !s.D[1].L2.Shared(a) {
		t.Error("reference-mode snoop loop failed to mark copies Shared")
	}
	s.SetReference(false)
	if s.pres == nil {
		t.Fatal("presence filter should be restored when leaving reference mode")
	}
}

// TestInvalidateCodeFrameCounts covers the return-count contract: the
// machine has no selective I-cache invalidation, so a code-frame reclaim
// flushes every CPU's whole I-cache and reports the total resident blocks
// — now read from the O(1) maintained counter, not a line scan. Empty
// caches report zero, and a second flush reports zero again.
func TestInvalidateCodeFrameCounts(t *testing.T) {
	s := NewSystem(testMachine(2), nil)
	if n := s.InvalidateCodeFrame(3, 0); n != 0 {
		t.Fatalf("flush of empty caches reported %d blocks, want 0", n)
	}
	// CPU 0 caches three blocks of frame 3, CPU 1 caches one of them plus
	// one block of frame 5 — the full flush counts all five.
	base := arch.PAddr(3) << arch.PageShift
	s.Fetch(0, base, 0)
	s.Fetch(0, base+arch.BlockSize, 1)
	s.Fetch(0, base+2*arch.BlockSize, 2)
	s.Fetch(1, base, 3)
	other := arch.PAddr(5) << arch.PageShift
	s.Fetch(1, other, 4)
	if n := s.InvalidateCodeFrame(3, 5); n != 5 {
		t.Fatalf("flush reported %d blocks, want 5 (3+1 on cpu0/1 of frame 3, plus 1 of frame 5)", n)
	}
	if n := s.InvalidateCodeFrame(3, 6); n != 0 {
		t.Fatalf("second flush reported %d blocks, want 0", n)
	}
	if s.I[1].Lookup(other) {
		t.Error("full I-cache flush must not spare other frames' blocks")
	}
	if out := s.Fetch(0, base, 5); !out.Missed {
		t.Error("fetch after the flush should miss")
	}
}

// TestWritePingPongNoAllocs guards the coherence hot path: once the
// presence filter's lazily-allocated pages exist, reads, upgrade writes
// and the invalidation snoops they trigger must not allocate.
func TestWritePingPongNoAllocs(t *testing.T) {
	s := NewSystem(testMachine(2), nil)
	a := arch.PAddr(0x8000)
	b := arch.PAddr(0x8000 + arch.DCacheL2Size) // evicts a's line
	// Warm up: fault in the presence pages and shared-bit arrays.
	s.Read(0, a, 0)
	s.Read(1, a, 1)
	s.Write(0, a, 2)
	s.Write(1, a, 3)
	s.Read(0, b, 4)
	now := arch.Cycles(5)
	avg := testing.AllocsPerRun(200, func() {
		s.Write(0, a, now)
		s.Write(1, a, now+1)
		s.Read(0, a, now+2)
		s.Read(1, b, now+3) // L2 conflict eviction: presence clear+set
		now += 4
	})
	if avg != 0 {
		t.Errorf("coherence ping-pong allocates %.1f times per round, want 0", avg)
	}
}

// TestReleasedPresenceSameLines: a system whose presence filter is released
// part-way through a random read/write/DMA/evict stream takes the full
// snoop paths from then on, and keeps every CPU's line state and the bus
// statistics equal to a twin that keeps its filter, under both protocols.
func TestReleasedPresenceSameLines(t *testing.T) {
	pool := presencePool()
	for _, proto := range []Protocol{WriteInvalidate, WriteUpdate} {
		kept, released := NewSystem(testMachine(4), nil), NewSystem(testMachine(4), nil)
		kept.Proto, released.Proto = proto, proto
		rng := rand.New(rand.NewSource(47))
		now := arch.Cycles(0)
		want, got := make([]check.Line, 4), make([]check.Line, 4)
		for step := 0; step < 4000; step++ {
			if step == 1000 {
				released.ReleasePresence()
				if released.pres != nil {
					t.Fatal("ReleasePresence kept the filter")
				}
			}
			c := arch.CPUID(rng.Intn(4))
			a := pool[rng.Intn(len(pool))]
			op, blocks, write := rng.Intn(10), 1+rng.Intn(3), rng.Intn(2) == 0
			for _, s := range []*System{kept, released} {
				switch {
				case op < 4:
					s.Read(c, a, now)
				case op < 8:
					s.Write(c, a, now)
				case op < 9:
					s.Bypass(c, a, blocks, write, now)
				default:
					s.InjectEvict(c, a, now)
				}
			}
			now += arch.Cycles(1 + rng.Intn(50))
			for _, b := range pool {
				kept.Lines(b, want)
				released.Lines(b, got)
				if !slices.Equal(got, want) {
					t.Fatalf("protocol %v step %d: addr %#x lines %v after release, %v with the filter",
						proto, step, uint32(b), got, want)
				}
			}
		}
		if kept.Stats != released.Stats {
			t.Errorf("protocol %v: bus stats %+v after release, %+v with the filter", proto, released.Stats, kept.Stats)
		}
	}
}
