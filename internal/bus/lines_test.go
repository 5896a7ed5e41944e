package bus

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/check"
)

// checkLines asserts the probe's contract: for every pool address, the
// batched snapshot equals, CPU by CPU, what the caches' own single-field
// queries report.
func checkLines(t *testing.T, s *System, pool []arch.PAddr, out []check.Line, step int) {
	t.Helper()
	for _, a := range pool {
		s.Lines(a, out)
		for q, d := range s.D {
			var want check.Line
			if d.L2.Lookup(a) {
				want |= check.LineL2
			}
			if d.L2.Dirty(a) {
				want |= check.LineDirty
			}
			if d.L2.Shared(a) {
				want |= check.LineShared
			}
			if d.L1.Lookup(a) {
				want |= check.LineL1
			}
			if out[q] != want {
				t.Fatalf("step %d: addr %#x cpu %d: snapshot %04b, caches say %04b (L1|dirty|L2|shared)",
					step, uint32(a), q, out[q], want)
			}
		}
	}
}

// TestLinesMatchesCacheQueries is the checker probe's property test: over
// seeded streams of reads, writes, bypass transfers, injected evictions and
// corruptions applied to the hierarchies behind the bus's back, on every
// processor count × associativity × access path, System.Lines agrees after
// every operation with Lookup/Dirty/Shared on L2 and Lookup on L1. A twin
// system takes the same stream unprobed and must end in the same cache
// state: the probe reads, LRU order included, and never writes.
func TestLinesMatchesCacheQueries(t *testing.T) {
	pool := presencePool()
	for _, n := range []int{2, 4, 16} {
		for _, assoc := range []int{1, 2} {
			for _, ref := range []bool{false, true} {
				t.Run(fmt.Sprintf("ncpu%d/assoc%d/reference=%v", n, assoc, ref), func(t *testing.T) {
					m := testMachine(n)
					m.DCacheL1Assoc, m.DCacheL2Assoc = assoc, assoc
					probed, twin := NewSystem(m, nil), NewSystem(m, nil)
					probed.SetReference(ref)
					twin.SetReference(ref)
					out := make([]check.Line, n)
					rng := rand.New(rand.NewSource(int64(1992 + n*4 + assoc*2)))
					now := arch.Cycles(0)
					for step := 0; step < 1500; step++ {
						c := arch.CPUID(rng.Intn(n))
						a := pool[rng.Intn(len(pool))]
						op, flag, blocks := rng.Intn(16), rng.Intn(2) == 0, 1+rng.Intn(3)
						for _, s := range []*System{probed, twin} {
							switch {
							case op < 5:
								s.Read(c, a, now)
							case op < 10:
								s.Write(c, a, now)
							case op < 11:
								s.Bypass(c, a, blocks, flag, now)
							case op < 12:
								s.InjectEvict(c, a, now)
							case op < 13:
								s.D[c].Access(a, flag) // a copy no snoop saw
							case op < 14:
								s.D[c].L2.Invalidate(a) // inclusion break
							case op < 15:
								s.D[c].L2.SetShared(a, flag)
							default:
								s.D[c].L1.Invalidate(a)
							}
						}
						now += arch.Cycles(1 + rng.Intn(50))
						checkLines(t, probed, pool, out, step)
					}
					for q := range probed.D {
						if g, w := probed.D[q].StateHash(1), twin.D[q].StateHash(1); g != w {
							t.Fatalf("cpu %d: probed run ended in cache state %#x, unprobed twin in %#x", q, g, w)
						}
					}
				})
			}
		}
	}
}
