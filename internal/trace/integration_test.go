package trace

import (
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/bus"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/workload"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func runWorkload(t *testing.T, kind workload.Kind, window arch.Cycles) (*sim.Simulator, *Result) {
	t.Helper()
	s := sim.New(sim.Config{Seed: 11, Window: window, Warmup: window / 2})
	workload.Setup(s.Kernel(), kind)
	s.Run()
	r := classifyTrace(s.Mon.Trace(), s.K.T, s.K.L, s.Cfg.NCPU)
	if r.Malformed > 0 {
		t.Fatalf("%d malformed escapes", r.Malformed)
	}
	return s, r
}

func pct(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

// logShapes prints the main distributions for calibration.
func logShapes(t *testing.T, name string, s *sim.Simulator, r *Result) {
	osMisses := r.OSMissTotal
	var osI, osD int64
	for cl := MissClass(0); cl < NumClasses; cl++ {
		osI += r.Counts[1][1][cl]
		osD += r.Counts[1][0][cl]
	}
	t.Logf("%s: total=%d os=%d (%.1f%%) | osI=%d (%.1f%% of OS) osD=%d",
		name, r.Total, osMisses, 100*r.OSShare(), osI, pct(osI, osMisses), osD)
	for cl := MissClass(0); cl < NumClasses; cl++ {
		t.Logf("  I %-8s %5.1f%%   D %-8s %5.1f%%  (of OS misses)",
			cl, pct(r.Counts[1][1][cl], osMisses), cl, pct(r.Counts[1][0][cl], osMisses))
	}
	t.Logf("  DispossameI/DisposI = %.0f%%", pct(r.DispossameI, r.Counts[1][1][DispOS]))
	t.Logf("  migration: total=%d (%.1f%% of OS D) by=%v", r.MigrationTotal,
		pct(r.MigrationTotal, osD), r.MigrationByStruct)
	t.Logf("  blockops: %v (of OS D: bcopy %.1f%% bclear %.1f%% vhand %.1f%%)",
		r.BlockOpDMisses,
		pct(r.BlockOpDMisses["bcopy"], osD), pct(r.BlockOpDMisses["bclear"], osD),
		pct(r.BlockOpDMisses["vhand"], osD))
	t.Logf("  sharing by struct: %v", r.StructSharing)
	var appI, appD, apDispI, apDispD int64
	for cl := MissClass(0); cl < NumClasses; cl++ {
		appI += r.Counts[0][1][cl]
		appD += r.Counts[0][0][cl]
	}
	apDispI = r.Counts[0][1][DispOS]
	apDispD = r.Counts[0][0][DispOS]
	t.Logf("  app: I=%d D=%d  Ap_dispos: %.1f%% of app misses (I %.1f%%, D %.1f%%)",
		appI, appD, pct(apDispI+apDispD, appI+appD), pct(apDispI, appI+appD), pct(apDispD, appI+appD))
	// Table 1-style stall shares.
	var nonIdle, stall arch.Cycles
	for _, c := range s.CPUs {
		nonIdle += c.Time[arch.ModeUser] + c.Time[arch.ModeKernel]
		stall += c.Stall[arch.ModeUser] + c.Stall[arch.ModeKernel]
	}
	osStall := arch.Cycles(osMisses) * arch.MissStallCycles
	indStall := arch.Cycles(apDispI+apDispD) * arch.MissStallCycles
	t.Logf("  stall/nonidle: all=%.1f%% os=%.1f%% os+induced=%.1f%% (sim-stall=%.1f%%)",
		pct(int64(r.Total)*arch.MissStallCycles, int64(nonIdle)),
		pct(int64(osStall), int64(nonIdle)),
		pct(int64(osStall+indStall), int64(nonIdle)),
		pct(int64(stall), int64(nonIdle)))
	t.Logf("  utlb: faults=%d misses=%d (%.2f/fault) reuse-within-inv=%.0f%% of OS",
		r.Timeline.AppUTLBs, r.Timeline.AppUTLBMisses,
		float64(r.Timeline.AppUTLBMisses)/float64(max64(r.Timeline.AppUTLBs, 1)),
		pct(r.ReusedWithinInvocation, osMisses))
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func TestPmakeShapes(t *testing.T) {
	s, r := runWorkload(t, workload.Pmake, 8_000_000)
	logShapes(t, "Pmake", s, r)
	if r.OSMissTotal == 0 {
		t.Fatal("no OS misses classified")
	}
}

func TestMultpgmShapes(t *testing.T) {
	s, r := runWorkload(t, workload.Multpgm, 8_000_000)
	logShapes(t, "Multpgm", s, r)
}

func TestOracleShapes(t *testing.T) {
	s, r := runWorkload(t, workload.Oracle, 8_000_000)
	logShapes(t, "Oracle", s, r)
}

// TestStallConsistency cross-checks the trace-derived miss count against
// the simulator's own stall accounting: every monitored miss stalls 35
// cycles, so they must agree closely.
func TestStallConsistency(t *testing.T) {
	s, r := runWorkload(t, workload.Pmake, 4_000_000)
	var stall arch.Cycles
	for _, c := range s.CPUs {
		stall += c.Stall[arch.ModeUser] + c.Stall[arch.ModeKernel]
	}
	// Trace misses exclude idle; sim Stall excludes idle; uncached
	// device reads stall too and are counted in Total.
	traceStall := arch.Cycles(r.Total) * arch.MissStallCycles
	ratio := float64(traceStall) / float64(stall)
	if ratio < 0.9 || ratio > 1.1 {
		t.Errorf("trace stall %d vs sim stall %d (ratio %.3f)", traceStall, stall, ratio)
	}
	_ = kernel.NumOps
}

// TestFlushDiagnostics reports I-cache flush frequency (calibration aid).
func TestFlushDiagnostics(t *testing.T) {
	s, r := runWorkload(t, workload.Pmake, 8_000_000)
	t.Logf("flushes=%d travs=%d invalMisses I=%d textCached=%d codeReuse=%d",
		s.ICacheFlushes, s.K.Traversals, r.Counts[1][1][Inval]+r.Counts[0][1][Inval],
		s.K.TextCacheEvents, s.K.CodeFrameReuses)
	fc, cc, fr, ca := s.K.F.DebugCounts()
	t.Logf("frames: free=%d (code %d) cached=%d (code %d) avoided=%d", fr, fc, ca, cc, s.K.F.Avoided())
}

// TestOracleStdQualitativelySameAsOracle reproduces the paper's robustness
// check ([18]): the OS miss characteristics of the standard-sized TP1
// benchmark are qualitatively the same as the scaled-down instance's.
func TestOracleStdQualitativelySameAsOracle(t *testing.T) {
	_, small := runWorkload(t, workload.Oracle, 6_000_000)
	_, std := runWorkload(t, workload.OracleStd, 6_000_000)
	share := func(r *Result) (iShare, dispap float64) {
		var osI int64
		for cl := MissClass(0); cl < NumClasses; cl++ {
			osI += r.Counts[1][1][cl]
		}
		return pct(osI, r.OSMissTotal), pct(r.Counts[1][1][DispApp], r.OSMissTotal)
	}
	iA, dA := share(small)
	iB, dB := share(std)
	t.Logf("scaled:   I-share %.1f%%, Dispap %.1f%%", iA, dA)
	t.Logf("standard: I-share %.1f%%, Dispap %.1f%%", iB, dB)
	if diff := iA - iB; diff > 15 || diff < -15 {
		t.Errorf("I-miss share changed qualitatively: %.1f vs %.1f", iA, iB)
	}
	// Dispap (database text displacing the OS) dominates in both.
	if dA < 25 || dB < 25 {
		t.Errorf("Dispap should dominate both instances: %.1f vs %.1f", dA, dB)
	}
}

// TestMirrorMatchesRealCaches is the methodology's keystone check: the
// classifier reconstructs per-CPU cache contents from the bus trace ALONE
// (the paper's claim that a direct-mapped cache's contents are determined
// by its miss stream). After a run, every mirror set must agree with the
// simulator's actual caches.
func TestMirrorMatchesRealCaches(t *testing.T) {
	s := sim.New(sim.Config{Seed: 21, Window: 3_000_000, Warmup: 1_000_000})
	workload.Setup(s.Kernel(), workload.Pmake)
	s.Run()
	cl := NewClassifier(s.K.T, s.K.L, s.Cfg.NCPU)
	for _, txn := range s.Mon.Trace() {
		cl.Feed(txn)
	}
	cl.Finish()
	const (
		iSetsN = 4096  // 64 KB / 16
		dSetsN = 16384 // 256 KB / 16
	)
	var checked, mismatched int
	for cpu := 0; cpu < s.Cfg.NCPU; cpu++ {
		for set := 0; set < iSetsN; set++ {
			mb, mok := cl.MirrorResident(arch.CPUID(cpu), true, set)
			// Probe the real I-cache with the mirror's claim.
			if mok {
				checked++
				a := arch.PAddr(mb) << 4
				if !s.Bus.I[cpu].Lookup(a) {
					mismatched++
				}
			}
		}
		for set := 0; set < dSetsN; set++ {
			mb, mok := cl.MirrorResident(arch.CPUID(cpu), false, set)
			if mok {
				checked++
				a := arch.PAddr(mb) << 4
				if !s.Bus.D[cpu].Resident(a) {
					mismatched++
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("mirrors are empty")
	}
	// Tracing starts mid-run, so blocks fetched before the window and
	// never re-missed are invisible to the mirror (it under-claims,
	// never over-claims except for pre-window evictions). Mismatches
	// must be a tiny residue of pre-window state.
	rate := float64(mismatched) / float64(checked)
	t.Logf("mirror sets checked: %d, mismatched: %d (%.3f%%)", checked, mismatched, 100*rate)
	if rate > 0.01 {
		t.Errorf("mirror desync: %.2f%% of claimed-resident blocks are not in the real caches", 100*rate)
	}
}

// TestClassifierFuzzRandomTrace throws structurally-random transactions at
// the classifier: it must never panic, whatever garbage the monitor hands
// it (a real postprocessor requirement).
func TestClassifierFuzzRandomTrace(t *testing.T) {
	kt, l := newEnv()
	for seed := int64(0); seed < 20; seed++ {
		rng := newRand(seed)
		txns := make([]bus.Txn, 2000)
		for i := range txns {
			txns[i] = bus.Txn{
				Ticks: uint64(i),
				Addr:  arch.PAddr(rng.Intn(arch.MemBytes)),
				CPU:   arch.CPUID(rng.Intn(4)),
				Kind:  bus.TxnKind(rng.Intn(5)),
			}
		}
		r := classifyTrace(txns, kt, l, 4)
		if r.Total < 0 {
			t.Fatalf("seed %d: negative total", seed)
		}
	}
}
