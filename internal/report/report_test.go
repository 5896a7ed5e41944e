package report

import (
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/klock"
	"repro/internal/kmem"
	"repro/internal/metrics"
	"repro/internal/runner"
	"repro/internal/trace"
)

var (
	setOnce   sync.Once
	sharedSet *Set
)

// testSet runs the three workloads once and shares the result across the
// package's tests (each run costs ~1.5s).
func testSet() *Set {
	setOnce.Do(func() {
		sharedSet = RunSetParallel(core.Config{Seed: 5, Window: 6_000_000,
			Warmup: 3_000_000, CollectIResim: true}, runner.Options{})
	})
	return sharedSet
}

func TestAllRenders(t *testing.T) {
	s := testSet()
	out := All(s)
	if strings.Contains(out, "All kernel lock families") {
		t.Error("All renders the lock-family tables; they are -exp locks only")
	}
	out += Figure6(s)
	out += Locks(s)
	for _, want := range []string{"Table 1", "Figure 1", "Figure 2", "Figure 3a",
		"Figure 4a", "Figure 5", "Figure 6 (Pmake)", "Figure 7a", "Table 3", "Figure 8",
		"Table 4", "Table 5", "Table 6", "Table 7", "Figure 9", "Table 9",
		"Figure 10", "Table 10", "Table 11", "Table 12",
		"All kernel lock families (Pmake)", "All kernel lock families (Multpgm)",
		"All kernel lock families (Oracle)"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing section %q", want)
		}
	}
	t.Log("\n" + out)
}

// TestPaperShapeRegression guards the calibration: the paper's qualitative
// findings must keep emerging at the pinned seed/window. Each assertion
// names the claim it protects.
func TestPaperShapeRegression(t *testing.T) {
	s := testSet()

	// Table 1: OS-miss share ranks Pmake > Multpgm > Oracle.
	p, m, o := s.Pmake.OSMissShare(), s.Multpgm.OSMissShare(), s.Oracle.OSMissShare()
	if !(p > m && m > o) {
		t.Errorf("OS-miss share ordering broken: %.1f / %.1f / %.1f", p, m, o)
	}
	// OS stall is a double-digit share for the engineering workloads,
	// lowest for Oracle.
	s.each(func(name string, ch *core.Characterization) {
		_, osOnly, osInd := ch.StallPct()
		if osOnly < 10 || osOnly > 40 {
			t.Errorf("%s OS stall %.1f%% outside the credible band", name, osOnly)
		}
		if osInd < osOnly {
			t.Errorf("%s induced stall below OS stall", name)
		}
	})
	_, pOS, _ := s.Pmake.StallPct()
	_, oOS, _ := s.Oracle.StallPct()
	if oOS >= pOS {
		t.Errorf("Oracle OS stall (%.1f) should be lowest (Pmake %.1f)", oOS, pOS)
	}

	// Figure 4: instruction misses are 40%+ of OS misses everywhere;
	// Dispap dominates Oracle's I-misses (the database displaces the OS).
	s.each(func(name string, ch *core.Characterization) {
		var osI int64
		for cl := trace.MissClass(0); cl < trace.NumClasses; cl++ {
			osI += ch.Trace.Counts[1][1][cl]
		}
		if share := metrics.PctOf(osI, ch.Trace.OSMissTotal); share < 40 {
			t.Errorf("%s I-miss share %.1f%% < 40%%", name, share)
		}
	})
	or := s.Oracle.Trace
	if or.Counts[1][1][trace.DispApp] <= or.Counts[1][1][trace.DispOS] {
		t.Error("Oracle: Dispap should exceed Dispos (database interference)")
	}

	// Figure 4b: Dispossame larger in Pmake than Multpgm (longer
	// invocations).
	dsP := metrics.PctOf(s.Pmake.Trace.DispossameI, s.Pmake.Trace.Counts[1][1][trace.DispOS])
	dsM := metrics.PctOf(s.Multpgm.Trace.DispossameI, s.Multpgm.Trace.Counts[1][1][trace.DispOS])
	if dsP <= dsM {
		t.Errorf("Dispossame: Pmake %.1f%% should exceed Multpgm %.1f%%", dsP, dsM)
	}

	// Figure 6: Pmake/Multpgm pinned to an invalidation floor well above
	// Oracle's; Oracle keeps dropping (1MB ≤ 0.2 relative).
	f6p, f6m, f6o := s.Pmake.Figure6(), s.Multpgm.Figure6(), s.Oracle.Figure6()
	lastP := f6p.DirectMapped[len(f6p.DirectMapped)-1].Relative
	lastM := f6m.DirectMapped[len(f6m.DirectMapped)-1].Relative
	lastO := f6o.DirectMapped[len(f6o.DirectMapped)-1].Relative
	if lastO > 0.2 {
		t.Errorf("Oracle 1MB relative miss rate %.2f, want <0.2", lastO)
	}
	if lastP < 1.5*lastO {
		t.Errorf("Pmake floor %.2f should sit above Oracle's %.2f", lastP, lastO)
	}
	if lastM < 2*lastO {
		t.Errorf("Multpgm floor %.2f should sit well above Oracle's %.2f", lastM, lastO)
	}

	// Table 6: block operations rank Pmake > Multpgm > Oracle.
	blk := func(ch *core.Characterization) float64 { return ch.BlockOpStallPct() }
	if !(blk(s.Pmake) > blk(s.Multpgm) && blk(s.Multpgm) > blk(s.Oracle)) {
		t.Errorf("block-op stall ordering broken: %.1f / %.1f / %.1f",
			blk(s.Pmake), blk(s.Multpgm), blk(s.Oracle))
	}

	// Table 4: migration share of OS D-misses is largest in Oracle,
	// smallest in Pmake.
	mig := func(ch *core.Characterization) float64 {
		var osD int64
		for cl := trace.MissClass(0); cl < trace.NumClasses; cl++ {
			osD += ch.Trace.Counts[1][0][cl]
		}
		return metrics.PctOf(ch.Trace.MigrationTotal, osD)
	}
	if !(mig(s.Oracle) > mig(s.Pmake)) {
		t.Errorf("migration share: Oracle %.1f%% should exceed Pmake %.1f%%",
			mig(s.Oracle), mig(s.Pmake))
	}

	// Figure 2: sginap is the largest Multpgm syscall category.
	ops := s.Multpgm.Ops.OpCounts
	if ops[kernel.OpSginap] <= ops[kernel.OpOtherSyscall] {
		t.Errorf("sginap (%d) should exceed other syscalls (%d)",
			ops[kernel.OpSginap], ops[kernel.OpOtherSyscall])
	}

	// Table 11: eight of the ten lock families are live in Pmake. Semlock
	// guards Oracle's semaphores and Streams_x Multpgm's tty sessions.
	var idle []string
	for _, n := range table11Locks {
		if s.Pmake.Sim.K.Locks.FamilyStats(n).Acquires == 0 {
			idle = append(idle, n)
		}
	}
	if want := []string{klock.StreamsX, klock.Semlock}; !slices.Equal(idle, want) {
		t.Errorf("Table 11 families idle in Pmake: %v, want %v", idle, want)
	}

	// Table 10: cacheable RMW locks beat the sync bus everywhere.
	s.each(func(name string, ch *core.Characterization) {
		cur, rmw := ch.SyncStallPct()
		if rmw >= cur {
			t.Errorf("%s: cacheable locks (%.2f) not better than sync bus (%.2f)", name, rmw, cur)
		}
	})
}

func TestFigure8OrderCoversAttributionNames(t *testing.T) {
	// Every name kmem.Layout.Attribute can produce must appear in the
	// Figure 8 rendering (figure8Order plus the ad-hoc Other row), or
	// a new structure would silently vanish from the figure.
	covered := map[string]bool{kmem.AttrOther: true, kmem.AttrKernelText: true}
	for _, n := range figure8Order {
		covered[n] = true
	}
	for n := range kmem.Table3Sizes() {
		if !covered[n] {
			t.Errorf("attribution name %q missing from figure8Order", n)
		}
	}
	for _, n := range []string{kmem.AttrBcopy, kmem.AttrBclear, kmem.AttrHiNdproc} {
		if !covered[n] {
			t.Errorf("dynamic attribution name %q missing from figure8Order", n)
		}
	}
}
