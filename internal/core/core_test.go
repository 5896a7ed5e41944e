package core

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/sample"
	"repro/internal/trace"
	"repro/internal/workload"
)

func small(t *testing.T, cfg Config) *Characterization {
	t.Helper()
	if cfg.Window == 0 {
		cfg.Window = 3_000_000
	}
	cfg.Warmup = cfg.Window / 2
	if cfg.Seed == 0 {
		cfg.Seed = 3
	}
	// The invariant checker rides along on every test run; benchmarks
	// and production runs leave it off.
	cfg.Check = true
	ch := Run(cfg)
	if n := len(ch.CheckErrors); n > 0 {
		t.Fatalf("invariant checker found %d violations, first: %v", n, ch.CheckErrors[0])
	}
	return ch
}

func TestRunProducesTraceAndCounters(t *testing.T) {
	ch := small(t, Config{Workload: workload.Pmake})
	if ch.Trace == nil {
		t.Fatal("no trace result")
	}
	if ch.Trace.Total == 0 || ch.Trace.OSMissTotal == 0 {
		t.Fatal("no misses classified")
	}
	if ch.Ops.OpCounts[0]+ch.Ops.OpCounts[2] == 0 {
		t.Error("no kernel operations counted in the window")
	}
	if ch.NonIdle() == 0 {
		t.Error("no non-idle time")
	}
}

func TestTimeSplitSumsTo100(t *testing.T) {
	ch := small(t, Config{Workload: workload.Oracle})
	u, s, i := ch.TimeSplit()
	if sum := u + s + i; sum < 99.9 || sum > 100.1 {
		t.Errorf("time split sums to %v", sum)
	}
	if u <= 0 || s <= 0 {
		t.Errorf("degenerate split %v/%v/%v", u, s, i)
	}
}

func TestStallOrdering(t *testing.T) {
	ch := small(t, Config{Workload: workload.Pmake})
	all, osOnly, osInd := ch.StallPct()
	if !(all >= osInd && osInd >= osOnly && osOnly > 0) {
		t.Errorf("stall ordering violated: all=%v osInd=%v os=%v", all, osInd, osOnly)
	}
	// Components are each ≤ the OS total.
	for name, v := range map[string]float64{
		"instr":     ch.OSIMissStallPct(),
		"migration": ch.MigrationStallPct(),
		"blockop":   ch.BlockOpStallPct(),
	} {
		if v < 0 || v > osOnly+0.01 {
			t.Errorf("%s stall %v outside [0, %v]", name, v, osOnly)
		}
	}
}

func TestNoTraceMode(t *testing.T) {
	ch := small(t, Config{Workload: workload.Multpgm, NoTrace: true})
	if ch.Trace != nil {
		t.Fatal("NoTrace run produced a trace")
	}
	if ch.Sim.Mon != nil {
		t.Fatal("NoTrace run attached a monitor")
	}
	// Lock statistics still work.
	if ch.Sim.K.Locks.TotalAcquires() == 0 {
		t.Error("no lock activity recorded")
	}
}

func TestFigure6RequiresIResim(t *testing.T) {
	ch := small(t, Config{Workload: workload.Pmake})
	defer func() {
		if recover() == nil {
			t.Error("Figure6 without CollectIResim did not panic")
		}
	}()
	ch.Figure6()
}

// TestConfigValidate pins every rule and its error text: the CLIs print
// these and exit 2, the service returns them as a 400.
func TestConfigValidate(t *testing.T) {
	sched := sample.Schedule{Warmup: 100_000, Length: 200_000, Period: 10_000_000}
	for _, ok := range []Config{
		{},
		{Sample: sched},
		{Sample: sched, Window: 300_000}, // exactly one interval
		{Sample: sched, CollectIResim: true, CollectDResim: true, Check: true, SimWorkers: 2},
		{NCPU: trace.MaxResimCPUs, CollectDResim: true},
		{NCPU: trace.MaxResimCPUs + 1, NoTrace: true},
		{NoTrace: true, Buffered: true},
	} {
		if err := ok.Validate(); err != nil {
			t.Errorf("%+v rejected: %v", ok, err)
		}
	}
	for _, tc := range []struct {
		cfg  Config
		want string
	}{
		{Config{Machine: arch.Machine{NCPU: 4}}, "arch.Machine: ClockMHz 0: must be ≥ 1"},
		{Config{NCPU: -1}, "arch.Machine: NCPU -1: must be ≥ 1"},
		{Config{NCPU: 300, CollectIResim: true}, "resim streams cover at most 256 CPUs, not 300"},
		{Config{NCPU: 300, CollectDResim: true}, "resim streams cover at most 256 CPUs, not 300"},
		{Config{Sample: sample.Schedule{Length: 0, Period: 10}}, "sample: measured length must be positive (got 0)"},
		{Config{Sample: sample.Schedule{Warmup: 8, Length: 8, Period: 10}}, "sample: period 10 shorter than warmup 8 + length 8"},
		{Config{Sample: sched, NoTrace: true}, "sample: needs the streaming classifier (not with notrace or buffered)"},
		{Config{Sample: sched, Buffered: true}, "sample: needs the streaming classifier (not with notrace or buffered)"},
		{Config{Sample: sched, Window: 250_000}, "sample: schedule 100K:200K:10M fits no measured interval in a window of 250000 cycles"},
	} {
		err := tc.cfg.Validate()
		if err == nil || err.Error() != tc.want {
			t.Errorf("%+v: Validate() = %v, want %q", tc.cfg, err, tc.want)
		}
	}
}

// TestResimRejectsTooManyCPUs: the resim events carry the CPU in one byte,
// so a collecting run on a wider machine is refused before it starts.
func TestResimRejectsTooManyCPUs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("CollectIResim on 300 CPUs did not panic")
		}
	}()
	Run(Config{Workload: workload.Pmake, NCPU: 300, Window: 100_000, CollectIResim: true})
}

func TestFigure6Works(t *testing.T) {
	ch := small(t, Config{Workload: workload.Pmake, CollectIResim: true})
	res := ch.Figure6()
	if len(res.DirectMapped) != 5 {
		t.Fatalf("sweep points = %d", len(res.DirectMapped))
	}
	if res.DirectMapped[0].Relative < 0.9 || res.DirectMapped[0].Relative > 1.0001 {
		t.Errorf("64KB DM relative = %v, want ≈1", res.DirectMapped[0].Relative)
	}
	for i := 1; i < len(res.DirectMapped); i++ {
		if res.DirectMapped[i].Relative > res.DirectMapped[i-1].Relative+1e-9 {
			t.Error("DM curve not monotone non-increasing")
		}
	}
}

func TestInvocationStats(t *testing.T) {
	ch := small(t, Config{Workload: workload.Pmake})
	st := ch.Invocations()
	if st.Invocations == 0 {
		t.Fatal("no OS invocations segmented")
	}
	if st.OSAvgCycles <= 0 || st.AppAvgCycles <= 0 {
		t.Errorf("degenerate averages: %+v", st)
	}
	if st.MsBetweenInvocations <= 0 {
		t.Error("no invocation interval")
	}
}

func TestDeterminism(t *testing.T) {
	a := small(t, Config{Workload: workload.Multpgm, Seed: 9})
	b := small(t, Config{Workload: workload.Multpgm, Seed: 9})
	if a.Trace.Total != b.Trace.Total || a.Trace.OSMissTotal != b.Trace.OSMissTotal {
		t.Errorf("same seed differs: (%d,%d) vs (%d,%d)",
			a.Trace.Total, a.Trace.OSMissTotal, b.Trace.Total, b.Trace.OSMissTotal)
	}
	c := small(t, Config{Workload: workload.Multpgm, Seed: 10})
	if c.Trace.Total == a.Trace.Total {
		t.Log("different seeds produced identical totals (possible but unlikely)")
	}
}

func TestSyncStall(t *testing.T) {
	ch := small(t, Config{Workload: workload.Pmake})
	cur, rmw := ch.SyncStallPct()
	if cur <= 0 {
		t.Error("no sync stall measured")
	}
	if rmw >= cur {
		t.Errorf("cacheable locks (%v%%) should beat the sync bus (%v%%)", rmw, cur)
	}
}

func TestTaxonomyConsistency(t *testing.T) {
	// Classified OS+app misses must sum to Total.
	ch := small(t, Config{Workload: workload.Multpgm})
	var sum int64
	for o := 0; o < 2; o++ {
		for i := 0; i < 2; i++ {
			for cl := trace.MissClass(0); cl < trace.NumClasses; cl++ {
				sum += ch.Trace.Counts[o][i][cl]
			}
		}
	}
	if sum != ch.Trace.Total {
		t.Errorf("class sum %d != total %d", sum, ch.Trace.Total)
	}
}

func TestAblationConfigsRun(t *testing.T) {
	// Every ablation knob must run the full pipeline cleanly.
	for _, cfg := range []Config{
		{Workload: workload.Pmake, OptimizedText: true},
		{Workload: workload.Pmake, BlockOpBypass: true},
		{Workload: workload.Multpgm, UpdateProtocol: true},
		{Workload: workload.Multpgm, Affinity: true},
	} {
		cfg.Window = 2_000_000
		cfg.Warmup = 1_000_000
		cfg.Seed = 8
		ch := Run(cfg)
		if ch.Trace.Total == 0 {
			t.Errorf("%+v: no misses", cfg)
		}
		u, s, i := ch.TimeSplit()
		if sum := u + s + i; sum < 99.9 || sum > 100.1 {
			t.Errorf("%+v: time split %v", cfg, sum)
		}
	}
}

func TestUpdateProtocolRemovesReReadSharingMisses(t *testing.T) {
	inv := Run(Config{Workload: workload.Multpgm, Window: 3_000_000,
		Warmup: 1_500_000, Seed: 8})
	upd := Run(Config{Workload: workload.Multpgm, Window: 3_000_000,
		Warmup: 1_500_000, Seed: 8, UpdateProtocol: true})
	// Under update coherence the data caches never lose copies to
	// coherence, so ReadEx/Read fills classified Sharing (re-reads
	// after invalidation) are impossible; all Sharing-class events are
	// the broadcasts themselves, and update broadcasts outnumber the
	// invalidate protocol's upgrades.
	if upd.Sim.Bus.Stats.Updates <= inv.Sim.Bus.Stats.Upgrades {
		t.Errorf("updates (%d) should exceed upgrades (%d) on a write-shared load",
			upd.Sim.Bus.Stats.Updates, inv.Sim.Bus.Stats.Upgrades)
	}
}

func TestBypassShiftsMissesToUncached(t *testing.T) {
	std := Run(Config{Workload: workload.Pmake, Window: 3_000_000,
		Warmup: 1_500_000, Seed: 8})
	byp := Run(Config{Workload: workload.Pmake, Window: 3_000_000,
		Warmup: 1_500_000, Seed: 8, BlockOpBypass: true})
	stdUn := std.Trace.Counts[1][0][trace.Uncached]
	bypUn := byp.Trace.Counts[1][0][trace.Uncached]
	if bypUn <= stdUn*10 {
		t.Errorf("bypass should move block-op misses to the Uncached class: %d vs %d",
			bypUn, stdUn)
	}
	// And the block-op D-miss attribution shrinks to near nothing.
	var stdB, bypB int64
	for _, v := range std.Trace.BlockOpDMisses {
		stdB += v
	}
	for _, v := range byp.Trace.BlockOpDMisses {
		bypB += v
	}
	if bypB*2 > stdB {
		t.Errorf("cached block-op misses should collapse under bypass: %d vs %d", bypB, stdB)
	}
}

func TestNegativeWindowClampsToDefault(t *testing.T) {
	cfg := Config{Window: -5, Warmup: -1}.withDefaults()
	if cfg.Window != arch.DefaultWindow {
		t.Errorf("Window = %d, want arch.DefaultWindow (%d)", cfg.Window, arch.DefaultWindow)
	}
	if cfg.Warmup != cfg.Window/2 {
		t.Errorf("Warmup = %d, want Window/2", cfg.Warmup)
	}
}

// TestZeroWindowDefaults pins the canonical defaults: every entry point
// that leaves the window at zero must land on the same 12M-cycle traced
// window (arch.DefaultWindow), not a per-package copy of it.
func TestZeroWindowDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Window != arch.DefaultWindow {
		t.Errorf("Window = %d, want arch.DefaultWindow (%d)", cfg.Window, arch.DefaultWindow)
	}
	if cfg.Warmup != arch.DefaultWindow/2 {
		t.Errorf("Warmup = %d, want %d", cfg.Warmup, arch.DefaultWindow/2)
	}
	if cfg.NCPU != arch.DefaultCPUs {
		t.Errorf("NCPU = %d, want %d", cfg.NCPU, arch.DefaultCPUs)
	}
	if cfg.Seed != 1 {
		t.Errorf("Seed = %d, want 1", cfg.Seed)
	}
}
