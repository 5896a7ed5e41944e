package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/arch"
	"repro/internal/metrics"
	"repro/internal/monitor"
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
		{Sample: sched, CollectIResim: true, CollectDResim: true, Check: true},
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

func TestTimelineTallies(t *testing.T) {
	ch := small(t, Config{Workload: workload.Pmake})
	tl := ch.Trace.Timeline
	if tl.OS.N == 0 {
		t.Fatal("no OS invocations tallied")
	}
	if tl.OS.Cycles <= 0 || tl.App.Cycles <= 0 {
		t.Errorf("degenerate tallies: OS %+v, App %+v", tl.OS, tl.App)
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

// ablation is one of the paper's proposed OS-side fixes, judged by the
// direction of its paired effect against the unmodified run: the variant
// must move its metric the predicted way at every seed.
type ablation struct {
	name    string
	section string
	kind    workload.Kind
	enable  func(*Config)
	metric  string
	measure func(*Characterization) float64
	up      bool // predicted direction: true if the variant raises metric
}

var ablations = []ablation{
	{
		name: "affinity", section: "§4.2.2", kind: workload.Multpgm,
		enable: func(c *Config) { c.Affinity = true },
		metric: "migration misses",
		measure: func(ch *Characterization) float64 {
			return float64(ch.Trace.MigrationTotal)
		},
	},
	{
		name: "optimized text", section: "§4.2.1", kind: workload.Pmake,
		enable: func(c *Config) { c.OptimizedText = true },
		metric: "OS I-Dispos %",
		measure: func(ch *Characterization) float64 {
			return metrics.PctOf(ch.Trace.Counts[1][1][trace.DispOS], ch.Trace.OSMissTotal)
		},
	},
	{
		name: "block-op bypass", section: "§4.2.2", kind: workload.Pmake,
		enable: func(c *Config) { c.BlockOpBypass = true },
		metric: "OS stall %",
		measure: func(ch *Characterization) float64 {
			_, osOnly, _ := ch.StallPct()
			return osOnly
		},
	},
	{
		name: "write-update", section: "(protocol)", kind: workload.Multpgm,
		enable: func(c *Config) { c.UpdateProtocol = true },
		metric: "total stall %",
		measure: func(ch *Characterization) float64 {
			all, _, _ := ch.StallPct()
			return all
		},
		up: true,
	},
}

// ablationSeeds are the seeds every ablation is paired at.
var ablationSeeds = []int64{1, 2, 3, 4}

// ablationRuns memoises the paired runs, so a baseline is simulated once
// per workload and seed however many rows and tests read it.
var ablationRuns = map[string]*Characterization{}

// ablationPair returns the named row's baseline and variant at seed
// (2M window, 1M warmup).
func ablationPair(name string, seed int64) (ablation, *Characterization, *Characterization) {
	for _, a := range ablations {
		if a.name != name {
			continue
		}
		run := func(key string, enable func(*Config)) *Characterization {
			key = fmt.Sprintf("%s/%s/%d", a.kind, key, seed)
			if ch, ok := ablationRuns[key]; ok {
				return ch
			}
			cfg := Config{Workload: a.kind, Window: 2_000_000, Warmup: 1_000_000, Seed: seed}
			if enable != nil {
				enable(&cfg)
			}
			ch := Run(cfg)
			ablationRuns[key] = ch
			return ch
		}
		return a, run("baseline", nil), run(a.name, a.enable)
	}
	panic("no ablation row " + name)
}

// TestAblationConfigsRun pairs every ablation against its baseline over
// four seeds: each run must run the full pipeline cleanly and the variant
// must move its metric the predicted way. `-v` logs baseline → variant for
// each row and seed.
func TestAblationConfigsRun(t *testing.T) {
	for _, seed := range ablationSeeds {
		for _, row := range ablations {
			a, b, v := ablationPair(row.name, seed)
			for _, ch := range []*Characterization{b, v} {
				if ch.Trace.Total == 0 {
					t.Fatalf("%s seed %d: no misses", a.name, seed)
				}
				u, s, i := ch.TimeSplit()
				if sum := u + s + i; sum < 99.9 || sum > 100.1 {
					t.Errorf("%s seed %d: time split sums to %v", a.name, seed, sum)
				}
			}
			mb, mv := a.measure(b), a.measure(v)
			t.Logf("%-15s %-10s %-7s seed %d: %s %.1f → %.1f",
				a.name, a.section, a.kind, seed, a.metric, mb, mv)
			if a.up && mv <= mb {
				t.Errorf("%s seed %d: %s %.1f → %.1f, predicted up", a.name, seed, a.metric, mb, mv)
			}
			if !a.up && mv >= mb {
				t.Errorf("%s seed %d: %s %.1f → %.1f, predicted down", a.name, seed, a.metric, mb, mv)
			}
		}
	}
}

func TestUpdateProtocolRemovesReReadSharingMisses(t *testing.T) {
	for _, seed := range ablationSeeds {
		_, inv, upd := ablationPair("write-update", seed)
		// Update coherence broadcasts every write to shared data, so on a
		// write-shared load the updates outnumber the invalidate
		// protocol's upgrades.
		t.Logf("seed %d: upgrades %d → updates %d",
			seed, inv.Sim.Bus.Stats.Upgrades, upd.Sim.Bus.Stats.Updates)
		if upd.Sim.Bus.Stats.Updates <= inv.Sim.Bus.Stats.Upgrades {
			t.Errorf("seed %d: updates (%d) should exceed upgrades (%d) on a write-shared load",
				seed, upd.Sim.Bus.Stats.Updates, inv.Sim.Bus.Stats.Upgrades)
		}
	}
}

func TestBypassShiftsMissesToUncached(t *testing.T) {
	for _, seed := range ablationSeeds {
		_, std, byp := ablationPair("block-op bypass", seed)
		// The burst transfers appear as the paper's Uncached class...
		stdUn := std.Trace.Counts[1][0][trace.Uncached]
		bypUn := byp.Trace.Counts[1][0][trace.Uncached]
		if bypUn <= stdUn*10 {
			t.Errorf("seed %d: bypass should move block-op misses to the Uncached class: %d vs %d",
				seed, bypUn, stdUn)
		}
		// ...and the cached block-op D-miss attribution collapses.
		var stdB, bypB int64
		for _, v := range std.Trace.BlockOpDMisses {
			stdB += v
		}
		for _, v := range byp.Trace.BlockOpDMisses {
			bypB += v
		}
		t.Logf("seed %d: OS Uncached misses %d → %d, cached block-op D-misses %d → %d",
			seed, stdUn, bypUn, stdB, bypB)
		if bypB*2 > stdB {
			t.Errorf("seed %d: cached block-op misses should collapse under bypass: %d vs %d",
				seed, bypB, stdB)
		}
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

// TestSinkOnNoTracePanics: a NoTrace run records nothing a sink could be
// fed, so asking for one is an invalid config.
func TestSinkOnNoTracePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("a sink on a NoTrace run did not panic")
		}
	}()
	RunMonitored(context.Background(), Config{NoTrace: true, Window: 100_000}, nil, &monitor.Discard{})
}

// TestSinkOfNeitherKindPanics: a sink must take transactions, I-misses or
// both; anything else would be fed nothing.
func TestSinkOfNeitherKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("a sink that is neither a bus.Recorder nor a trace.IMissSink did not panic")
		}
	}()
	RunMonitored(context.Background(), Config{Window: 100_000}, nil, 42)
}
