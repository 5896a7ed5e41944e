package report

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/machineflag"
	"repro/internal/runner"
	"repro/internal/workload"
)

// TestReportsByteIdenticalPerSeed is the replay guarantee the fault
// injector depends on: two runs with the same seed must render every
// table and figure byte-for-byte identically, so an injected-fault
// failure can always be reproduced from its seed alone.
func TestReportsByteIdenticalPerSeed(t *testing.T) {
	run := func() string {
		return All(RunSetParallel(core.Config{Window: 600_000, Warmup: 300_000, Seed: 11, Check: true}, runner.Options{}))
	}
	a, b := run(), run()
	if a != b {
		// Find the first divergent line for a useful failure message.
		la, lb := splitLines(a), splitLines(b)
		for i := 0; i < len(la) && i < len(lb); i++ {
			if la[i] != lb[i] {
				t.Fatalf("reports diverge at line %d:\n  run1: %s\n  run2: %s", i+1, la[i], lb[i])
			}
		}
		t.Fatalf("reports differ in length: %d vs %d bytes", len(a), len(b))
	}
}

// diffLines fails the test at the first divergent line of a and b.
func diffLines(t *testing.T, what, a, b string) {
	t.Helper()
	if a == b {
		return
	}
	la, lb := splitLines(a), splitLines(b)
	for i := 0; i < len(la) && i < len(lb); i++ {
		if la[i] != lb[i] {
			t.Fatalf("%s diverges at line %d:\n  serial:   %s\n  parallel: %s", what, i+1, la[i], lb[i])
		}
	}
	t.Fatalf("%s differs in length: %d vs %d bytes", what, len(a), len(b))
}

// TestParallelRunSetByteIdentical is the worker pool's contract: the full
// report — including the Figure 6 re-simulation, whose inner sweep also
// fans out — must render byte-for-byte identically on 1 worker and on 8.
func TestParallelRunSetByteIdentical(t *testing.T) {
	cfg := core.Config{Window: 600_000, Warmup: 300_000, Seed: 11, Check: true, CollectIResim: true}
	render := func(par int) string {
		set := RunSetParallel(cfg, runner.Options{Parallelism: par})
		return All(set) + Figure6(set)
	}
	diffLines(t, "report", render(1), render(8))
}

// TestHitFilterIdentity is the hit filter's end-to-end oracle at the
// report's full window. A default run answers state-free hits at the CPU;
// a checked run sends every reference through the bus. With the filter on
// or off the machine must end in the same state, with the same bus
// statistics and per-CPU time, and render the same report — for all three
// workloads on the 4D/340 and the 8-CPU 4D/380. The reference paths turn
// the filter off too; they are reachable only from core's own tests, so
// that leg is core's TestDifferential.
func TestHitFilterIdentity(t *testing.T) {
	m380, err := machineflag.Preset("4d380")
	if err != nil {
		t.Fatal(err)
	}
	// The config line is the hash, which names the mode; nothing else may
	// differ.
	body := func(ch *core.Characterization) string {
		lines := splitLines(Single(ch))
		return strings.Join(append(lines[:1:1], lines[2:]...), "\n")
	}
	for _, m := range []arch.Machine{arch.Default(), m380} {
		for _, k := range []workload.Kind{workload.Pmake, workload.Multpgm, workload.Oracle} {
			cfg := core.Config{Workload: k, Machine: m, Window: 2_000_000, Warmup: 1_000_000, Seed: 11}
			filtered := core.Run(cfg)
			off := cfg
			off.Check = true
			plain := core.Run(off)
			what := fmt.Sprintf("%v/ncpu%d filtered vs check", k, m.NCPU)
			if a, b := filtered.Sim.StateHash(), plain.Sim.StateHash(); a != b {
				t.Errorf("%s: machine state %#x vs %#x", what, a, b)
			}
			if a, b := filtered.Sim.Bus.Stats, plain.Sim.Bus.Stats; a != b {
				t.Errorf("%s: bus stats %+v vs %+v", what, a, b)
			}
			for i, c := range filtered.Sim.CPUs {
				p := plain.Sim.CPUs[i]
				if c.Time != p.Time || c.Stall != p.Stall || c.L2Stall != p.L2Stall {
					t.Errorf("%s: cpu %d time/stall/l2stall %v %v %v vs %v %v %v",
						what, i, c.Time, c.Stall, c.L2Stall, p.Time, p.Stall, p.L2Stall)
				}
			}
			diffLines(t, what, body(filtered), body(plain))
		}
	}
}

// TestParallelFigure11ByteIdentical covers the other fan-out entry point:
// the lock-contention sweep over CPU counts.
func TestParallelFigure11ByteIdentical(t *testing.T) {
	render := func(par int) string {
		out, _ := runFigure11(t, core.Config{Window: 400_000, Seed: 7}, []int{2, 3, 4}, runner.Options{Parallelism: par})
		return out
	}
	diffLines(t, "figure 11", render(1), render(8))
}

// runFigure11 runs the figure11 entry over counts from base and returns
// its rendering and runs.
func runFigure11(t *testing.T, base core.Config, counts []int, opts runner.Options) (string, []*core.Characterization) {
	t.Helper()
	e, _ := Lookup("figure11")
	e.CPUs = counts
	b, err := e.Run(context.Background(), base, opts)
	if err != nil {
		t.Fatal(err)
	}
	return e.Render(b), b.Runs
}

// fig11 renders the Figure 11 sweep of base over counts on the default
// worker pool.
func fig11(t *testing.T, base core.Config, counts []int) string {
	t.Helper()
	out, _ := runFigure11(t, base, counts, runner.Options{})
	return out
}

// TestFigure11HonorsBase: every Figure 11 point is the base configuration
// at another CPU count, so the machine and the checker reach the runs.
func TestFigure11HonorsBase(t *testing.T) {
	base := core.Config{Window: 400_000, Seed: 7}
	counts := []int{2, 4}
	m380, err := machineflag.Preset("4d380")
	if err != nil {
		t.Fatal(err)
	}
	m380.DCacheL2Size = 1 << 20
	big := base
	big.Machine = m380
	if fig11(t, big, counts) == fig11(t, base, counts) {
		t.Error("a 4d380 base with a 1 MB L2 renders the default machine's Figure 11")
	}

	checked := base
	checked.Check = true
	_, runs := runFigure11(t, checked, counts, runner.Options{})
	for i, ch := range runs {
		chk := ch.Sim.Chk
		if chk == nil {
			t.Fatalf("ncpu %d: a Check base attached no checker", counts[i])
		}
		if chk.Checks == 0 || chk.Violations != 0 {
			t.Errorf("ncpu %d: %d checks, %d violations; want >0 checks, 0 violations",
				counts[i], chk.Checks, chk.Violations)
		}
	}
}

// TestFigure11WindowDefault pins the zero-window fallback to the one
// canonical default (core's, arch.DefaultWindow), in the runs and in the
// per-millisecond rates; this path once disagreed with cmd/sweep (8M vs 12M).
func TestFigure11WindowDefault(t *testing.T) {
	explicit := fig11(t, core.Config{Window: arch.DefaultWindow, Seed: 7}, []int{2})
	if got := fig11(t, core.Config{Seed: 7}, []int{2}); got != explicit {
		t.Errorf("zero-window Figure 11:\n%s\nwant the arch.DefaultWindow one:\n%s", got, explicit)
	}
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	return append(out, s[start:])
}

// TestRegistryFigure6IsSwept: the registry's all and figure6 entries sweep
// Figure 6 online, so no run of theirs stores its I-miss stream, and they
// render what Figure6 renders from the stored streams of the same runs.
func TestRegistryFigure6IsSwept(t *testing.T) {
	base := core.Config{Window: 600_000, Warmup: 300_000, Seed: 11}
	stored := base
	stored.CollectIResim = true
	want := Figure6(RunSetParallel(stored, runner.Options{}))
	for _, name := range []string{"all", "figure6"} {
		e, _ := Lookup(name)
		b, err := e.Run(context.Background(), base, runner.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, ch := range b.Runs {
			if ch.Trace.IResim != nil {
				t.Errorf("-exp %s: the %v run stored %d I-miss events", name, ch.Cfg.Workload, len(ch.Trace.IResim))
			}
		}
		if got := e.Render(b); !strings.HasSuffix(got, want) {
			t.Errorf("-exp %s does not end in the stored streams' Figure 6:\n%s\nwant suffix\n%s", name, got, want)
		}
	}
}
