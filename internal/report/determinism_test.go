package report

import (
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
		return All(RunSet(core.Config{Window: 600_000, Warmup: 300_000, Seed: 11, Check: true}))
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

// TestStreamingMatchesBufferedReports is the streaming pipeline's oracle:
// classifying every transaction inline, the cycle it occurs, must render
// every table and figure byte-for-byte identically to the stop-and-drain
// pipeline that materializes the monitor trace and replays it after the
// run — for all three workloads, serially and under the worker pool.
func TestStreamingMatchesBufferedReports(t *testing.T) {
	for _, par := range []int{1, 8} {
		render := func(buffered bool) string {
			set := RunSetParallel(core.Config{
				Window: 600_000, Warmup: 300_000, Seed: 11, Check: true,
				Buffered: buffered,
			}, runner.Options{Parallelism: par})
			return All(set)
		}
		streaming, buffered := render(false), render(true)
		if streaming != buffered {
			la, lb := splitLines(streaming), splitLines(buffered)
			for i := 0; i < len(la) && i < len(lb); i++ {
				if la[i] != lb[i] {
					t.Fatalf("parallelism %d: reports diverge at line %d:\n  streaming: %s\n  buffered:  %s",
						par, i+1, la[i], lb[i])
				}
			}
			t.Fatalf("parallelism %d: reports differ in length: %d vs %d bytes",
				par, len(streaming), len(buffered))
		}
	}
}

// TestFastMatchesReferenceReports is the memory-system fast path's oracle:
// the presence-filtered snoops, direct-mapped cache specialization and
// run-ahead scheduler must render every table and figure byte-for-byte
// identically to the generic reference paths (-reference) — for all three
// workloads, serially and under the worker pool.
func TestFastMatchesReferenceReports(t *testing.T) {
	for _, par := range []int{1, 8} {
		render := func(ref bool) string {
			set := RunSetParallel(core.Config{
				Window: 600_000, Warmup: 300_000, Seed: 11, Check: true,
				Reference: ref,
			}, runner.Options{Parallelism: par})
			return All(set)
		}
		fast, reference := render(false), render(true)
		if fast != reference {
			la, lb := splitLines(fast), splitLines(reference)
			for i := 0; i < len(la) && i < len(lb); i++ {
				if la[i] != lb[i] {
					t.Fatalf("parallelism %d: reports diverge at line %d:\n  fast:      %s\n  reference: %s",
						par, i+1, la[i], lb[i])
				}
			}
			t.Fatalf("parallelism %d: reports differ in length: %d vs %d bytes",
				par, len(fast), len(reference))
		}
	}
}

// TestHitFilterIdentity is the hit filter's end-to-end oracle. A default
// run answers state-free hits at the CPU; a -reference run and a checked
// run both send every reference through the bus (the oracles above compare
// checked runs with each other, so on their own they never see the filter).
// With the filter on or off the machine must end in the same state, with
// the same bus statistics and per-CPU time, and render the same report —
// for all three workloads on the 4D/340 and the 8-CPU 4D/380.
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
			for _, mode := range []string{"reference", "check"} {
				off := cfg
				off.Reference, off.Check = mode == "reference", mode == "check"
				plain := core.Run(off)
				what := fmt.Sprintf("%v/ncpu%d filtered vs %s", k, m.NCPU, mode)
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
}

// TestParallelFigure11ByteIdentical covers the other fan-out entry point:
// the lock-contention sweep over CPU counts.
func TestParallelFigure11ByteIdentical(t *testing.T) {
	render := func(par int) string {
		pts, _ := RunFigure11Parallel([]int{2, 3, 4}, 400_000, 7, runner.Options{Parallelism: par})
		return Figure11(pts)
	}
	diffLines(t, "figure 11", render(1), render(8))
}

// TestFigure11WindowDefault pins the zero-window fallback to the one
// canonical default; this path used to disagree with cmd/sweep (8M vs 12M).
func TestFigure11WindowDefault(t *testing.T) {
	if got := figure11Window(0); got != arch.DefaultWindow {
		t.Errorf("figure11Window(0) = %d, want arch.DefaultWindow (%d)", got, arch.DefaultWindow)
	}
	if got := figure11Window(-1); got != arch.DefaultWindow {
		t.Errorf("figure11Window(-1) = %d, want %d", got, arch.DefaultWindow)
	}
	if got := figure11Window(100); got != 100 {
		t.Errorf("figure11Window(100) = %d, want 100", got)
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

// TestDefaultMachineMatchesSeed is the machine-descriptor oracle: a config
// that spells out arch.Default() explicitly must produce byte-identical
// reports to the zero-Machine config (the historical constants path) for
// all three workloads — proof the runtime descriptor refactor preserves
// behavior exactly.
func TestDefaultMachineMatchesSeed(t *testing.T) {
	render := func(m arch.Machine) string {
		set := RunSetParallel(core.Config{
			Machine: m,
			Window:  600_000, Warmup: 300_000, Seed: 11, Check: true,
		}, runner.Options{Parallelism: 8})
		return All(set)
	}
	diffLines(t, "default machine vs constants", render(arch.Machine{}), render(arch.Default()))
}
