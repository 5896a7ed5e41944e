// Command sweep runs the parameter-sweep experiments: the Figure 6
// I-cache size/associativity re-simulation, the Figure 11 lock
// contention sweep over CPU counts, and the full-system geometry sweep
// that re-runs the simulator at each data-cache configuration and
// cross-validates the §4.2.2 replay oracle. Independent runs fan out
// across a worker pool; -parallel 1 restores serial execution (output
// is byte-identical either way).
//
// Usage:
//
//	sweep -exp figure6 [-window N] [-parallel N]
//	sweep -exp figure11 [-cpus 2,4,6,8,12,16] [-parallel N]
//	sweep -exp geometry [-machine 4d340|4d380] [-window N] [-parallel N]
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/arch"
	"repro/internal/cachesweep"
	"repro/internal/core"
	"repro/internal/machineflag"
	"repro/internal/profiling"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/sample"
	"repro/internal/trace"
)

func main() { os.Exit(run()) }

func run() int {
	exp := flag.String("exp", "figure6", "figure6, figure11 or geometry")
	window := machineflag.CyclesFlag(flag.CommandLine, "window", int64(arch.DefaultWindow),
		"traced window in 30ns cycles (K/M/G suffixes and scientific notation ok, e.g. 1e9)")
	sampleSpec := flag.String("sample", "",
		"sampled simulation schedule \"warmup:len:period\" for the geometry sweep's full-system re-runs (e.g. 100K:200K:10M)")
	seed := flag.Int64("seed", 1, "random seed")
	cpus := flag.String("cpus", "2,4,6,8,12,16", "CPU counts for figure11")
	checkFlag := flag.Bool("check", false, "run the invariant checker alongside the sweep")
	reference := flag.Bool("reference", false,
		"run the generic oracle paths instead of the memory-system fast path")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0),
		"worker-pool size for independent runs (1 = serial)")
	simWorkers := flag.Int("sim-workers", 1,
		"intra-run worker goroutines for the conservative parallel engine (1 = serial scheduler); output is byte-identical at any count")
	timeout := flag.Duration("timeout", 0,
		"wall-clock budget for the whole sweep (0 = none); on expiry prints the cancellation provenance and exits nonzero")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	mf := machineflag.Register(flag.CommandLine)
	flag.Parse()

	machine, err := mf.Machine()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	stopProf, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	defer stopProf()

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// Oversubscription cap: pool workers × intra-run workers must fit the
	// machine, or the engines just contend with each other.
	pool := runner.CapTotal(*parallel, *simWorkers)
	if pool != *parallel {
		fmt.Fprintf(os.Stderr, "note: -parallel clamped %d -> %d (-sim-workers %d, GOMAXPROCS %d)\n",
			*parallel, pool, *simWorkers, runtime.GOMAXPROCS(0))
	}
	sched, err := sample.Parse(*sampleSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if sched.Enabled() && *exp != "geometry" {
		// figure6 re-simulates the materialized I-stream and figure11
		// compares exact lock counts — both need the full trace.
		fmt.Fprintf(os.Stderr, "-sample only applies to -exp geometry (%s needs the exact trace)\n", *exp)
		return 2
	}
	// Every run below is this configuration plus collectors, the checker
	// or a resized L2: what can be wrong with it is wrong with it here.
	if err := (core.Config{Machine: machine, Window: arch.Cycles(*window), Seed: *seed, Sample: sched}).Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	opts := runner.Options{Parallelism: pool, SimWorkers: *simWorkers}
	switch *exp {
	case "figure6":
		set, err := report.RunSetContext(ctx, core.Config{
			Machine: machine,
			Window:  arch.Cycles(*window), Seed: *seed, CollectIResim: true,
			Check: *checkFlag, Reference: *reference,
		}, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Print(report.TimedFigure6(set))
		fmt.Fprint(os.Stderr, set.Stats.Table())
		// Report every failing workload before exiting so one sweep run
		// diagnoses the whole set.
		bad := false
		for _, ch := range []*core.Characterization{set.Pmake, set.Multpgm, set.Oracle} {
			bad = report.ReportViolations(os.Stderr, ch.Cfg.Workload.String(), ch, 1) || bad
		}
		if bad {
			return 1
		}
	case "figure11":
		var counts []int
		for _, part := range strings.Split(*cpus, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n < 1 {
				fmt.Fprintf(os.Stderr, "bad cpu count %q\n", part)
				return 2
			}
			counts = append(counts, n)
		}
		pts, batch, err := report.RunFigure11Context(ctx, counts, arch.Cycles(*window), *seed, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Print(report.Figure11(pts))
		fmt.Fprint(os.Stderr, batch.Table())
	case "geometry":
		return geometry(ctx, machine, arch.Cycles(*window), *seed, sched, opts)
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		return 2
	}
	return 0
}

// osDMisses sums the classified OS data misses of one full-system run: the
// interval estimate when the run was sampled, the exact count otherwise.
func osDMisses(ch *core.Characterization) int64 {
	if ch.Sampled != nil {
		var t float64
		for cl := 0; cl < sample.NumClasses; cl++ {
			c, _ := ch.Sampled.ClassTotal(1, 0, cl)
			t += c
		}
		return int64(math.Round(t))
	}
	var n int64
	for cl := trace.MissClass(0); cl < trace.NumClasses; cl++ {
		n += ch.Trace.Counts[1][0][cl]
	}
	return n
}

// geometry runs the data-cache sweep twice — once by replaying the
// baseline machine's miss stream against each cache configuration (the
// paper's §4.2.2 trace-driven method) and once by re-running the whole
// system with the coherence-level cache actually resized — then prints
// the two relative-miss curves side by side. The replay mirrors are
// direct-mapped models, so set-associative points run replay-only. A
// final run exercises the 4d380 preset (8 CPUs, 64 MB) end to end. The
// invariant checker rides every full-system run; any violation fails
// the sweep.
func geometry(ctx context.Context, m arch.Machine, window arch.Cycles, seed int64, sched sample.Schedule, opts runner.Options) int {
	fmt.Fprintf(os.Stderr, "geometry sweep on %s, window %d, seed %d\n", m, window, seed)
	if sched.Enabled() {
		// The replay oracle is compared with exact counts, so only the
		// direct re-runs and the preset run print the interval estimate.
		fmt.Fprintf(os.Stderr, "sampling %s on the direct re-runs (baseline stays full for the replay oracle)\n", sched)
	}

	base, err := core.RunContext(ctx, core.Config{
		Machine: m, Window: window, Seed: seed,
		CollectDResim: true, Check: true,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	bad := report.ReportViolations(os.Stderr, "baseline "+m.String(), base, 1)

	cfgs := core.DefaultDSweepConfigs()
	replay := base.DCacheSweep(cfgs)

	// Direct full-system re-runs: one per direct-mapped configuration
	// (the replay caches cannot model associativity, so those points
	// have no comparable direct run).
	type directPoint struct {
		ch     *core.Characterization
		misses int64
		err    error
	}
	var directCfgs []cachesweep.Config
	for _, cfg := range cfgs {
		if cfg.Assoc == 1 {
			directCfgs = append(directCfgs, cfg)
		}
	}
	direct, mapErr := runner.MapContext(ctx, len(directCfgs), opts, func(ctx context.Context, i int) directPoint {
		m2 := m
		m2.DCacheL2Size = directCfgs[i].Size
		m2.DCacheL2Assoc = directCfgs[i].Assoc
		ch, err := core.RunContext(ctx, core.Config{
			Machine: m2, Window: window, Seed: seed, Check: true, Sample: sched,
		})
		if err != nil {
			return directPoint{err: err}
		}
		return directPoint{ch: ch, misses: osDMisses(ch)}
	})
	if mapErr != nil {
		fmt.Fprintln(os.Stderr, mapErr)
		return 1
	}
	for _, p := range direct {
		if p.err != nil {
			fmt.Fprintln(os.Stderr, p.err)
			return 1
		}
	}
	var directBase int64
	for i, cfg := range directCfgs {
		if cfg.Size == m.DCacheL2Size && cfg.Assoc == m.DCacheL2Assoc {
			directBase = direct[i].misses
		}
	}

	fmt.Printf("Data-cache geometry sweep: replay oracle vs direct full-system re-run\n")
	fmt.Printf("(OS data misses relative to the %s point of each method)\n\n",
		sizeLabel(m.DCacheL2Size))
	fmt.Printf("  %-12s %14s %9s %14s %9s\n",
		"cache", "replay misses", "rel", "direct misses", "rel")
	di := 0
	for i, cfg := range cfgs {
		label := fmt.Sprintf("%s/%d-way", sizeLabel(cfg.Size), cfg.Assoc)
		fmt.Printf("  %-12s %14d %9.2f", label, replay[i].OSMisses, replay[i].Relative)
		if cfg.Assoc == 1 {
			p := direct[di]
			rel := 0.0
			if directBase > 0 {
				rel = float64(p.misses) / float64(directBase)
			}
			fmt.Printf(" %14d %9.2f\n", p.misses, rel)
			bad = report.ReportViolations(os.Stderr, "direct "+label, p.ch, 1) || bad
			di++
		} else {
			fmt.Printf(" %14s %9s\n", "-", "-")
		}
	}

	// The 8-CPU / 64 MB preset, end to end with the checker on.
	big, _ := machineflag.Preset("4d380")
	bch, err := core.RunContext(ctx, core.Config{
		Machine: big, Window: window, Seed: seed, Check: true, Sample: sched,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	bad = report.ReportViolations(os.Stderr, "preset "+big.String(), bch, 1) || bad
	user, sys, idle := bch.TimeSplit()
	all, osOnly, _ := bch.StallPct()
	fmt.Printf("\n4d380 preset (%s):\n", big)
	fmt.Printf("  time split user/sys/idle: %.1f%% / %.1f%% / %.1f%%\n", user, sys, idle)
	fmt.Printf("  memory-stall share: %.1f%% of non-idle cycles (OS %.1f%%)\n", all, osOnly)
	fmt.Printf("  OS data misses: %d\n", osDMisses(bch))

	if bad {
		return 1
	}
	return 0
}

func sizeLabel(n int) string {
	if n >= 1<<20 && n%(1<<20) == 0 {
		return fmt.Sprintf("%dM", n>>20)
	}
	return fmt.Sprintf("%dK", n>>10)
}
