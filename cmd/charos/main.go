// Command charos runs the full characterization pipeline — the simulated
// four-CPU multiprocessor, the instrumented kernel, the three workloads of
// the paper, the hardware monitor, and the trace postprocessor — and
// prints any (or all) of the paper's tables and figures with the published
// values side by side.
//
// Usage:
//
//	charos [-exp all|table1|figure1|...|table12] [-window N] [-seed N]
//	charos -exp figure6            # includes the cache sweeps
//	charos -exp table1 -window 24000000
//	charos -exp table1 -check      # run under the invariant checker
//	charos -exp table1 -check -inject all   # checked fault-injection run
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"repro/internal/arch"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/inject"
	"repro/internal/machineflag"
	"repro/internal/profiling"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/sample"
	"repro/internal/workload"
)

// reportViolations prints a run's invariant violations to stderr and
// reports whether there were any.
func reportViolations(name string, ch *core.Characterization) bool {
	return report.ReportViolations(os.Stderr, name, ch, -1)
}

func main() { os.Exit(run()) }

func run() int {
	exp := flag.String("exp", "all", "experiment to reproduce: all, report, table1, figure1, figure2, figure3, figure4, figure5, figure6, figure7, table3, figure8, table4, table5, table6, table7, figure9, table9, figure10, table10, table11, table12, section6")
	window := machineflag.CyclesFlag(flag.CommandLine, "window", int64(arch.DefaultWindow),
		"traced window in 30ns cycles (K/M/G suffixes and scientific notation ok, e.g. 1e9)")
	sampleSpec := flag.String("sample", "",
		"sampled simulation schedule \"warmup:len:period\" in cycles (e.g. 100K:200K:10M); requires -exp report")
	seed := flag.Int64("seed", 1, "random seed")
	ncpu := flag.Int("ncpu", 0, "number of CPUs (0 = the -machine preset's count)")
	affinity := flag.Bool("affinity", false, "enable cache-affinity scheduling")
	checkFlag := flag.Bool("check", false, "run the invariant checker (shadow memory, coherence, lock discipline)")
	injectFlag := flag.String("inject", "", "fault-injection modes: evict, jitter, intr, migrate, all, or a comma list")
	faultSeed := flag.Int64("fault-seed", 0, "fault-injector seed (0 derives one from -seed)")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0),
		"worker-pool size for the three workload runs (1 = serial)")
	simWorkers := flag.Int("sim-workers", 1,
		"intra-run worker goroutines for the conservative parallel engine (1 = serial scheduler); output is byte-identical at any count")
	timeout := flag.Duration("timeout", 0,
		"wall-clock budget for the whole run (0 = none); on expiry prints the cancellation provenance and exits nonzero")
	buffered := flag.Bool("buffered", false,
		"use the stop-and-drain pipeline (materialize the monitor trace, classify post-run) instead of streaming classification")
	reference := flag.Bool("reference", false,
		"run the generic oracle paths (way-loop caches, full snoop broadcasts, rescan scheduler) instead of the memory-system fast path")
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

	icfg, err := inject.Preset(*injectFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	icfg.Seed = *faultSeed
	var injectCfg *inject.Config
	if icfg.Enabled() {
		injectCfg = &icfg
		if !*checkFlag {
			fmt.Fprintln(os.Stderr, "note: -inject without -check perturbs the run unvalidated")
		}
	}

	// Oversubscription cap: pool workers × intra-run workers must fit the
	// machine, or the engines just contend with each other.
	pool := runner.CapTotal(*parallel, *simWorkers)
	if pool != *parallel {
		fmt.Fprintf(os.Stderr, "note: -parallel clamped %d -> %d (-sim-workers %d, GOMAXPROCS %d)\n",
			*parallel, pool, *simWorkers, runtime.GOMAXPROCS(0))
	}

	name := strings.ToLower(*exp)
	sched, err := sample.Parse(*sampleSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if sched.Enabled() && name != "report" {
		// The paper tables print the exact counts; only the per-run
		// report renders the interval estimate and its error bars.
		fmt.Fprintln(os.Stderr, "-sample requires -exp report (the other sections print exact classification tables)")
		return 2
	}
	cfg := core.Config{
		Machine:       machine,
		Window:        arch.Cycles(*window),
		Seed:          *seed,
		NCPU:          *ncpu,
		Affinity:      *affinity,
		Check:         *checkFlag,
		Inject:        injectCfg,
		Buffered:      *buffered,
		Reference:     *reference,
		SimWorkers:    *simWorkers,
		Sample:        sched,
		CollectIResim: name == "all" || name == "figure6",
	}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	// Static sections need no simulation.
	switch name {
	case "table3":
		fmt.Print(report.Table3())
		return 0
	case "table11":
		fmt.Print(report.Table11())
		return 0
	case "section6":
		// The cluster what-if study runs its own 8-CPU simulation. It
		// reprices the materialized transaction trace, so it always runs
		// the buffered pipeline.
		ch, err := core.RunContext(ctx, core.Config{
			Workload: workload.Multpgm, Machine: machine, NCPU: 8,
			Window: arch.Cycles(*window), Seed: *seed,
			Check: *checkFlag, Inject: injectCfg, Buffered: true,
			Reference: *reference,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		results := cluster.Study(ch.Sim.Mon.Trace(), ch.Sim.K.L, 8, 2)
		fmt.Print(cluster.Render(results, "Multpgm, 4 clusters of 2"))
		if reportViolations("section6", ch) {
			return 1
		}
		return 0
	}

	sections := map[string]func(*report.Set) string{
		"table1":   report.Table1,
		"figure1":  report.Figure1,
		"figure2":  report.Figure2,
		"figure3":  report.Figure3,
		"figure4":  report.Figure4,
		"figure5":  report.Figure5,
		"figure6":  report.TimedFigure6,
		"figure7":  report.Figure7,
		"figure8":  report.Figure8,
		"table4":   report.Table4,
		"table5":   report.Table5,
		"table6":   report.Table6,
		"table7":   report.Table7,
		"figure9":  report.Figure9,
		"table9":   report.Table9,
		"figure10": report.Figure10,
		"table10":  report.Table10,
		"table12":  report.Table12,
	}
	// Validate before the (expensive) simulations run.
	if _, ok := sections[name]; !ok && name != "all" && name != "report" {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		return 2
	}

	fmt.Fprintf(os.Stderr, "running Pmake, Multpgm and Oracle (window %d cycles ≈ %.0f ms at 33 MHz, %d workers)...\n",
		cfg.Window, float64(cfg.Window.NS())/1e6, pool)
	if injectCfg != nil {
		fmt.Fprintf(os.Stderr, "fault injection on: %s\n", injectCfg.Modes())
	}
	set, err := report.RunSetContext(ctx, cfg, runner.Options{Parallelism: pool})
	if err != nil {
		// The structured cancellation carries its provenance: canonical
		// config hash, seed, and the simulated cycle reached.
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	switch name {
	case "all":
		fmt.Print(report.All(set))
		fmt.Print(report.TimedFigure6(set))
	case "report":
		// Per-run reports: the one section that renders sampled runs
		// (estimated totals with error bars) as well as full ones.
		fmt.Print(report.Single(set.Pmake))
		fmt.Print(report.Single(set.Multpgm))
		fmt.Print(report.Single(set.Oracle))
	default:
		fmt.Print(sections[name](set))
	}
	fmt.Fprint(os.Stderr, set.Stats.Table())
	if injectCfg != nil && set.Pmake.Sim.Inj != nil {
		fmt.Fprintf(os.Stderr, "faults delivered (Pmake): %v\n", set.Pmake.Sim.Inj.Stats)
	}
	bad := reportViolations("Pmake", set.Pmake)
	bad = reportViolations("Multpgm", set.Multpgm) || bad
	bad = reportViolations("Oracle", set.Oracle) || bad
	if bad {
		return 1
	}
	if cfg.Check {
		fmt.Fprintf(os.Stderr, "invariant checker: %d checks, 0 violations\n",
			set.Pmake.Sim.Chk.Checks+set.Multpgm.Sim.Chk.Checks+set.Oracle.Sim.Chk.Checks)
	}
	return 0
}
