// Command lockstat reproduces the synchronization study of Section 5: the
// sync-bus vs cacheable-lock stall comparison (Table 10), the lock
// functions (Table 11), and the per-lock characterization (Table 12), plus
// a dump of every lock family's statistics for the chosen workload. The
// three workload runs fan out across a worker pool (-parallel 1 restores
// serial execution; output is byte-identical either way).
//
// Usage:
//
//	lockstat [-workload Pmake|Multpgm|Oracle] [-window N] [-parallel N]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/machineflag"
	"repro/internal/metrics"
	"repro/internal/profiling"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/sample"
	"repro/internal/workload"
)

func main() { os.Exit(run()) }

func run() int {
	wl := flag.String("workload", "Pmake", "workload: Pmake, Multpgm, Oracle")
	window := machineflag.CyclesFlag(flag.CommandLine, "window", int64(arch.DefaultWindow),
		"traced window in 30ns cycles (K/M/G suffixes and scientific notation ok, e.g. 1e9)")
	sampleSpec := flag.String("sample", "",
		"sampled simulation schedule \"warmup:len:period\" in cycles; lock statistics and sync-stall accounting stay exact (only the miss classification is sampled)")
	seed := flag.Int64("seed", 1, "random seed")
	checkFlag := flag.Bool("check", false, "run the invariant checker (lock discipline included)")
	reference := flag.Bool("reference", false,
		"run the generic oracle paths instead of the memory-system fast path")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0),
		"worker-pool size for the workload runs (1 = serial)")
	simWorkers := flag.Int("sim-workers", 1,
		"intra-run worker goroutines for the conservative parallel engine (1 = serial scheduler); output is byte-identical at any count")
	timeout := flag.Duration("timeout", 0,
		"wall-clock budget for the whole run (0 = none); on expiry prints the cancellation provenance and exits nonzero")
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

	kind, err := workload.ParseKind(*wl)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
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
	cfg := core.Config{Machine: machine, Window: arch.Cycles(*window), Seed: *seed, Check: *checkFlag, Reference: *reference, Sample: sched}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	fmt.Fprintf(os.Stderr, "running all three workloads for Table 10, %s for the detail dump...\n", kind)
	set, err := report.RunSetContext(ctx, cfg, runner.Options{Parallelism: pool, SimWorkers: *simWorkers})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Print(report.Table10(set))
	fmt.Print(report.Table11())
	fmt.Print(report.Table12(set))

	var ch *core.Characterization
	switch kind {
	case workload.Pmake:
		ch = set.Pmake
	case workload.Multpgm:
		ch = set.Multpgm
	default:
		ch = set.Oracle
	}
	t := metrics.NewTable(fmt.Sprintf("All kernel lock families (%s), most acquired first", kind),
		"Lock", "Acquires", "kCyc between", "Failed%", "SameCPU%", "Cached/Uncached%")
	for _, st := range ch.Sim.K.Locks.AllStats() {
		if st.Acquires == 0 {
			continue
		}
		t.AddRow(st.Name, st.Acquires,
			fmt.Sprintf("%.1f", st.CyclesBetweenAcq/1000),
			fmt.Sprintf("%.1f", st.PctFailed),
			fmt.Sprintf("%.1f", st.PctSameCPU),
			fmt.Sprintf("%.0f", st.PctCachedVsUncached))
	}
	fmt.Print(t.String())
	fmt.Fprint(os.Stderr, set.Stats.Table())

	// Report every failing workload, not just the first, before exiting.
	bad := false
	for _, c := range []*core.Characterization{set.Pmake, set.Multpgm, set.Oracle} {
		bad = report.ReportViolations(os.Stderr, c.Cfg.Workload.String(), c, 1) || bad
	}
	if bad {
		return 1
	}
	return 0
}
