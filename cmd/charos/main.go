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
//	charos -exp locks              # Tables 10-12 plus every lock family
//	charos -exp table1 -window 24000000
//	charos -exp table1 -check      # run under the invariant checker
//	charos -exp table1 -check -inject all   # checked fault-injection run
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/inject"
	"repro/internal/report"
	"repro/internal/runflag"
	"repro/internal/sample"
	"repro/internal/workload"
)

// flags are charos's own flags beside the shared run flags.
type flags struct {
	run       *runflag.Flags
	exp       *string
	ncpu      *int
	affinity  *bool
	inject    *string
	faultSeed *int64
	sample    *string

	// Set by resolve: the experiment, its renderer when it is one section
	// of the three workload runs, and their configuration.
	name    string
	section func(*report.Set) string
	cfg     core.Config
}

func newFlags(fs *flag.FlagSet) *flags {
	return &flags{
		run:       runflag.Register(fs),
		exp:       fs.String("exp", "all", "experiment to reproduce: all, report, table1, figure1, figure2, figure3, figure4, figure5, figure6, figure7, table3, figure8, table4, table5, table6, table7, figure9, table9, figure10, table10, table11, table12, locks, section6"),
		ncpu:      fs.Int("ncpu", 0, "number of CPUs (0 = the -machine preset's count)"),
		affinity:  fs.Bool("affinity", false, "enable cache-affinity scheduling"),
		inject:    fs.String("inject", "", "fault-injection modes: evict, jitter, intr, migrate, all, or a comma list"),
		faultSeed: fs.Int64("fault-seed", 0, "fault-injector seed (0 derives one from -seed)"),
		sample:    fs.String("sample", "", "sampled simulation schedule \"warmup:len:period\" in cycles (e.g. 100K:200K:10M); requires -exp report"),
	}
}

// resolve reads the parsed flags into the validated configuration and the
// section to render; it simulates nothing.
func (f *flags) resolve() (err error) {
	f.name = strings.ToLower(*f.exp)
	switch f.name {
	case "all", "report":
	case "section6":
		if *f.ncpu != 0 || *f.affinity {
			return errors.New("-exp section6 runs its own 8-CPU study without affinity; -ncpu and -affinity do not apply")
		}
	case "figure6":
		f.section = report.TimedFigure6
	case "locks":
		f.section = report.Locks
	default:
		for _, sec := range report.Sections {
			if sec.Name == f.name {
				f.section = sec.Render
			}
		}
		if f.section == nil {
			return fmt.Errorf("unknown experiment %q", *f.exp)
		}
	}
	f.cfg, err = f.run.Config(func(c *core.Config) (err error) {
		if c.Sample, err = sample.Parse(*f.sample); err != nil {
			return err
		}
		icfg, err := inject.Preset(*f.inject)
		if err != nil {
			return err
		}
		icfg.Seed = *f.faultSeed
		if icfg.Enabled() {
			c.Inject = &icfg
		}
		if (f.name == "table3" || f.name == "table11") && (c.Check || *f.inject != "") {
			return fmt.Errorf("-exp %s is static (no simulation); -check and -inject do not apply", f.name)
		}
		if c.Sample.Enabled() && f.name != "report" {
			// The paper tables print the exact counts; only the per-run
			// report renders the interval estimate and its error bars.
			return errors.New("-sample requires -exp report (the other sections print exact classification tables)")
		}
		c.NCPU, c.Affinity = *f.ncpu, *f.affinity
		c.CollectIResim = f.name == "all" || f.name == "figure6"
		return nil
	})
	return err
}

func main() {
	f := newFlags(flag.CommandLine)
	flag.Parse()
	os.Exit(f.run.Main(f.resolve, f.main))
}

func (f *flags) main(r runflag.Run) int {
	cfg := f.cfg
	if cfg.Inject != nil && !cfg.Check {
		fmt.Fprintln(os.Stderr, "note: -inject without -check perturbs the run unvalidated")
	}
	switch f.name {
	case "table3", "table11":
		fmt.Print(f.section(nil)) // static: no simulation
		return 0
	case "section6":
		// The cluster what-if study runs its own 8-CPU Multpgm run; the
		// policy ladder is a sink of the streaming pipeline.
		cfg.Workload, cfg.NCPU = workload.Multpgm, 8
		study := cluster.NewStudy(cfg.Canonical().Machine, 2)
		ch, err := core.RunMonitored(r.Ctx, cfg, nil, study)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Print(cluster.Render(study.Results(), "Multpgm, 4 clusters of 2"))
		return runflag.Finish(runflag.Named{Name: "section6", Ch: ch})
	}

	fmt.Fprintf(os.Stderr, "running Pmake, Multpgm and Oracle (window %d cycles ≈ %.0f ms at 33 MHz, %d workers)...\n",
		cfg.Window, float64(cfg.Window.NS())/1e6, r.Opts.Parallelism)
	if cfg.Inject != nil {
		fmt.Fprintf(os.Stderr, "fault injection on: %s\n", cfg.Inject.Modes())
	}
	set, err := report.RunSetContext(r.Ctx, cfg, r.Opts)
	if err != nil {
		// The structured cancellation carries its provenance: canonical
		// config hash, seed, and the simulated cycle reached.
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	switch {
	case f.section != nil:
		fmt.Print(f.section(set))
	case f.name == "report":
		// Per-run reports: the one section that renders sampled runs
		// (estimated totals with error bars) as well as full ones.
		fmt.Print(report.Single(set.Pmake))
		fmt.Print(report.Single(set.Multpgm))
		fmt.Print(report.Single(set.Oracle))
	default:
		fmt.Print(report.All(set))
		fmt.Print(report.TimedFigure6(set))
	}
	fmt.Fprint(os.Stderr, set.Stats.Table())
	if cfg.Inject != nil && set.Pmake.Sim.Inj != nil {
		fmt.Fprintf(os.Stderr, "faults delivered (Pmake): %v\n", set.Pmake.Sim.Inj.Stats)
	}
	return runflag.Finish(runflag.Workloads(set)...)
}
