// Command charos runs the full characterization pipeline — the simulated
// multiprocessor, the instrumented kernel, the paper's workloads, the
// hardware monitor, and the trace postprocessor — and prints any (or all)
// of the paper's tables and figures with the published values side by
// side. Each -exp name is one entry of the experiment registry
// (report.Experiments; charos -h lists them).
//
// Usage:
//
//	charos [-exp all|table1|...|figure11|geometry] [-window N] [-seed N]
//	charos -exp table1 -check      # run under the invariant checker
//	charos -exp table1 -check -inject all   # checked fault-injection run
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/inject"
	"repro/internal/report"
	"repro/internal/runflag"
	"repro/internal/sample"
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

	// Set by resolve: the registry entry and its base configuration.
	e   report.Experiment
	cfg core.Config
}

func newFlags(fs *flag.FlagSet) *flags {
	names := make([]string, len(report.Experiments))
	for i, e := range report.Experiments {
		names[i] = e.Name
	}
	return &flags{
		run:       runflag.Register(fs),
		exp:       fs.String("exp", "all", "experiment to reproduce: "+strings.Join(names, ", ")),
		ncpu:      fs.Int("ncpu", 0, "number of CPUs (0 = the -machine preset's count)"),
		affinity:  fs.Bool("affinity", false, "enable cache-affinity scheduling"),
		inject:    fs.String("inject", "", "fault-injection modes: evict, jitter, intr, migrate, all, or a comma list"),
		faultSeed: fs.Int64("fault-seed", 0, "fault-injector seed (0 derives one from -seed)"),
		sample:    fs.String("sample", "", "sampled simulation schedule \"warmup:len:period\" in cycles (e.g. 100K:200K:10M); requires -exp report"),
	}
}

// resolve reads the parsed flags into the registry entry and its validated
// base configuration; it simulates nothing.
func (f *flags) resolve() (err error) {
	name := strings.ToLower(*f.exp)
	var ok bool
	if f.e, ok = report.Lookup(name); !ok {
		return fmt.Errorf("unknown experiment %q", *f.exp)
	}
	if f.e.CPUs != nil && (*f.ncpu != 0 || *f.affinity) {
		return fmt.Errorf("-exp %s runs its own %s-CPU study without affinity; -ncpu and -affinity do not apply",
			name, strings.ReplaceAll(strings.Trim(fmt.Sprint(f.e.CPUs), "[]"), " ", ","))
	}
	f.cfg, err = f.run.Config(f.e, func(c *core.Config) (err error) {
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
		if f.e.Configs == nil && (c.Check || *f.inject != "") {
			return fmt.Errorf("-exp %s is static (no simulation); -check and -inject do not apply", name)
		}
		if c.Sample.Enabled() && !f.e.Sampled {
			// The paper tables print the exact counts; only the per-run
			// report renders the interval estimate and its error bars.
			return errors.New("-sample requires -exp report (the other sections print exact classification tables)")
		}
		c.NCPU, c.Affinity = *f.ncpu, *f.affinity
		return nil
	})
	return err
}

func main() {
	f := newFlags(flag.CommandLine)
	flag.Parse()
	os.Exit(f.run.Main(f.resolve, f.main))
}

func (f *flags) main(r runflag.Run) int { return r.Exec(f.e, f.cfg) }
