// Package runflag is the command-line surface the simulating binaries
// (charos, sweep) share: -window, -seed, -check, -parallel, -sim-workers,
// -timeout, -cpuprofile, -memprofile, and the -machine preset with its
// geometry overrides. A binary registers them beside its own flags,
// resolves them after Parse into the validated base core.Config, runs
// under Main (worker pool, -timeout context, profiling) and ends with
// Finish.
package runflag

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/machineflag"
	"repro/internal/report"
	"repro/internal/runner"
)

// MaxListed caps how many collected violations Finish lists per run; the
// count line always carries the total.
const MaxListed = 10

// Flags holds the registered shared flags until Config and Main resolve
// them.
type Flags struct {
	window, seed           *int64
	check                  *bool
	parallel, simWorkers   *int
	timeout                *time.Duration
	cpuprofile, memprofile *string
	machine                *machineflag.Flags
}

// Register installs the shared run flags on fs.
func Register(fs *flag.FlagSet) *Flags {
	return &Flags{
		window: machineflag.CyclesFlag(fs, "window", int64(arch.DefaultWindow),
			"traced window in 30ns cycles (K/M/G suffixes and scientific notation ok, e.g. 1e9)"),
		seed:     fs.Int64("seed", 1, "random seed"),
		check:    fs.Bool("check", false, "run the invariant checker (shadow memory, coherence, lock discipline)"),
		parallel: fs.Int("parallel", runtime.GOMAXPROCS(0), "worker-pool size for independent runs (1 = serial)"),
		simWorkers: fs.Int("sim-workers", 1,
			"intra-run worker goroutines for the conservative parallel engine (1 = serial scheduler); output is byte-identical at any count"),
		timeout: fs.Duration("timeout", 0,
			"wall-clock budget for the whole run (0 = none); on expiry prints the cancellation provenance and exits nonzero"),
		cpuprofile: fs.String("cpuprofile", "", "write a CPU profile to this file"),
		memprofile: fs.String("memprofile", "", "write a heap profile to this file on exit"),
		machine:    machineflag.Register(fs),
	}
}

// Config resolves the machine, -window, -seed, -check and -sim-workers
// into the base configuration, lets the binary set its own fields through
// adjust (nil for none) and validates the result. Nothing has run yet, so
// every error is a usage error.
func (f *Flags) Config(adjust func(*core.Config) error) (core.Config, error) {
	machine, err := f.machine.Machine()
	if err != nil {
		return core.Config{}, err
	}
	cfg := core.Config{Machine: machine, Window: arch.Cycles(*f.window), Seed: *f.seed,
		Check: *f.check, SimWorkers: *f.simWorkers}
	if adjust != nil {
		if err := adjust(&cfg); err != nil {
			return core.Config{}, err
		}
	}
	return cfg, cfg.Validate()
}

// Run is what a binary's body runs under: the -timeout context and the
// worker-pool options, with the pool capped so pool workers × -sim-workers
// fit the machine.
type Run struct {
	Ctx  context.Context
	Opts runner.Options
}

// Main is a binary's exit code: resolve reads its own flags (an error is a
// usage error, exit 2), then body runs under profiling and -timeout.
func (f *Flags) Main(resolve func() error, body func(Run) int) int {
	if err := resolve(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if *f.cpuprofile != "" {
		file, err := os.Create(*f.cpuprofile)
		if err == nil {
			err = pprof.StartCPUProfile(file)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		defer file.Close()
		defer pprof.StopCPUProfile()
	}
	if *f.memprofile != "" {
		defer writeHeapProfile(*f.memprofile)
	}
	r := Run{Ctx: context.Background()}
	if *f.timeout > 0 {
		var cancel context.CancelFunc
		r.Ctx, cancel = context.WithTimeout(r.Ctx, *f.timeout)
		defer cancel()
	}
	pool := runner.CapTotal(*f.parallel, *f.simWorkers)
	if pool != *f.parallel {
		fmt.Fprintf(os.Stderr, "note: -parallel clamped %d -> %d (-sim-workers %d, GOMAXPROCS %d)\n",
			*f.parallel, pool, *f.simWorkers, runtime.GOMAXPROCS(0))
	}
	r.Opts = runner.Options{Parallelism: pool, SimWorkers: *f.simWorkers}
	return body(r)
}

func writeHeapProfile(path string) {
	f, err := os.Create(path)
	if err == nil {
		defer f.Close()
		runtime.GC() // capture the steady-state heap, not transient garbage
		err = pprof.WriteHeapProfile(f)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "memprofile:", err)
	}
}

// Named is one finished run and the label its violations are listed under.
type Named struct {
	Name string
	Ch   *core.Characterization
}

// Workloads names a set's three runs in paper order.
func Workloads(s *report.Set) []Named {
	return []Named{{"Pmake", s.Pmake}, {"Multpgm", s.Multpgm}, {"Oracle", s.Oracle}}
}

// Finish ends an invocation on stderr: every run's invariant violations
// or, when runs were checked and none violated, the total check count. It
// returns the exit code, 1 on any violation.
func Finish(runs ...Named) int { return finish(os.Stderr, runs) }

func finish(w io.Writer, runs []Named) int {
	var checks int64
	checked, bad := false, false
	for _, r := range runs {
		if r.Ch == nil || r.Ch.Sim.Chk == nil {
			continue
		}
		chk := r.Ch.Sim.Chk
		checked, checks = true, checks+chk.Checks
		if chk.Violations == 0 {
			continue
		}
		bad = true
		fmt.Fprintf(w, "%s: %d invariant violations (%d checks)\n", r.Name, chk.Violations, chk.Checks)
		// The checker caps its collected list independently of its
		// counter, so the list may be shorter than the count.
		errs := r.Ch.CheckErrors[:min(len(r.Ch.CheckErrors), MaxListed)]
		for _, e := range errs {
			fmt.Fprintf(w, "  %v\n", e)
		}
		if more := chk.Violations - int64(len(errs)); more > 0 {
			fmt.Fprintf(w, "  ... %d more violations not listed\n", more)
		}
	}
	if bad {
		return 1
	}
	if checked {
		fmt.Fprintf(w, "invariant checker: %d checks, 0 violations\n", checks)
	}
	return 0
}
