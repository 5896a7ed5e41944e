// Package runflag is the command-line surface the simulating binaries
// (charos, sweep) share: -window, -seed, -check, -parallel, -timeout,
// -cpuprofile, -memprofile, and the -machine preset with its geometry
// overrides. A binary registers them beside its own flags, resolves them
// after Parse into a registry entry's validated base core.Config, and
// runs the entry under Main (worker pool, -timeout context, profiling)
// through Exec, which ends with Finish.
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
	parallel               *int
	simWorkers             bool // -sim-workers was given (tombstone.go)
	timeout                *time.Duration
	cpuprofile, memprofile *string
	machine                *machineflag.Flags
}

// Register installs the shared run flags on fs.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{
		window: machineflag.CyclesFlag(fs, "window", int64(arch.DefaultWindow),
			"traced window in 30ns cycles (K/M/G suffixes and scientific notation ok, e.g. 1e9)"),
		seed:     fs.Int64("seed", 1, "random seed"),
		check:    fs.Bool("check", false, "run the invariant checker (shadow memory, coherence, lock discipline)"),
		parallel: fs.Int("parallel", runtime.GOMAXPROCS(0), "worker-pool size for independent runs (1 = serial)"),
		timeout: fs.Duration("timeout", 0,
			"wall-clock budget for the whole run (0 = none); on expiry prints the cancellation provenance and exits nonzero"),
		cpuprofile: fs.String("cpuprofile", "", "write a CPU profile to this file"),
		memprofile: fs.String("memprofile", "", "write a heap profile to this file on exit"),
		machine:    machineflag.Register(fs),
	}
	registerSimWorkers(fs, &f.simWorkers)
	return f
}

// Config resolves the machine, -window, -seed and -check into experiment
// e's base configuration, lets the binary set its own fields through
// adjust (nil for none) and validates the result for e (see
// report.Experiment.Validate). Nothing has run yet, so every error is a
// usage error.
func (f *Flags) Config(e report.Experiment, adjust func(*core.Config) error) (core.Config, error) {
	machine, err := f.machine.Machine()
	if err != nil {
		return core.Config{}, err
	}
	cfg := core.Config{Machine: machine, Window: arch.Cycles(*f.window), Seed: *f.seed,
		Check: *f.check}
	if adjust != nil {
		if err := adjust(&cfg); err != nil {
			return core.Config{}, err
		}
	}
	if err := e.Validate(cfg); err != nil {
		return core.Config{}, err
	}
	return cfg, nil
}

// Run is what a binary's body runs under: the -timeout context and the
// worker-pool options.
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
	if f.simWorkers {
		fmt.Fprintln(os.Stderr, simWorkersNote)
	}
	r.Opts = runner.Options{Parallelism: *f.parallel}
	return body(r)
}

// Exec runs experiment e from base and ends the invocation: stdout is the
// entry's rendering, stderr the batch's timing table with the rendering's
// own wall-clock (it runs after the simulations, so no run's covers it),
// and the exit code Finish's over every run. A static entry only renders.
func (r Run) Exec(e report.Experiment, base core.Config) int {
	if base.Inject != nil && !base.Check {
		fmt.Fprintln(os.Stderr, "note: -inject without -check perturbs the run unvalidated")
	}
	if e.Configs == nil {
		fmt.Print(e.Render(nil))
		return 0
	}
	fmt.Fprintf(os.Stderr, "running -exp %s (window %d cycles ≈ %.0f ms at 33 MHz, %d workers)...\n",
		e.Name, base.Window, float64(base.Window.NS())/1e6, r.Opts.Parallelism)
	if base.Inject != nil {
		fmt.Fprintf(os.Stderr, "fault injection on: %s\n", base.Inject.Modes())
	}
	b, err := e.Run(r.Ctx, base, r.Opts)
	if err != nil {
		// The structured cancellation carries its provenance: canonical
		// config hash, seed, and the simulated cycle reached.
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	start := time.Now()
	out := e.Render(b)
	b.Stats.Post, b.Stats.PostLabel = time.Since(start), "rendering -exp "+e.Name
	fmt.Print(out)
	fmt.Fprint(os.Stderr, b.Stats.Table())
	named := make([]Named, len(b.Runs))
	for i, ch := range b.Runs {
		named[i] = Named{Name: fmt.Sprintf("%s on %s", b.Stats.Runs[i].Label, ch.Cfg.Machine), Ch: ch}
		if ch.Sim.Inj != nil {
			fmt.Fprintf(os.Stderr, "faults delivered (%s): %v\n", named[i].Name, ch.Sim.Inj.Stats)
		}
	}
	return Finish(named...)
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
