// Command sweep re-runs the system across machine parameters: the Figure
// 11 lock contention sweep over CPU counts, and the full-system geometry
// sweep that re-runs the simulator at each data-cache configuration and
// cross-validates the §4.2.2 replay oracle. Independent runs fan out
// across a worker pool; -parallel 1 restores serial execution (output
// is byte-identical either way).
//
// Usage:
//
//	sweep -exp figure11 [-cpus 2,4,6,8,12,16] [-parallel N]
//	sweep -exp geometry [-machine 4d340|4d380] [-window N] [-parallel N]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/cachesweep"
	"repro/internal/core"
	"repro/internal/machineflag"
	"repro/internal/report"
	"repro/internal/runflag"
	"repro/internal/runner"
)

// flags are sweep's own flags beside the shared run flags.
type flags struct {
	run  *runflag.Flags
	exp  *string
	cpus *string

	// Set by resolve: the base configuration every run of the sweep
	// varies, and figure11's CPU counts.
	cfg    core.Config
	counts []int
}

func newFlags(fs *flag.FlagSet) *flags {
	return &flags{
		run:  runflag.Register(fs),
		exp:  fs.String("exp", "figure11", "figure11 or geometry"),
		cpus: fs.String("cpus", "2,4,6,8,12,16", "CPU counts for figure11"),
	}
}

// resolve reads the parsed flags into the validated base configuration
// and the CPU counts; it simulates nothing.
func (f *flags) resolve() (err error) {
	switch *f.exp {
	case "geometry":
	case "figure11":
		for _, part := range strings.Split(*f.cpus, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n < 1 {
				return fmt.Errorf("bad cpu count %q", part)
			}
			f.counts = append(f.counts, n)
		}
	default:
		return fmt.Errorf("unknown experiment %q", *f.exp)
	}
	f.cfg, err = f.run.Config(nil)
	return err
}

func main() {
	f := newFlags(flag.CommandLine)
	flag.Parse()
	os.Exit(f.run.Main(f.resolve, f.main))
}

func (f *flags) main(r runflag.Run) int {
	cfg := f.cfg
	switch *f.exp {
	case "figure11":
		pts, batch, runs, err := report.RunFigure11Context(r.Ctx, cfg, f.counts, r.Opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Print(report.Figure11(pts))
		fmt.Fprint(os.Stderr, batch.Table())
		named := make([]runflag.Named, len(runs))
		for i, ch := range runs {
			named[i] = runflag.Named{Name: fmt.Sprintf("Multpgm/%d CPUs", f.counts[i]), Ch: ch}
		}
		return runflag.Finish(named...)
	default:
		runs, err := geometry(r, cfg, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return runflag.Finish(runs...)
	}
}

// geometry runs the data-cache sweep twice — once by replaying the
// baseline machine's miss stream against each cache configuration (the
// paper's §4.2.2 trace-driven method) and once by re-running the whole
// system with the coherence-level cache actually resized — then prints
// the two relative-miss curves side by side on w. The replay mirrors are
// direct-mapped models, so set-associative points run replay-only. A
// final run exercises the 4d380 preset (8 CPUs, 64 MB) end to end. The
// invariant checker rides every full-system run, -check or not; the runs
// come back for Finish, so any violation fails the sweep.
func geometry(r runflag.Run, cfg core.Config, w io.Writer) ([]runflag.Named, error) {
	m := cfg.Machine
	fmt.Fprintf(os.Stderr, "geometry sweep on %s, window %d, seed %d\n", m, cfg.Window, cfg.Seed)
	cfg.Check = true

	baseCfg := cfg
	baseCfg.CollectDResim = true
	base, err := core.RunContext(r.Ctx, baseCfg)
	if err != nil {
		return nil, err
	}
	runs := []runflag.Named{{Name: "baseline " + m.String(), Ch: base}}

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
	for _, c := range cfgs {
		if c.Assoc == 1 {
			directCfgs = append(directCfgs, c)
		}
	}
	direct, mapErr := runner.MapContext(r.Ctx, len(directCfgs), r.Opts, func(ctx context.Context, i int) directPoint {
		dc := cfg
		dc.Machine.DCacheL2Size = directCfgs[i].Size
		dc.Machine.DCacheL2Assoc = directCfgs[i].Assoc
		ch, err := core.RunContext(ctx, dc)
		if err != nil {
			return directPoint{err: err}
		}
		return directPoint{ch: ch, misses: ch.Trace.ClassSum(1, 0)}
	})
	if mapErr != nil {
		return nil, mapErr
	}
	for _, p := range direct {
		if p.err != nil {
			return nil, p.err
		}
	}
	var directBase int64
	for i, c := range directCfgs {
		if c.Size == m.DCacheL2Size && c.Assoc == m.DCacheL2Assoc {
			directBase = direct[i].misses
		}
	}

	fmt.Fprintf(w, "Data-cache geometry sweep: replay oracle vs direct full-system re-run\n")
	fmt.Fprintf(w, "(OS data misses relative to the %s point of each method)\n\n",
		sizeLabel(m.DCacheL2Size))
	fmt.Fprintf(w, "  %-12s %14s %9s %14s %9s\n",
		"cache", "replay misses", "rel", "direct misses", "rel")
	di := 0
	for i, c := range cfgs {
		label := fmt.Sprintf("%s/%d-way", sizeLabel(c.Size), c.Assoc)
		fmt.Fprintf(w, "  %-12s %14d %9.2f", label, replay[i].OSMisses, replay[i].Relative)
		if c.Assoc == 1 {
			p := direct[di]
			rel := 0.0
			if directBase > 0 {
				rel = float64(p.misses) / float64(directBase)
			}
			fmt.Fprintf(w, " %14d %9.2f\n", p.misses, rel)
			runs = append(runs, runflag.Named{Name: "direct " + label, Ch: p.ch})
			di++
		} else {
			fmt.Fprintf(w, " %14s %9s\n", "-", "-")
		}
	}

	// The 8-CPU / 64 MB preset, end to end with the checker on.
	big, _ := machineflag.Preset("4d380")
	bigCfg := cfg
	bigCfg.Machine = big
	bch, err := core.RunContext(r.Ctx, bigCfg)
	if err != nil {
		return nil, err
	}
	runs = append(runs, runflag.Named{Name: "preset " + big.String(), Ch: bch})
	user, sys, idle := bch.TimeSplit()
	all, osOnly, _ := bch.StallPct()
	fmt.Fprintf(w, "\n4d380 preset (%s):\n", big)
	fmt.Fprintf(w, "  time split user/sys/idle: %.1f%% / %.1f%% / %.1f%%\n", user, sys, idle)
	fmt.Fprintf(w, "  memory-stall share: %.1f%% of non-idle cycles (OS %.1f%%)\n", all, osOnly)
	fmt.Fprintf(w, "  OS data misses: %d\n", bch.Trace.ClassSum(1, 0))
	return runs, nil
}

func sizeLabel(n int) string {
	if n >= 1<<20 && n%(1<<20) == 0 {
		return fmt.Sprintf("%dM", n>>20)
	}
	return fmt.Sprintf("%dK", n>>10)
}
