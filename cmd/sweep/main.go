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
	"strconv"
	"strings"

	"repro/internal/cachesweep"
	"repro/internal/core"
	"repro/internal/machineflag"
	"repro/internal/report"
	"repro/internal/runflag"
	"repro/internal/runner"
	"repro/internal/sample"
	"repro/internal/trace"
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
	f := &flags{
		run:  runflag.Register(fs),
		exp:  fs.String("exp", "figure6", "figure6, figure11 or geometry"),
		cpus: fs.String("cpus", "2,4,6,8,12,16", "CPU counts for figure11"),
	}
	f.run.Sample(fs, "sampled simulation schedule \"warmup:len:period\" for the geometry sweep's full-system re-runs (e.g. 100K:200K:10M)")
	return f
}

// resolve reads the parsed flags into the validated base configuration
// and the CPU counts; it simulates nothing.
func (f *flags) resolve() (err error) {
	switch *f.exp {
	case "figure6", "geometry":
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
	f.cfg, err = f.run.Config(func(c *core.Config) error {
		if c.Sample.Enabled() && *f.exp != "geometry" {
			// figure6 re-simulates the materialized I-stream and figure11
			// compares exact lock counts — both need the full trace.
			return fmt.Errorf("-sample only applies to -exp geometry (%s needs the exact trace)", *f.exp)
		}
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
	switch *f.exp {
	case "figure6":
		cfg.CollectIResim = true
		set, err := report.RunSetContext(r.Ctx, cfg, r.Opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Print(report.TimedFigure6(set))
		fmt.Fprint(os.Stderr, set.Stats.Table())
		return runflag.Finish(runflag.Workloads(set)...)
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
		return geometry(r, cfg)
	}
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
// invariant checker rides every full-system run, -check or not; any
// violation fails the sweep.
func geometry(r runflag.Run, cfg core.Config) int {
	m := cfg.Machine
	fmt.Fprintf(os.Stderr, "geometry sweep on %s, window %d, seed %d\n", m, cfg.Window, cfg.Seed)
	if cfg.Sample.Enabled() {
		// The replay oracle is compared with exact counts, so only the
		// direct re-runs and the preset run print the interval estimate.
		fmt.Fprintf(os.Stderr, "sampling %s on the direct re-runs (baseline stays full for the replay oracle)\n", cfg.Sample)
	}
	cfg.Check = true

	baseCfg := cfg
	baseCfg.Sample, baseCfg.CollectDResim = sample.Schedule{}, true
	base, err := core.RunContext(r.Ctx, baseCfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
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
	for i, c := range directCfgs {
		if c.Size == m.DCacheL2Size && c.Assoc == m.DCacheL2Assoc {
			directBase = direct[i].misses
		}
	}

	fmt.Printf("Data-cache geometry sweep: replay oracle vs direct full-system re-run\n")
	fmt.Printf("(OS data misses relative to the %s point of each method)\n\n",
		sizeLabel(m.DCacheL2Size))
	fmt.Printf("  %-12s %14s %9s %14s %9s\n",
		"cache", "replay misses", "rel", "direct misses", "rel")
	di := 0
	for i, c := range cfgs {
		label := fmt.Sprintf("%s/%d-way", sizeLabel(c.Size), c.Assoc)
		fmt.Printf("  %-12s %14d %9.2f", label, replay[i].OSMisses, replay[i].Relative)
		if c.Assoc == 1 {
			p := direct[di]
			rel := 0.0
			if directBase > 0 {
				rel = float64(p.misses) / float64(directBase)
			}
			fmt.Printf(" %14d %9.2f\n", p.misses, rel)
			runs = append(runs, runflag.Named{Name: "direct " + label, Ch: p.ch})
			di++
		} else {
			fmt.Printf(" %14s %9s\n", "-", "-")
		}
	}

	// The 8-CPU / 64 MB preset, end to end with the checker on.
	big, _ := machineflag.Preset("4d380")
	bigCfg := cfg
	bigCfg.Machine = big
	bch, err := core.RunContext(r.Ctx, bigCfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	runs = append(runs, runflag.Named{Name: "preset " + big.String(), Ch: bch})
	user, sys, idle := bch.TimeSplit()
	all, osOnly, _ := bch.StallPct()
	fmt.Printf("\n4d380 preset (%s):\n", big)
	fmt.Printf("  time split user/sys/idle: %.1f%% / %.1f%% / %.1f%%\n", user, sys, idle)
	fmt.Printf("  memory-stall share: %.1f%% of non-idle cycles (OS %.1f%%)\n", all, osOnly)
	fmt.Printf("  OS data misses: %d\n", osDMisses(bch))
	return runflag.Finish(runs...)
}

func sizeLabel(n int) string {
	if n >= 1<<20 && n%(1<<20) == 0 {
		return fmt.Sprintf("%dM", n>>20)
	}
	return fmt.Sprintf("%dK", n>>10)
}
