package report

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"repro/internal/arch"
	"repro/internal/cachesweep"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/klock"
	"repro/internal/machineflag"
	"repro/internal/metrics"
	"repro/internal/runner"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Experiment is one -exp name: the paper artefact it reproduces (as
// README's experiment table names it), the runs Configs derives from the
// base configuration, the sinks each run's traced window feeds, and the
// reader that renders the finished batch to stdout. A static entry has no
// Configs: it renders from nil without simulating. CPUs, when set, are the
// entry's own CPU counts: each config runs once per count, and -ncpu does
// not apply. Sinks builds a run's sinks (core.Sink); its error names a
// run they cannot cover. Sampled marks the entry that renders a sampled
// run's estimate; the others print exact classification tables.
type Experiment struct {
	Name, Paper string
	Configs     func(base core.Config) []core.Config
	CPUs        []int
	Sinks       func(cfg core.Config) ([]core.Sink, error)
	Render      func(b *Batch) string
	Sampled     bool
}

// Batch is an experiment's finished runs and each run's sinks, in Runs
// order, with the batch's timing record.
type Batch struct {
	Runs  []*core.Characterization
	Sinks [][]core.Sink
	Stats metrics.BatchStats
}

// Runs are the entry's run configurations from base: Configs' runs, each
// once per CPU count when the entry has its own.
func (e Experiment) Runs(base core.Config) []core.Config {
	if e.Configs == nil {
		return nil
	}
	cfgs := e.Configs(base)
	if e.CPUs == nil {
		return cfgs
	}
	var out []core.Config
	for _, c := range cfgs {
		for _, n := range e.CPUs {
			c.NCPU = n
			out = append(out, c)
		}
	}
	return out
}

// Validate names what makes base unrunnable for the entry: base itself,
// one of the runs derived from it, or a run its sinks cannot cover.
// Nothing simulates, so every error is a usage error.
func (e Experiment) Validate(base core.Config) error {
	if err := base.Validate(); err != nil {
		return err
	}
	for _, c := range e.Runs(base) {
		if err := c.Validate(); err != nil {
			return err
		}
		if e.Sinks != nil {
			if _, err := e.Sinks(c); err != nil {
				return err
			}
		}
	}
	return nil
}

// Run executes the entry's runs from base on one pooled batch, each
// feeding its own sinks. Output rendered from the batch is byte-identical
// on any worker count. A canceled context or a panicking run returns the
// first run's structured error.
func (e Experiment) Run(ctx context.Context, base core.Config, opts runner.Options) (*Batch, error) {
	cfgs := e.Runs(base)
	b := &Batch{Sinks: make([][]core.Sink, len(cfgs))}
	for i, c := range cfgs {
		if e.Sinks != nil {
			var err error
			if b.Sinks[i], err = e.Sinks(c); err != nil {
				return nil, err
			}
		}
	}
	var res []runner.Result
	res, b.Stats = runner.ExperimentsContext(ctx, cfgs, b.Sinks, opts)
	for _, r := range res {
		if r.Err != nil {
			return nil, r.Err
		}
		b.Runs = append(b.Runs, r.Ch)
	}
	return b, nil
}

// set is a workload entry's batch as the sections read it.
func (b *Batch) set() *Set {
	return &Set{Pmake: b.Runs[0], Multpgm: b.Runs[1], Oracle: b.Runs[2]}
}

// Lookup returns the registry entry named name.
func Lookup(name string) (Experiment, bool) {
	i := slices.IndexFunc(Experiments, func(e Experiment) bool { return e.Name == name })
	if i < 0 {
		return Experiment{}, false
	}
	return Experiments[i], true
}

// Experiments is the registry: every -exp name, in README order.
var Experiments = slices.Concat([]Experiment{
	{Name: "all", Paper: "Everything: every table and figure", Configs: workloads, Sinks: iMissSweep,
		Render: func(b *Batch) string { return All(b.set()) + sweptFigure6(b) }},
	{Name: "report", Paper: "Per-workload run reports (with -sample, the sampled estimate)",
		Configs: workloads, Sampled: true, Render: func(b *Batch) string {
			return Single(b.Runs[0]) + Single(b.Runs[1]) + Single(b.Runs[2])
		}},
}, Sections, []Experiment{
	{Name: "figure6", Paper: "Figure 6 (I-cache size and associativity sweep)",
		Configs: workloads, Sinks: iMissSweep, Render: sweptFigure6},
	section("locks", "Tables 10-12 plus every kernel lock family", Locks),
	{Name: "section6", Paper: "§6 cluster study (Multpgm, 4 clusters of 2)",
		Configs: multpgm(false), CPUs: []int{8}, Sinks: clusterLadder, Render: section6},
	{Name: "figure11", Paper: "Figure 11 (lock contention vs CPUs)",
		Configs: multpgm(true), CPUs: []int{2, 4, 6, 8, 12, 16}, Render: figure11},
	{Name: "geometry", Paper: "§4.2.2 data-cache geometry sweep (replay vs direct re-run)",
		Configs: geometryConfigs, Render: geometry},
})

// section is the entry that renders one section of the standard set.
func section(name, paper string, render func(*Set) string) Experiment {
	return Experiment{Name: name, Paper: paper, Configs: workloads,
		Render: func(b *Batch) string { return render(b.set()) }}
}

// workloads is the standard experiment set: one run per workload.
func workloads(base core.Config) []core.Config {
	kinds := []workload.Kind{workload.Pmake, workload.Multpgm, workload.Oracle}
	cfgs := make([]core.Config, len(kinds))
	for i, k := range kinds {
		cfgs[i] = base
		cfgs[i].Workload = k
	}
	return cfgs
}

// iMissSweep is Figure 6's sink: the one-pass sweep fed the run's I-miss
// stream as the classifier produces it, so no stream is stored.
func iMissSweep(cfg core.Config) ([]core.Sink, error) {
	n := cfg.Canonical().NCPU
	if n > trace.MaxResimCPUs {
		return nil, fmt.Errorf("resim streams cover at most %d CPUs, not %d", trace.MaxResimCPUs, n)
	}
	return []core.Sink{cachesweep.NewSweeper(n)}, nil
}

// sweptFigure6 renders Figure 6 from the sweeps the standard set's runs fed.
func sweptFigure6(b *Batch) string {
	var out strings.Builder
	for i, name := range setNames {
		out.WriteString(figure6Table(name, b.Sinks[i][0].(*cachesweep.Sweeper).Result()))
	}
	return out.String()
}

// multpgm is one Multpgm run of base; noTrace keeps only the lock
// statistics.
func multpgm(noTrace bool) func(core.Config) []core.Config {
	return func(base core.Config) []core.Config {
		base.Workload, base.NoTrace = workload.Multpgm, noTrace
		return []core.Config{base}
	}
}

// clusterLadder is the §6 policy ladder on the run's machine, a sink of
// the run's streaming pipeline.
func clusterLadder(cfg core.Config) ([]core.Sink, error) {
	return []core.Sink{cluster.NewStudy(cfg.Canonical().Machine, 2)}, nil
}

// section6 renders the ladder the run fed.
func section6(b *Batch) string {
	return cluster.Render(b.Sinks[0][0].(cluster.Study).Results(), "Multpgm, 4 clusters of 2")
}

// figure11 renders failed acquires per millisecond of run time (the
// paper's Y includes idle) for the hottest locks at each CPU count: kernel
// Runqlk, Memlock and Ifree, plus the Mp3d user locks together.
func figure11(b *Batch) string {
	t := metrics.NewTable("Figure 11: Lock contention vs number of CPUs (Multpgm)",
		"CPUs", "Lock", "Failed acq/ms", "Acq/ms")
	for _, ch := range b.Runs {
		// The wall-clock window, defaults resolved.
		wallMS := float64(ch.Cfg.Window.NS()) / 1e6
		row := func(lock string, failed, acquires int64) {
			t.AddRow(ch.Cfg.NCPU, lock, fmt.Sprintf("%.2f", float64(failed)/wallMS),
				fmt.Sprintf("%.2f", float64(acquires)/wallMS))
		}
		for _, name := range []string{klock.Runqlk, klock.Memlock, klock.Ifree} {
			st := ch.Sim.K.Locks.FamilyStats(name)
			row(name, st.Failed, st.Acquires)
		}
		var fails, acqs int64
		for _, l := range ch.Sim.K.UserLocks {
			st := l.ComputeStats()
			fails += st.Failed
			acqs += st.Acquires
		}
		row("mp3d user locks", fails, acqs)
	}
	t.Note("paper: contention (especially Runqlk) grows steadily with the CPU count")
	return t.String()
}

// geometryConfigs are the data-cache sweep's runs, each under the
// invariant checker: the base machine recording its data-miss stream for
// the §4.2.2 replay, a full-system re-run at each direct-mapped point of
// core.DefaultDSweepConfigs (the replay caches cannot model associativity)
// other than the base machine's own coherence-level cache, whose re-run
// would be the baseline again, and the 8-CPU / 64 MB 4d380 preset end to
// end.
func geometryConfigs(base core.Config) []core.Config {
	base.Check = true
	baseline := base
	baseline.CollectDResim = true
	cfgs := []core.Config{baseline}
	for _, c := range core.DefaultDSweepConfigs() {
		if c.Assoc == 1 && !sameL2(base, c) {
			dc := base
			dc.Machine.DCacheL2Size, dc.Machine.DCacheL2Assoc = c.Size, c.Assoc
			cfgs = append(cfgs, dc)
		}
	}
	big, _ := machineflag.Preset("4d380")
	base.Machine = big
	return append(cfgs, base)
}

// sameL2 reports whether c is the coherence-level cache of cfg's machine.
func sameL2(cfg core.Config, c cachesweep.Config) bool {
	m := cfg.Canonical().Machine
	return m.DCacheL2Size == c.Size && m.DCacheL2Assoc == c.Assoc
}

// geometry prints the two relative-miss curves of the data-cache sweep
// side by side — the baseline's miss stream replayed against each cache
// configuration (the paper's trace-driven method) and the direct re-runs
// with the coherence-level cache resized, the baseline standing for the
// re-run at its own cache — then the 4d380 preset's headline numbers.
func geometry(b *Batch) string {
	base, big := b.Runs[0], b.Runs[len(b.Runs)-1]
	direct := b.Runs[1 : len(b.Runs)-1]
	m := base.Cfg.Machine
	cfgs := core.DefaultDSweepConfigs()
	replay := base.DCacheSweep(cfgs)
	var directBase int64
	if slices.ContainsFunc(cfgs, func(c cachesweep.Config) bool { return c.Assoc == 1 && sameL2(base.Cfg, c) }) {
		directBase = base.Trace.ClassSum(1, 0)
	}

	var w strings.Builder
	fmt.Fprintf(&w, "Data-cache geometry sweep: replay oracle vs direct full-system re-run\n")
	fmt.Fprintf(&w, "(OS data misses relative to the %s point of each method)\n\n", arch.SizeString(m.DCacheL2Size))
	fmt.Fprintf(&w, "  %-12s %14s %9s %14s %9s\n", "cache", "replay misses", "rel", "direct misses", "rel")
	for i, c := range cfgs {
		fmt.Fprintf(&w, "  %-12s %14d %9.2f", fmt.Sprintf("%s/%d-way", arch.SizeString(c.Size), c.Assoc),
			replay[i].OSMisses, replay[i].Relative)
		if c.Assoc != 1 {
			fmt.Fprintf(&w, " %14s %9s\n", "-", "-")
			continue
		}
		misses := directBase
		if !sameL2(base.Cfg, c) {
			misses = direct[0].Trace.ClassSum(1, 0)
			direct = direct[1:]
		}
		rel := 0.0
		if directBase > 0 {
			rel = float64(misses) / float64(directBase)
		}
		fmt.Fprintf(&w, " %14d %9.2f\n", misses, rel)
	}

	user, sys, idle := big.TimeSplit()
	all, osOnly, _ := big.StallPct()
	fmt.Fprintf(&w, "\n4d380 preset (%s):\n", big.Cfg.Machine)
	fmt.Fprintf(&w, "  time split user/sys/idle: %.1f%% / %.1f%% / %.1f%%\n", user, sys, idle)
	fmt.Fprintf(&w, "  memory-stall share: %.1f%% of non-idle cycles (OS %.1f%%)\n", all, osOnly)
	fmt.Fprintf(&w, "  OS data misses: %d\n", big.Trace.ClassSum(1, 0))
	return w.String()
}
