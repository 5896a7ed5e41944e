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
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/runflag"
	"repro/internal/workload"
)

// flags are lockstat's own flags beside the shared run flags.
type flags struct {
	run      *runflag.Flags
	workload *string

	// Set by resolve: the three workload runs' configuration and the
	// workload whose lock families are dumped.
	cfg  core.Config
	kind workload.Kind
}

func newFlags(fs *flag.FlagSet) *flags {
	return &flags{
		run:      runflag.Register(fs),
		workload: fs.String("workload", "Pmake", "workload: Pmake, Multpgm, Oracle"),
	}
}

// resolve reads the parsed flags into the validated configuration and the
// dumped workload; it simulates nothing.
func (f *flags) resolve() (err error) {
	if f.kind, err = workload.ParseKind(*f.workload); err != nil {
		return err
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
	kind := f.kind
	fmt.Fprintf(os.Stderr, "running all three workloads for Table 10, %s for the detail dump...\n", kind)
	set, err := report.RunSetContext(r.Ctx, f.cfg, r.Opts)
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

	return runflag.Finish(runflag.Workloads(set)...)
}
