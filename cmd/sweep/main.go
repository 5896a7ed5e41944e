// Command sweep is a shim over the figure11 and geometry entries of
// charos's experiment registry, kept under its old command line for the
// benchmark's fig11-scaling workload: sweep -exp X prints what charos -exp
// X prints, and -cpus replaces Figure 11's CPU counts.
//
// Usage:
//
//	sweep -exp figure11 [-cpus 2,4,6,8,12,16] [-parallel N]
//	sweep -exp geometry [-machine 4d340|4d380] [-window N] [-parallel N]
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/runflag"
)

// flags are sweep's own flags beside the shared run flags.
type flags struct {
	run  *runflag.Flags
	exp  *string
	cpus *string

	// Set by resolve: the registry entry and its base configuration.
	e   report.Experiment
	cfg core.Config
}

func newFlags(fs *flag.FlagSet) *flags {
	return &flags{
		run:  runflag.Register(fs),
		exp:  fs.String("exp", "figure11", "figure11 or geometry"),
		cpus: fs.String("cpus", "2,4,6,8,12,16", "CPU counts for figure11"),
	}
}

// resolve reads the parsed flags into the registry entry and its validated
// base configuration; it simulates nothing.
func (f *flags) resolve() (err error) {
	if *f.exp != "figure11" && *f.exp != "geometry" {
		return fmt.Errorf("unknown experiment %q", *f.exp)
	}
	f.e, _ = report.Lookup(*f.exp)
	if f.e.CPUs != nil {
		f.e.CPUs = nil
		for _, part := range strings.Split(*f.cpus, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n < 1 {
				return fmt.Errorf("bad cpu count %q", part)
			}
			f.e.CPUs = append(f.e.CPUs, n)
		}
	}
	f.cfg, err = f.run.Config(f.e, nil)
	return err
}

func main() {
	f := newFlags(flag.CommandLine)
	flag.Parse()
	os.Exit(f.run.Main(f.resolve, f.main))
}

func (f *flags) main(r runflag.Run) int { return r.Exec(f.e, f.cfg) }
