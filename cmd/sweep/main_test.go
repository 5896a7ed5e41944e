package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"

	"repro/internal/runflag"
	"repro/internal/runner"
)

// parse parses args through sweep's real flag set.
func parse(args []string) (*flags, error) {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := newFlags(fs)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("stray arguments %q", fs.Args())
	}
	return f, nil
}

// TestDocumentedCommandsResolve executes the docs without simulating:
// every documented sweep invocation must parse, with no stray arguments, and
// resolve (machine, schedule, Config.Validate).
func TestDocumentedCommandsResolve(t *testing.T) {
	cmds, err := runflag.DocCommands("../..", "sweep")
	if err != nil {
		t.Fatal(err)
	}
	if len(cmds) == 0 {
		t.Fatal("no documented sweep invocation found")
	}
	for _, c := range cmds {
		f, err := parse(strings.Fields(c.Args))
		if err == nil {
			err = f.resolve()
		}
		if err != nil {
			t.Errorf("%s: sweep%s: %v", c.Where, c.Args, err)
		}
	}
}

// TestOracleFlagsAreGone: the test-only oracle modes are not flags, and
// neither is -sample, which only charos reads.
func TestOracleFlagsAreGone(t *testing.T) {
	for _, args := range [][]string{{"-reference"}, {"-sample", "1K:2K:10K"}} {
		if _, err := parse(args); err == nil || !strings.Contains(err.Error(), "not defined") {
			t.Errorf("%v: parse error %v, want an undefined flag", args, err)
		}
	}
}

// TestFigure6IsCharos: Figure 6 is rendered by charos -exp figure6 only.
func TestFigure6IsCharos(t *testing.T) {
	f, err := parse([]string{"-exp", "figure6"})
	if err == nil {
		err = f.resolve()
	}
	if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Errorf("-exp figure6: resolve error %v, want an unknown experiment", err)
	}
}

// TestGeometrySweep runs the geometry sweep at a window long enough for
// the cache sizes to separate (at 300K every relative count reads 1.00).
func TestGeometrySweep(t *testing.T) {
	f, err := parse([]string{"-exp", "geometry", "-window", "2M"})
	if err == nil {
		err = f.resolve()
	}
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.e.Run(context.Background(), f.cfg, runner.Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	out, runs := f.e.Render(b), b.Runs

	// Rows: label, replay misses, rel, direct misses, rel.
	var rows [][]string
	for _, line := range strings.Split(out, "\n") {
		if fields := strings.Fields(line); len(fields) == 5 && strings.HasSuffix(fields[0], "-way") {
			rows = append(rows, fields)
		}
	}
	if len(rows) != 4 {
		t.Fatalf("%d sweep rows, want 4:\n%s", len(rows), out)
	}
	if base := rows[0]; base[0] != "256K/1-way" || base[2] != "1.00" || base[4] != "1.00" {
		t.Errorf("baseline row %q, want 256K/1-way at rel 1.00 in both columns", base)
	}
	prev := 2.0
	for _, r := range rows {
		if !strings.HasSuffix(r[0], "/1-way") {
			if r[3] != "-" || r[4] != "-" {
				t.Errorf("%s has a direct run %q; set-associative points are replay-only", r[0], r[3:])
			}
			continue
		}
		rel, err := strconv.ParseFloat(r[2], 64)
		if err != nil || rel > prev {
			t.Errorf("%s replay rel %s after %.2f: want non-increasing with size", r[0], r[2], prev)
		}
		prev = rel
	}
	for _, want := range []string{"\n4d380 preset (", "memory-stall share:", "OS data misses:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}

	if len(runs) != 5 {
		t.Errorf("%d runs, want baseline + 3 direct + preset", len(runs))
	}
	for i, ch := range runs {
		if chk := ch.Sim.Chk; chk == nil || chk.Checks == 0 || chk.Violations != 0 {
			t.Errorf("run %d (%s): checker %+v, want a checked run with 0 violations", i, ch.Cfg.Machine, chk)
		}
	}
}
