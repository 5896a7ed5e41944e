package main

import (
	"flag"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/runflag"
)

// parse parses args through charos's real flag set.
func parse(args []string) (*flags, error) {
	fs := flag.NewFlagSet("charos", flag.ContinueOnError)
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
// every documented charos invocation must parse, with no stray arguments, and
// resolve (machine, schedule, Config.Validate).
func TestDocumentedCommandsResolve(t *testing.T) {
	cmds, err := runflag.DocCommands("../..", "charos")
	if err != nil {
		t.Fatal(err)
	}
	if len(cmds) == 0 {
		t.Fatal("no documented charos invocation found")
	}
	for _, c := range cmds {
		f, err := parse(strings.Fields(c.Args))
		if err == nil {
			err = f.resolve()
		}
		if err != nil {
			t.Errorf("%s: charos%s: %v", c.Where, c.Args, err)
		}
	}
}

// TestOracleFlagsAreGone: the test-only oracle modes are not flags.
func TestOracleFlagsAreGone(t *testing.T) {
	for _, args := range [][]string{{"-reference"}, {"-buffered"}} {
		if _, err := parse(args); err == nil || !strings.Contains(err.Error(), "not defined") {
			t.Errorf("%v: parse error %v, want an undefined flag", args, err)
		}
	}
}

// TestResolveUsageErrors: flags the chosen experiment would ignore or
// cannot honour are usage errors, found before anything simulates.
func TestResolveUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-exp", "section6", "-ncpu", "16"}, "-ncpu and -affinity do not apply"},
		{[]string{"-exp", "section6", "-affinity"}, "-ncpu and -affinity do not apply"},
		{[]string{"-exp", "report", "-sample", "1:2"}, "sample"},
		{[]string{"-exp", "report", "-window", "250000", "-sample", "100K:200K:10M"}, "fits no measured interval"},
		{[]string{"-exp", "locks", "-sample", "100K:200K:1M"}, "-sample requires -exp report"},
		{[]string{"-exp", "table3", "-check"}, "-check and -inject do not apply"},
		{[]string{"-exp", "table11", "-check"}, "-check and -inject do not apply"},
		{[]string{"-exp", "table3", "-inject", "evict"}, "-check and -inject do not apply"},
		{[]string{"-exp", "table11", "-inject", "all"}, "-check and -inject do not apply"},
	} {
		f, err := parse(tc.args)
		if err == nil {
			err = f.resolve()
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: err %v, want %q", tc.args, err, tc.want)
		}
	}
}

// TestResolveSample: -sample, charos's own flag, reaches the report's
// configuration.
func TestResolveSample(t *testing.T) {
	f, err := parse([]string{"-exp", "report", "-sample", "100K:200K:1M"})
	if err == nil {
		err = f.resolve()
	}
	if err != nil || f.cfg.Sample.String() != "100K:200K:1M" {
		t.Errorf("-exp report -sample: err %v, schedule %q", err, f.cfg.Sample)
	}
}
