package main

import (
	"flag"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/runflag"
)

// parse parses args through charosd's real flag set.
func parse(args []string) (*flags, error) {
	fs := flag.NewFlagSet("charosd", flag.ContinueOnError)
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

// TestDocumentedCommandsResolve executes the docs without serving or
// submitting: every documented charosd invocation must parse, with no
// stray arguments, and resolve — the server's options, or the job a
// -submit or -load client would send.
func TestDocumentedCommandsResolve(t *testing.T) {
	cmds, err := runflag.DocCommands("../..", "charosd")
	if err != nil {
		t.Fatal(err)
	}
	if len(cmds) == 0 {
		t.Fatal("no documented charosd invocation found")
	}
	for _, c := range cmds {
		f, err := parse(strings.Fields(c.Args))
		if err == nil {
			if *f.submit || *f.load > 0 {
				_, err = f.submitRequest().Config()
			} else {
				_, err = f.options()
			}
		}
		if err != nil {
			t.Errorf("%s: charosd%s: %v", c.Where, c.Args, err)
		}
	}
}

// TestScalingFlagsAreGone: the worker pool is fixed-size and the result
// store's shard count is a constant, so neither is a flag.
func TestScalingFlagsAreGone(t *testing.T) {
	for _, args := range [][]string{{"-workers-max", "4"}, {"-shards", "4"}} {
		if _, err := parse(args); err == nil || !strings.Contains(err.Error(), "not defined") {
			t.Errorf("%v: parse error %v, want an undefined flag", args, err)
		}
	}
}
