package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"repro/internal/runflag"
	"repro/internal/service"
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

// startServer serves an in-process service.Server on a loopback
// httptest listener and returns its host:port.
func startServer(t *testing.T, opts service.Options) string {
	t.Helper()
	opts.Logf = t.Logf
	srv := service.New(opts)
	hts := httptest.NewUnstartedServer(nil)
	hts.Config = srv.HTTPServer()
	hts.Start()
	t.Cleanup(func() {
		hts.Close()
		srv.Drain()
	})
	return strings.TrimPrefix(hts.URL, "http://")
}

// runClient calls clientMain with stdout and stderr captured.
func runClient(t *testing.T, addr string, req service.Request, retries int) (code int, stdout, stderr string) {
	t.Helper()
	capture := func(f **os.File) func() string {
		tmp, err := os.CreateTemp(t.TempDir(), "out")
		if err != nil {
			t.Fatal(err)
		}
		saved := *f
		*f = tmp
		return func() string {
			*f = saved
			tmp.Close()
			b, err := os.ReadFile(tmp.Name())
			if err != nil {
				t.Fatal(err)
			}
			return string(b)
		}
	}
	restoreOut, restoreErr := capture(&os.Stdout), capture(&os.Stderr)
	code = clientMain(addr, req, 0, retries, false)
	return code, restoreOut(), restoreErr()
}

// TestClientExitCodes drives -submit's client against a real server:
// 0 with the report for a done job, 1 with the structured error for a
// failed one, 2 for a request the server rejects with 400, and 3 when
// nothing listens and retries are off.
func TestClientExitCodes(t *testing.T) {
	addr := startServer(t, service.Options{Workers: 1, TestHooks: true})
	job := service.Request{Workload: "Pmake", Seed: 2, Window: 250_000, Warmup: 100_000}

	if code, out, errOut := runClient(t, addr, job, 0); code != 0 || !strings.HasPrefix(out, "run ") {
		t.Errorf("done job: exit %d, stdout %.40q, stderr %q; want 0 and a report", code, out, errOut)
	}

	panicking := job
	panicking.TestPanic = true
	if code, _, errOut := runClient(t, addr, panicking, 0); code != 1 || !strings.Contains(errOut, "panic") {
		t.Errorf("panic job: exit %d, stderr %q; want 1 and a structured panic error", code, errOut)
	}

	tooMany := job
	tooMany.NCPU = 5000
	if code, _, errOut := runClient(t, addr, tooMany, 0); code != 2 || !strings.Contains(errOut, "400") {
		t.Errorf("ncpu 5000: exit %d, stderr %q; want 2 and the 400", code, errOut)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	closed := ln.Addr().String()
	ln.Close()
	if code, _, errOut := runClient(t, closed, job, -1); code != 3 || !strings.Contains(errOut, "submit failed") {
		t.Errorf("closed address: exit %d, stderr %q; want 3", code, errOut)
	}
}

// TestLoadSeedsCoverEveryConfig: -load 300 -load-hot 4 -load-distinct 8
// sends all 12 configs, three clients in four on the hot ones.
func TestLoadSeedsCoverEveryConfig(t *testing.T) {
	clients := map[int64]int{}
	for i := 0; i < 300; i++ {
		clients[loadSeed(i, 4, 8)]++
	}
	hot := 0
	for seed := int64(1); seed <= 4; seed++ {
		hot += clients[seed]
	}
	if len(clients) != 12 || hot != 225 {
		t.Errorf("300 clients used %d configs, %d on the hot ones; want 12 and 225: %v", len(clients), hot, clients)
	}
}
