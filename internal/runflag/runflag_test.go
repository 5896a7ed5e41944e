package runflag

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/sim"
)

// parse registers the shared flags on a fresh set and parses args.
func parse(t *testing.T, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestConfigResolvesSharedFlags(t *testing.T) {
	f := parse(t, "-window", "2M", "-seed", "23", "-check",
		"-machine", "4d380", "-dcache-l2", "1M")
	cfg, err := f.Config(report.Experiment{}, func(c *core.Config) error { c.NCPU = 2; return nil })
	if err != nil {
		t.Fatal(err)
	}
	m := arch.Default()
	m.NCPU, m.MemBytes, m.DCacheL2Size = 8, 64<<20, 1<<20
	if cfg.Machine != m || cfg.Window != 2_000_000 || cfg.Seed != 23 || !cfg.Check || cfg.NCPU != 2 {
		t.Errorf("resolved %+v", cfg)
	}
}

// TestDocumentedBinariesExist: every `go run ./cmd/<x>` and `go run
// ./examples/<x>` in the documents DocCommands scans names an existing
// directory, so no document points at a deleted binary.
func TestDocumentedBinariesExist(t *testing.T) {
	re := regexp.MustCompile(`go run (?:-race )?\./((?:cmd|examples)/[\w-]+)`)
	found := 0
	for _, doc := range docs {
		b, err := os.ReadFile(filepath.Join("../..", doc))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(b), "\n") {
			for _, m := range re.FindAllStringSubmatch(line, -1) {
				found++
				if st, err := os.Stat(filepath.Join("../..", m[1])); err != nil || !st.IsDir() {
					t.Errorf("%s:%d: go run ./%s names no directory", doc, i+1, m[1])
				}
			}
		}
	}
	if found == 0 {
		t.Fatal("no documented go run command found")
	}
}

// TestDefaultConfigIsTheDefaultRun: with no flags the base configuration
// canonicalizes, and hashes, exactly as the zero config does, so every
// golden digest of a default command holds.
func TestDefaultConfigIsTheDefaultRun(t *testing.T) {
	cfg, err := parse(t).Config(report.Experiment{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Canonical() != (core.Config{}).Canonical() || cfg.Hash() != (core.Config{}).Hash() {
		t.Errorf("default flags resolve to %+v, not the zero config's run", cfg.Canonical())
	}
}

func TestConfigUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		adjust func(*core.Config) error
		want   string
	}{
		{[]string{"-machine", "4d999"}, nil, "unknown machine preset"},
		{nil, func(c *core.Config) error { c.NCPU, c.CollectIResim = 300, true; return nil }, "resim streams"},
		{nil, func(*core.Config) error { return fmt.Errorf("own flag") }, "own flag"},
	} {
		_, err := parse(t, tc.args...).Config(report.Experiment{}, tc.adjust)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: err %v, want %q", tc.args, err, tc.want)
		}
	}
}

// stderrOf runs fn with os.Stderr redirected and returns what it wrote.
func stderrOf(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stderr
	os.Stderr = w
	defer func() { os.Stderr = saved }()
	fn()
	w.Close()
	b, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestMainPassesThePoolAndReportsUsageErrors: -parallel reaches the
// runner as given, the tombstoned -sim-workers parses and changes nothing
// but one stderr note, and a resolve error is a usage error.
func TestMainPassesThePoolAndReportsUsageErrors(t *testing.T) {
	f := parse(t, "-parallel", "64", "-sim-workers", "3")
	var got runner.Options
	note := stderrOf(t, func() {
		if code := f.Main(func() error { return nil }, func(r Run) int { got = r.Opts; return 7 }); code != 7 {
			t.Errorf("Main returned %d, want the body's 7", code)
		}
	})
	if got != (runner.Options{Parallelism: 64}) {
		t.Errorf("options %+v, want parallelism 64", got)
	}
	if note != simWorkersNote+"\n" {
		t.Errorf("stderr %q, want the one -sim-workers note", note)
	}
	if note := stderrOf(t, func() { parse(t).Main(func() error { return nil }, func(Run) int { return 0 }) }); note != "" {
		t.Errorf("stderr %q without -sim-workers, want nothing", note)
	}
	cfg, err := f.Config(report.Experiment{}, nil)
	if err != nil || cfg.Canonical() != (core.Config{}).Canonical() {
		t.Errorf("-sim-workers reached the config: %+v, %v", cfg, err)
	}
	ran := false
	if code := f.Main(func() error { return fmt.Errorf("bad") }, func(Run) int { ran = true; return 0 }); code != 2 || ran {
		t.Errorf("usage error: exit %d, body ran %t; want 2 and no run", code, ran)
	}
}

// checked fakes a finished run whose checker counted checks and
// violations, collecting at most collected of the latter.
func checked(checks, violations int64, collected int) *core.Characterization {
	ch := &core.Characterization{Sim: &sim.Simulator{Chk: &check.Checker{Checks: checks, Violations: violations}}}
	for i := 0; i < collected; i++ {
		ch.CheckErrors = append(ch.CheckErrors, &check.CheckError{Cycle: arch.Cycles(i), Detail: "broken"})
	}
	return ch
}

func TestFinish(t *testing.T) {
	for _, tc := range []struct {
		name string
		runs []Named
		code int
		want []string // substrings in order; nil = no output
	}{
		{"unchecked", []Named{{"a", &core.Characterization{Sim: &sim.Simulator{}}}}, 0, nil},
		{"clean", []Named{{"a", checked(5, 0, 0)}, {"b", checked(7, 0, 0)}}, 0,
			[]string{"invariant checker: 12 checks, 0 violations\n"}},
		{"capped", []Named{{"a", checked(5, 0, 0)}, {"b", checked(9, 40, 12)}}, 1,
			[]string{"b: 40 invariant violations (9 checks)\n", "cycle 9 ", "... 30 more violations not listed\n"}},
	} {
		var b strings.Builder
		if code := finish(&b, tc.runs); code != tc.code {
			t.Errorf("%s: exit %d, want %d", tc.name, code, tc.code)
		}
		out := b.String()
		if tc.want == nil && out != "" {
			t.Errorf("%s: printed %q", tc.name, out)
		}
		for _, w := range tc.want {
			i := strings.Index(out, w)
			if i < 0 {
				t.Errorf("%s: %q missing from\n%s", tc.name, w, b.String())
				break
			}
			out = out[i+len(w):]
		}
		if strings.Contains(b.String(), "cycle 10 ") || strings.Contains(b.String(), "invariant checker:") && tc.code != 0 {
			t.Errorf("%s: listed past the cap or claimed a clean run:\n%s", tc.name, b.String())
		}
	}
}

// TestProfiles: -cpuprofile and -memprofile each write a gzip-compressed
// pprof file, and an unwritable -cpuprofile path is a usage error that
// runs nothing.
func TestProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	f := parse(t, "-cpuprofile", cpu, "-memprofile", mem)
	if code := f.Main(func() error { return nil }, func(Run) int { return 0 }); code != 0 {
		t.Fatalf("Main exited %d", code)
	}
	for _, path := range []string{cpu, mem} {
		b, err := os.ReadFile(path)
		if err != nil || len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
			t.Errorf("%s: %d bytes, err %v; want a non-empty gzip pprof file", filepath.Base(path), len(b), err)
		}
	}
	bad := parse(t, "-cpuprofile", filepath.Join(dir, "missing", "cpu.pprof"))
	ran := false
	var code int
	msg := stderrOf(t, func() { code = bad.Main(func() error { return nil }, func(Run) int { ran = true; return 0 }) })
	if code != 2 || ran || msg == "" {
		t.Errorf("unwritable -cpuprofile: exit %d, body ran %t, stderr %q; want 2, no run and an error", code, ran, msg)
	}
}
