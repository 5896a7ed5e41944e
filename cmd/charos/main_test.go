package main

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/report"
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

// runExp runs charos -exp exp with args under runflag.Main and returns
// its stdout.
func runExp(t *testing.T, exp string, args ...string) string {
	t.Helper()
	f, err := parse(append([]string{"-exp", exp}, args...))
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	defer func(stdout *os.File) { os.Stdout = stdout }(os.Stdout)
	os.Stdout = out
	if rc := f.run.Main(f.resolve, f.main); rc != 0 {
		t.Fatalf("charos -exp %s %v exited %d", exp, args, rc)
	}
	b, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestRegistry resolves every registry entry through charos's flag set and
// renders it at a short window. Only an entry with no runs (a static one)
// rejects -check and -inject, and exactly the entries that set each run's
// CPU count themselves reject -ncpu.
func TestRegistry(t *testing.T) {
	resolve := func(args ...string) error {
		f, err := parse(args)
		if err == nil {
			err = f.resolve()
		}
		return err
	}
	for _, e := range report.Experiments {
		t.Run(e.Name, func(t *testing.T) {
			if out := runExp(t, e.Name, "-window", "400K", "-parallel", "1"); out == "" {
				t.Error("empty stdout")
			}
			static := len(e.Runs(core.Config{})) == 0
			for _, flag := range [][]string{{"-check"}, {"-inject", "evict"}} {
				err := resolve(append([]string{"-exp", e.Name}, flag...)...)
				if rejected := err != nil && strings.Contains(err.Error(), "-check and -inject do not apply"); rejected != static {
					t.Errorf("%v: err %v; static %t", flag, err, static)
				}
			}
			ownsNCPU := false
			for _, c := range e.Runs(core.Config{NCPU: 2}) {
				ownsNCPU = ownsNCPU || c.NCPU != 2
			}
			err := resolve("-exp", e.Name, "-ncpu", "2")
			if rejected := err != nil && strings.Contains(err.Error(), "-ncpu and -affinity do not apply"); rejected != ownsNCPU {
				t.Errorf("-ncpu 2: err %v; entry sets NCPU itself: %t", err, ownsNCPU)
			}
		})
	}
	for _, name := range []string{"section6", "figure11"} {
		if e, _ := report.Lookup(name); e.CPUs == nil {
			t.Errorf("%s has no CPU counts of its own", name)
		}
	}
}

// TestReadmeExperimentTable: README's experiment table lists exactly the
// registry's entries, in order, each with its paper artefact and its
// charos command.
func TestReadmeExperimentTable(t *testing.T) {
	b, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(b), "| Experiment | Command |\n|---|---|\n")
	if !ok {
		t.Fatal("README has no experiment table")
	}
	var rows []string
	for _, line := range strings.Split(table, "\n") {
		if !strings.HasPrefix(line, "|") {
			break
		}
		rows = append(rows, line)
	}
	for i, e := range report.Experiments {
		want := fmt.Sprintf("| %s | `go run ./cmd/charos -exp %s` |", e.Paper, e.Name)
		if i >= len(rows) {
			t.Errorf("README's table ends before %q", want)
		} else if rows[i] != want {
			t.Errorf("README row %d is %q, want %q", i+1, rows[i], want)
		}
	}
	if extra := len(rows) - len(report.Experiments); extra > 0 {
		t.Errorf("README's table has %d rows past the registry's entries", extra)
	}
}

// TestSection6Pinned pins the SHA-256 of -exp section6's stdout, which
// the streaming ladder must keep byte-identical to the recorded-trace
// repricing it replaced.
func TestSection6Pinned(t *testing.T) {
	for seed, want := range map[string]string{
		"1":  "5cf1294a38f201ccfef5150fd329185da89f41bf47944e60974a52ca80cf3d1e",
		"23": "84c00d0c74bf2ee323a5572c80f36f734daf48b3895a6cc593ae9ec061fade33",
	} {
		sum := sha256.Sum256([]byte(runExp(t, "section6", "-window", "2M", "-seed", seed)))
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("seed %s: section6 digest %s, pinned %s", seed, got, want)
		}
	}
}

// TestTimelineFiguresPinned pins the SHA-256 of -exp figure1's and -exp
// figure3's stdout, which the classifier's online Timeline tallies must
// keep byte-identical to the per-segment lists they replaced.
func TestTimelineFiguresPinned(t *testing.T) {
	for _, c := range []struct{ seed, exp, want string }{
		{"1", "figure1", "3f7966431a5a5216bb9840527ae79b53bc4881fb7d36a439c88445406a718557"},
		{"1", "figure3", "34e7dccdd6a6de7997b3177cdfa777224680b9f32ea067f31bfac1a72eee0cb6"},
		{"23", "figure1", "cbb54bf298ddd69197fa46faf2c96901329dc821497c21067ca9a63f9f25836c"},
		{"23", "figure3", "44756c18ac7bfc00cc6c60d65de96042931033d8f509bad06119728381196f36"},
	} {
		sum := sha256.Sum256([]byte(runExp(t, c.exp, "-window", "2M", "-parallel", "1", "-seed", c.seed)))
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("seed %s: %s digest %s, pinned %s", c.seed, c.exp, got, c.want)
		}
	}
}

// TestSection6LargeMemory: the ladder homes every frame of a machine with
// more than the default 32 MB.
func TestSection6LargeMemory(t *testing.T) {
	out := runExp(t, "section6", "-machine", "4d380", "-window", "1M")
	for _, row := range []string{"centralized (baseline)", "replicated OS text",
		"replicated text + distributed runq", "all §6 optimizations"} {
		if !strings.Contains(out, row) {
			t.Errorf("4d380 section6 has no %q row:\n%s", row, out)
		}
	}
}
