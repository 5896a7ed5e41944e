// Command bench is the repository's one benchmark: seven workloads that
// run the real charos, sweep and charosd binaries end to end and measure
// them from outside, and a traced run per workload in which the harness
// calls each internal layer itself, with a span around every call.
//
// The contract (see BENCHMARK.json at the repository root):
//
//	bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// prints, as the last line of standard output, one JSON object with
// correct / attempted / failed / metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1.
//
// Beyond the contract:
//
//	bash bench/run.sh -workload all [-seed N]   every workload, both modes, one table
//	bash bench/run.sh -aa                       the suite twice on one build, differences beside bounds
//	bash bench/run.sh -regolden                 rewrite bench/golden.json at seed 1
//	bash bench/run.sh -smoke                    every workload at 1M windows, under 15 s
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// MetricDef and Spec mirror BENCHMARK.json, the single place metric
// names, units, directions and bounds are defined.
type MetricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type Spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []MetricDef `json:"end_to_end"`
	PerLayer []MetricDef `json:"per_layer"`
}

// Golden is bench/golden.json: what seed 1 must reproduce exactly.
type Golden struct {
	Seed      int64                      `json:"seed"`
	Workloads map[string]*GoldenWorkload `json:"workloads"`
}

type GoldenWorkload struct {
	// Digests are SHA-256 of each op's user-visible output, by op key.
	Digests map[string]string `json:"digests"`
	// Exact are the end-to-end run's exact values (paper_err_pts,
	// sample_err_pct); Layers the traced run's exact counts.
	Exact  map[string]float64 `json:"exact,omitempty"`
	Layers map[string]float64 `json:"layers,omitempty"`
}

// runEnv is what one run of one workload needs to know.
type runEnv struct {
	root, out string
	workload  string
	seed      int64
	seconds   float64
	nproc     int
	size      sizing
	golden    *Golden
}

func (e *runEnv) bin(name string) string { return filepath.Join(e.out, "bin", name) }

// goldenFor returns the golden entry this run must match, or nil when the
// seed is not the golden one (then only determinism is checked) or the
// sizes are the smoke test's.
func (e *runEnv) goldenFor() *GoldenWorkload {
	if e.golden == nil || e.size.smoke || e.seed != e.golden.Seed {
		return nil
	}
	return e.golden.Workloads[e.workload]
}

// Line is the contract's result line.
type Line struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// ResultFile is what every run leaves in bench/out, host metadata first.
type ResultFile struct {
	Host     Host    `json:"host"`
	Workload string  `json:"workload"`
	Trace    bool    `json:"trace"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Smoke    bool    `json:"smoke,omitempty"`
	// TimingUnresolved is set when the run started with a 1-minute load
	// average above nproc: its timings then say nothing about the code.
	TimingUnresolved bool               `json:"timing_unresolved"`
	Line             Line               `json:"result"`
	E2E              *e2eResult         `json:"end_to_end,omitempty"`
	LayerCounts      map[string]float64 `json:"layer_counts,omitempty"`
	SelfSeconds      map[string]float64 `json:"self_s_by_span_name,omitempty"`
	Why              []string           `json:"why,omitempty"`
}

func decodeJSON(r io.Reader, v any) error { return json.NewDecoder(r).Decode(v) }

func readJSON(path string, v any) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return decodeJSON(f, v)
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func main() { os.Exit(run()) }

// fail reports an error that kept a run from producing a result.
func fail(err error) int {
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 1
}

func run() int {
	var (
		workload = flag.String("workload", "", "workload name, or all")
		seed     = flag.Int64("seed", 1, "workload seed: every input is derived from it")
		seconds  = flag.Float64("seconds", 0, "how long to measure (default: run_seconds of BENCHMARK.json)")
		traceOn  = flag.Int("trace", 0, "0: end-to-end metrics from the real binaries; 1: per-layer metrics from the traced run")
		root     = flag.String("root", "..", "repository root (run.sh passes it)")
		out      = flag.String("out", "", "output directory (default <root>/bench/out)")
		aa       = flag.Bool("aa", false, "run the end-to-end suite twice on this build and compare against the bounds")
		regolden = flag.Bool("regolden", false, "regenerate bench/golden.json at seed 1")
		smoke    = flag.Bool("smoke", false, "every workload at 1M windows / 500 requests, one pass, both modes")
		nogolden = flag.Bool("nogolden", false, "ignore bench/golden.json (what -regolden runs its workloads with)")
	)
	flag.Parse()
	if *out == "" {
		*out = filepath.Join(*root, "bench", "out")
	}
	var spec Spec
	if err := readJSON(filepath.Join(*root, "BENCHMARK.json"), &spec); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if *seconds == 0 {
		*seconds = float64(spec.RunSeconds)
	}
	s := &suite{spec: &spec, root: *root, out: *out, seed: *seed, seconds: *seconds, smoke: *smoke}
	switch {
	case *regolden:
		return s.regolden()
	case *aa:
		return s.aa()
	case *smoke && *workload == "", *workload == "all":
		return s.all()
	case *workload == "":
		fmt.Fprintln(os.Stderr, "bench: -workload <name|all>, -aa, -regolden or -smoke")
		return 2
	}
	known := false
	for _, w := range spec.Workloads {
		known = known || w.Name == *workload
	}
	if !known {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
		return 2
	}
	env := &runEnv{root: *root, out: *out, workload: *workload, seed: *seed, seconds: *seconds,
		nproc: runtime.NumCPU(), size: sizing{smoke: *smoke}}
	var g Golden
	if err := readJSON(filepath.Join(*root, "bench", "golden.json"), &g); err == nil && !*nogolden {
		env.golden = &g
	}
	return one(env, &spec, *traceOn != 0)
}

// one runs one workload in one mode and prints the contract's line.
func one(env *runEnv, spec *Spec, traced bool) int {
	rf := ResultFile{Host: hostInfo(env.root), Workload: env.workload, Trace: traced,
		Seed: env.seed, Seconds: env.seconds, Smoke: env.size.smoke}
	rf.TimingUnresolved = rf.Host.LoadBefore > float64(rf.Host.NProc)
	suffix, defs := "", spec.EndToEnd
	if traced {
		suffix, defs = "-trace", spec.PerLayer
		l, err := runLayers(env.workload, env)
		if err != nil {
			return fail(err)
		}
		rf.Line = Line{Correct: len(l.fails) == 0, Attempted: l.checks, Failed: len(l.fails), Metrics: l.m}
		rf.LayerCounts, rf.Why = l.counted, l.fails
		rf.SelfSeconds = selfByName(l.tr.spans)
		tf := struct {
			Host     Host               `json:"host"`
			Workload string             `json:"workload"`
			Seed     int64              `json:"seed"`
			Self     map[string]float64 `json:"self_s_by_span_name"`
			Spans    []Span             `json:"spans"`
		}{rf.Host, env.workload, env.seed, rf.SelfSeconds, l.tr.spans}
		if err := writeJSON(filepath.Join(env.out, "trace-"+env.workload+".json"), tf); err != nil {
			return fail(err)
		}
	} else {
		var w e2eWorkload
		if c := newCLIWorkload(env.workload, env); c != nil {
			w = c
		} else {
			w = newSvcWorkload(env.workload, env)
		}
		res, err := runE2E(w, env)
		if err != nil {
			return fail(err)
		}
		rf.E2E, rf.Why = res, res.Why
		rf.Line = Line{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed,
			Metrics: e2eMetrics(w, res)}
	}
	rf.Host.LoadAfter = loadavg1()
	if err := checkNames(rf.Line.Metrics, defs); err != nil {
		return fail(err)
	}
	if err := writeJSON(filepath.Join(env.out, "result-"+env.workload+suffix+".json"), rf); err != nil {
		return fail(err)
	}
	printTable(os.Stderr, env.workload, &rf, defs)
	line, err := json.Marshal(rf.Line)
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(line))
	if !rf.Line.Correct {
		// The line is still printed: a failed check is a result, and the
		// non-zero exit makes sure nobody reads the timings as valid.
		return 1
	}
	return 0
}

// checkNames makes sure a run reports exactly the metrics BENCHMARK.json
// names for its mode, in the units it names, and nothing non-finite.
func checkNames(got map[string]Metric, defs []MetricDef) error {
	want := map[string]bool{}
	for _, d := range defs {
		want[d.Name] = true
		m, ok := got[d.Name]
		switch {
		case !ok:
			return fmt.Errorf("metric %s is in BENCHMARK.json but was not measured", d.Name)
		case m.Unit != d.Unit:
			return fmt.Errorf("metric %s: measured in %q, BENCHMARK.json says %q", d.Name, m.Unit, d.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			return fmt.Errorf("metric %s is %v", d.Name, m.Value)
		}
	}
	for name := range got {
		if !want[name] {
			return fmt.Errorf("metric %s was measured but is not in BENCHMARK.json", name)
		}
	}
	return nil
}

// printTable writes every metric by name with unit, direction and bound.
func printTable(w io.Writer, workload string, rf *ResultFile, defs []MetricDef) {
	mode := "end to end, real binaries, tracing off"
	if rf.Trace {
		mode = "per layer, traced run"
	}
	fmt.Fprintf(w, "\n%s  (%s; seed %d; load %.2f)\n", workload, mode, rf.Seed, rf.Host.LoadBefore)
	for _, d := range defs {
		m := rf.Line.Metrics[d.Name]
		val := fmt.Sprintf("%.6g", m.Value)
		timing := d.Unit != "count" && d.Unit != "ratio" && d.Unit != "points" && d.Unit != "%"
		if rf.TimingUnresolved && timing {
			val = "unresolved"
		}
		bound := ""
		if d.Bound > 0 {
			bound = fmt.Sprintf("  bound %.0f%%", 100*d.Bound)
		}
		fmt.Fprintf(w, "  %-30s %14s %-10s %s is better%s\n", d.Name, val, d.Unit, d.Better, bound)
	}
	if e := rf.E2E; e != nil {
		var walls []float64
		for _, op := range e.Ops {
			walls = append(walls, op.Wall)
		}
		q1, _, q3 := quartiles(walls)
		fmt.Fprintf(w, "  n=%d ops in %.1fs; op wall min %.4g q1 %.4g q3 %.4g max %.4gs; fail_ratio %d/%d; report_drift %d\n",
			len(e.Ops), e.Measured, percentile(walls, 0), q1, q3, percentile(walls, 100), e.Failed, e.Attempted, e.Drift)
		for _, m := range []map[string]float64{e.Exact, e.Extras} {
			keys := make([]string, 0, len(m))
			for k := range m {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Fprintf(w, "  %-30s %14.6g (not gated)\n", k, m[k])
			}
		}
	} else {
		fmt.Fprintf(w, "  checks %d, failed %d\n", rf.Line.Attempted, rf.Line.Failed)
	}
	if rf.TimingUnresolved {
		fmt.Fprintf(w, "  load average %.2f > nproc %d at start: timing metrics are unresolved\n", rf.Host.LoadBefore, rf.Host.NProc)
	}
	if len(rf.Why) > 0 {
		fmt.Fprintf(w, "  FAILED:\n  %s\n", strings.Join(rf.Why, "\n  "))
	}
}

// suite runs several workloads, each in a fresh harness process so that
// one workload's heap and goroutines are never another's.
type suite struct {
	spec      *Spec
	root, out string
	seed      int64
	seconds   float64
	smoke     bool
}

// child runs this binary on one workload and returns its result line.
func (s *suite) child(workload string, seed int64, traced bool, extra ...string) (Line, error) {
	args := append([]string{"-root", s.root, "-out", s.out, "-workload", workload,
		"-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(s.seconds)}, extra...)
	if traced {
		args = append(args, "-trace", "1")
	}
	if s.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(os.Args[0], args...)
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	var line Line
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &line); jerr != nil {
		if err == nil {
			err = jerr
		}
		return line, fmt.Errorf("%s: %w", workload, err)
	}
	// A non-zero exit with a parsable line is a failed check, which the
	// line itself says.
	return line, nil
}

// all runs every workload in both modes and files the lines together as
// suite.json (bench/baseline.json is a committed copy of one such file).
func (s *suite) all() int {
	t0 := time.Now()
	bad := 0
	type pair struct {
		EndToEnd Line `json:"end_to_end"`
		PerLayer Line `json:"per_layer"`
	}
	sum := struct {
		Host      Host            `json:"host"`
		Seed      int64           `json:"seed"`
		Seconds   float64         `json:"seconds"`
		Smoke     bool            `json:"smoke,omitempty"`
		Workloads map[string]pair `json:"workloads"`
	}{hostInfo(s.root), s.seed, s.seconds, s.smoke, map[string]pair{}}
	for _, w := range s.spec.Workloads {
		var p pair
		for _, traced := range []bool{false, true} {
			line, err := s.child(w.Name, s.seed, traced)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				bad++
			} else if !line.Correct {
				bad++
			}
			if traced {
				p.PerLayer = line
			} else {
				p.EndToEnd = line
			}
		}
		sum.Workloads[w.Name] = p
	}
	sum.Host.LoadAfter = loadavg1()
	if err := writeJSON(filepath.Join(s.out, "suite.json"), sum); err != nil {
		return fail(err)
	}
	fmt.Fprintf(os.Stderr, "\nsuite: %d workloads, both modes, %.0fs; %d runs with failed checks; results in %s\n",
		len(s.spec.Workloads), time.Since(t0).Seconds(), bad, s.out)
	if bad > 0 {
		return 1
	}
	return 0
}

// aa runs the end-to-end suite twice on the same build. The two sets must
// agree within each metric's own bound, or the bound means nothing.
func (s *suite) aa() int {
	var sets [2]map[string]Line
	for i := range sets {
		sets[i] = map[string]Line{}
		for _, w := range s.spec.Workloads {
			line, err := s.child(w.Name, s.seed, false)
			if err != nil {
				return fail(err)
			}
			sets[i][w.Name] = line
		}
	}
	bad := 0
	fmt.Printf("%-15s %-20s %12s %12s %8s %7s\n", "workload", "metric", "A", "B", "diff", "bound")
	for _, w := range s.spec.Workloads {
		a, b := sets[0][w.Name], sets[1][w.Name]
		for _, d := range s.spec.EndToEnd {
			va, vb := a.Metrics[d.Name].Value, b.Metrics[d.Name].Value
			diff := math.Abs(vb-va) / va
			verdict := ""
			if diff > d.Bound {
				verdict = "  OUTSIDE"
				bad++
			}
			fmt.Printf("%-15s %-20s %12.5g %12.5g %7.1f%% %6.0f%%%s\n", w.Name, d.Name, va, vb, 100*diff, 100*d.Bound, verdict)
		}
		if !a.Correct || !b.Correct {
			fmt.Printf("%-15s checks: A %d/%d failed, B %d/%d failed  OUTSIDE\n", w.Name, a.Failed, a.Attempted, b.Failed, b.Attempted)
			bad++
		}
	}
	if bad > 0 {
		fmt.Printf("A/A: %d pairings outside their bound\n", bad)
		return 1
	}
	fmt.Println("A/A: every end-to-end metric of every workload agrees within its bound")
	return 0
}

// regolden runs every workload in both modes at the golden seed with the
// golden compare off, then writes what they produced as the new file.
func (s *suite) regolden() int {
	const goldenSeed = 1
	path := filepath.Join(s.root, "bench", "golden.json")
	g := Golden{Seed: goldenSeed, Workloads: map[string]*GoldenWorkload{}}
	for _, w := range s.spec.Workloads {
		gw := &GoldenWorkload{}
		for _, traced := range []bool{false, true} {
			line, err := s.child(w.Name, goldenSeed, traced, "-nogolden")
			if err != nil || !line.Correct {
				fmt.Fprintf(os.Stderr, "bench: %s did not run clean (%v); golden.json not written\n", w.Name, err)
				return 1
			}
			var rf ResultFile
			suffix := ""
			if traced {
				suffix = "-trace"
			}
			if err := readJSON(filepath.Join(s.out, "result-"+w.Name+suffix+".json"), &rf); err != nil {
				return fail(err)
			}
			if traced {
				gw.Layers = rf.LayerCounts
			} else {
				gw.Digests, gw.Exact = rf.E2E.Digests, rf.E2E.Exact
			}
		}
		g.Workloads[w.Name] = gw
	}
	if err := writeJSON(path, g); err != nil {
		return fail(err)
	}
	fmt.Fprintln(os.Stderr, "wrote", path)
	return 0
}
