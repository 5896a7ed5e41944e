package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"time"
)

// The end-to-end side of the benchmark: every workload runs the real
// binaries as child processes, one operation at a time, and is measured
// from outside. Nothing here links a simulator layer; that is the traced
// run's job (layers.go).

// seedsPerCycle is how many simulator seeds one run of a workload cycles
// through. Host time per simulated cycle differs by a few percent from
// seed to seed (the event mix differs), so a run pools several seeds
// derived from --seed rather than inheriting the luck of one; every seed
// repeats at least once, which is also the determinism check.
const seedsPerCycle = 4

// simSeed derives the i-th simulator seed of a run (never 0, which the
// simulator reads as "default").
func simSeed(seed int64, i int) int64 { return seed*1000 + int64(i) + 1 }

// sizing is what -smoke shrinks.
type sizing struct {
	smoke bool
}

// pick returns full, or small under -smoke.
func (z sizing) pick(full, small int64) int64 {
	if z.smoke {
		return small
	}
	return full
}

// window returns full cycles, or 1M under -smoke.
func (z sizing) window(full int64) int64 { return z.pick(full, 1_000_000) }

// requests returns full, or 500 under -smoke.
func (z sizing) requests(full int) int { return int(z.pick(int64(full), 500)) }

// opResult is one timed operation: a CLI invocation or a service batch.
type opResult struct {
	Key    string  `json:"key"` // the input it ran on: simulator seed, or batch index
	Wall   float64 `json:"wall_s"`
	CPU    float64 `json:"cpu_s"`
	Sys    float64 `json:"sys_s,omitempty"` // CLI ops only: the system part of cpu_s
	MinFlt int64   `json:"minor_faults,omitempty"`
	RSSMB  float64 `json:"rss_mb"` // CLI: the child's ru_maxrss; svc: the daemon's VmRSS after the batch
	Digest string  `json:"digest"` // SHA-256 of the output the user sees
	// Units is how many things were attempted inside the op (1 for a CLI
	// invocation, the request count for a batch); Failed how many failed.
	Units  int      `json:"units"`
	Failed int      `json:"failed"`
	Why    []string `json:"why,omitempty"`
}

// e2eWorkload is what the measuring loop drives.
type e2eWorkload interface {
	// simCycles is the simulated CPU-cycles one op reports on.
	simCycles() int64
	// opsPerCycle is how many ops make one pass over the inputs.
	opsPerCycle() int
	// setup does everything that must happen before the first timed op;
	// teardown undoes it. The loop calls the pair several times and
	// reports the median set-up time.
	setup() error
	teardown()
	op(i int) opResult
	// verify runs after the timed ops; it returns checks attempted,
	// checks failed, and workload-specific exact values.
	verify() (attempted, failed int, exact map[string]float64, why []string)
	// extras are ungated numbers for the result file (latency tails).
	extras() map[string]float64
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// cliWorkload is one invocation of charos or sweep per op.
type cliWorkload struct {
	bin      string
	seed     int64
	args     func(simSeed int64) []string
	refArgs  func(simSeed int64) []string // nil: no reference run
	cycles   int64
	outputs  map[int][]byte // seed index → stdout of the first op on it
	checkOp  func(r childRun) []string
	checkRef func(op, ref []byte) (exact map[string]float64, why []string)
	summary  func(stdout []byte) (map[string]float64, error)
}

func (w *cliWorkload) simCycles() int64 { return w.cycles }
func (w *cliWorkload) opsPerCycle() int { return seedsPerCycle }
func (w *cliWorkload) teardown()        {}

func (w *cliWorkload) extras() map[string]float64 { return map[string]float64{} }

// setup is one untimed warm-up invocation: it pages the binary in and
// proves the flags are accepted before anything is timed.
func (w *cliWorkload) setup() error {
	return runChild(w.bin, w.args(simSeed(w.seed, 0))...).Err
}

func (w *cliWorkload) op(i int) opResult {
	idx := i % seedsPerCycle
	ss := simSeed(w.seed, idx)
	r := runChild(w.bin, w.args(ss)...)
	res := opResult{Key: strconv.FormatInt(ss, 10), Wall: r.Wall, CPU: r.CPU, Sys: r.Sys, MinFlt: r.MinFlt,
		RSSMB: r.RSSMB, Digest: digest(r.Stdout), Units: 1}
	fail := func(msg string) { res.Failed = 1; res.Why = append(res.Why, msg) }
	if r.Err != nil {
		fail(r.Err.Error())
		return res
	}
	if len(r.Stdout) == 0 {
		fail("empty report")
	}
	if w.checkOp != nil {
		for _, msg := range w.checkOp(r) {
			fail(msg)
		}
	}
	if prev, ok := w.outputs[idx]; !ok {
		w.outputs[idx] = r.Stdout
	} else if !bytes.Equal(prev, r.Stdout) {
		fail(fmt.Sprintf("seed %d: output differs from an earlier op on the same seed (not deterministic)", ss))
	}
	return res
}

func (w *cliWorkload) verify() (attempted, failed int, exact map[string]float64, why []string) {
	exact = map[string]float64{}
	merge := func(m map[string]float64) {
		// Exact values are per seed; the run reports the worst.
		for k, v := range m {
			if old, ok := exact[k]; !ok || v > old {
				exact[k] = v
			}
		}
	}
	for idx := 0; idx < seedsPerCycle; idx++ {
		out, ok := w.outputs[idx]
		if !ok {
			continue
		}
		ss := simSeed(w.seed, idx)
		if w.summary != nil {
			attempted++
			m, err := w.summary(out)
			if err != nil {
				failed++
				why = append(why, fmt.Sprintf("seed %d: %v", ss, err))
			}
			merge(m)
		}
		if w.refArgs == nil {
			continue
		}
		attempted++
		ref := runChild(w.bin, w.refArgs(ss)...)
		if ref.Err != nil {
			failed++
			why = append(why, "reference run: "+ref.Err.Error())
			continue
		}
		m, msgs := w.checkRef(out, ref.Stdout)
		merge(m)
		if len(msgs) > 0 {
			failed++
			for _, msg := range msgs {
				why = append(why, fmt.Sprintf("seed %d: %s", ss, msg))
			}
		}
	}
	return attempted, failed, exact, why
}

var checkerLineRE = regexp.MustCompile(`invariant checker: (\d+) checks, 0 violations`)

// fig11CPUs is the CPU-count sweep of fig11-scaling.
var fig11CPUs = []int{2, 4, 6, 8, 12, 16}

// sampleSchedule is the long-sampled schedule for a window: 100K warm-up
// and 200K measured per period, eight periods per window (fewer when the
// smoke test's window is too short to hold eight).
func sampleSchedule(window int64) string {
	return fmt.Sprintf("100K:200K:%d", max(window/8, 400_000))
}

// Windows of the CLI workloads, sized so one op takes about half a second
// on the 2-core reference host: a run then fits four passes over its four
// seeds into eight measured seconds.
const (
	winChar3All   = 6_000_000
	winChar3Check = 3_000_000
	winFig11      = 4_000_000
	winPar4d380   = 2_500_000
	winSampled    = 8_000_000
	winSvc        = 2_000_000
)

func newCLIWorkload(name string, env *runEnv) *cliWorkload {
	z := env.size
	w := &cliWorkload{bin: env.bin("charos"), seed: env.seed, outputs: map[int][]byte{}}
	str := func(v int64) string { return strconv.FormatInt(v, 10) }
	// warmup is half the window by default and is simulated too.
	cyclesFor := func(window int64, cpuRuns int) int64 { return (window + window/2) * int64(cpuRuns) }
	switch name {
	case "char3-all":
		win := z.window(winChar3All)
		w.cycles = cyclesFor(win, 3*4)
		w.args = func(s int64) []string {
			return []string{"-exp", "all", "-parallel", "1", "-window", str(win), "-seed", str(s)}
		}
		w.summary = func(out []byte) (map[string]float64, error) {
			pts, cells, err := parseTable1(string(out))
			if err == nil && cells != 21 {
				err = fmt.Errorf("Table 1 has %d measured|paper cells, want 21", cells)
			}
			return map[string]float64{"paper_err_pts": pts}, err
		}
	case "char3-check":
		win := z.window(winChar3Check)
		w.cycles = cyclesFor(win, 3*4)
		w.args = func(s int64) []string {
			return []string{"-exp", "report", "-check", "-parallel", "1", "-window", str(win), "-seed", str(s)}
		}
		w.checkOp = func(r childRun) []string {
			m := checkerLineRE.FindSubmatch(r.Stderr)
			if m == nil {
				return []string{"no clean \"invariant checker: N checks, 0 violations\" line on stderr"}
			}
			if n, _ := strconv.ParseInt(string(m[1]), 10, 64); n == 0 {
				return []string{"invariant checker ran 0 checks"}
			}
			return nil
		}
	case "fig11-scaling":
		win := z.window(winFig11)
		w.bin = env.bin("sweep")
		ncpu, list := 0, make([]string, len(fig11CPUs))
		for i, n := range fig11CPUs {
			ncpu += n
			list[i] = strconv.Itoa(n)
		}
		w.cycles = cyclesFor(win, ncpu)
		w.args = func(s int64) []string {
			return []string{"-exp", "figure11", "-cpus", strings.Join(list, ","), "-window", str(win),
				"-parallel", strconv.Itoa(env.nproc), "-seed", str(s)}
		}
	case "par-4d380":
		win := z.window(winPar4d380)
		w.cycles = cyclesFor(win, 3*8)
		base := func(s int64) []string {
			return []string{"-exp", "report", "-machine", "4d380", "-parallel", "1", "-window", str(win), "-seed", str(s)}
		}
		w.args = func(s int64) []string { return append(base(s), "-sim-workers", "2") }
		w.refArgs = base
		w.checkRef = func(op, ref []byte) (map[string]float64, []string) {
			if !bytes.Equal(op, ref) {
				return nil, []string{"-sim-workers 2 output differs from the serial engine's"}
			}
			return nil, nil
		}
	case "long-sampled":
		win := z.window(winSampled)
		w.cycles = cyclesFor(win, 3*4)
		base := func(s int64) []string {
			return []string{"-exp", "report", "-parallel", "1", "-window", str(win), "-seed", str(s)}
		}
		w.args = func(s int64) []string { return append(base(s), "-sample", sampleSchedule(win)) }
		w.refArgs = base
		w.checkRef = func(op, ref []byte) (map[string]float64, []string) {
			e, err := sampleErrPct(string(op), string(ref))
			if err != nil {
				return nil, []string{err.Error()}
			}
			return map[string]float64{"sample_err_pct": e}, nil
		}
	default:
		return nil
	}
	return w
}

// e2eResult is everything one end-to-end run measured.
type e2eResult struct {
	Setups  []float64          `json:"setup_s_each"`
	Ops     []opResult         `json:"ops"`
	Exact   map[string]float64 `json:"exact"`
	Extras  map[string]float64 `json:"extras,omitempty"`
	Digests map[string]string  `json:"digests"`
	// Drift counts ops whose output digest differs from golden.json.
	Drift     int      `json:"report_drift"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Why       []string `json:"why,omitempty"`
	Measured  float64  `json:"measured_s"`
}

// setupRepeats is how many times a run sets up before measuring; the
// median is reported so one slow process start does not decide setup_s.
const setupRepeats = 3

// runE2E drives one workload: repeated set-up, timed ops for at least
// `seconds` (whole passes over the inputs, two passes minimum so every
// input repeats), then verification against reference runs and golden.
func runE2E(w e2eWorkload, env *runEnv) (*e2eResult, error) {
	res := &e2eResult{Digests: map[string]string{}}
	repeats, minCycles, seconds := setupRepeats, 2, env.seconds
	if env.size.smoke {
		repeats, minCycles, seconds = 1, 1, 0
	}
	for k := 0; k < repeats; k++ {
		if k > 0 {
			w.teardown()
		}
		t0 := time.Now()
		if err := w.setup(); err != nil {
			w.teardown()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		res.Setups = append(res.Setups, time.Since(t0).Seconds())
	}
	defer w.teardown()

	start := time.Now()
	for cycle := 0; cycle < minCycles || time.Since(start).Seconds() < seconds; cycle++ {
		for j := 0; j < w.opsPerCycle(); j++ {
			res.Ops = append(res.Ops, w.op(cycle*w.opsPerCycle()+j))
		}
	}
	res.Measured = time.Since(start).Seconds()

	for _, op := range res.Ops {
		res.Attempted += op.Units
		res.Failed += op.Failed
		res.Why = append(res.Why, op.Why...)
		if _, ok := res.Digests[op.Key]; !ok {
			res.Digests[op.Key] = op.Digest
		}
	}
	att, failed, exact, why := w.verify()
	res.Attempted += att
	res.Failed += failed
	res.Exact = exact
	res.Why = append(res.Why, why...)
	res.Extras = w.extras()
	// CPU time is filed with the extras, not gated: see the README on why
	// it cannot carry a bound on this host.
	var cpus, syss []float64
	for _, op := range res.Ops {
		cpus = append(cpus, op.CPU)
		syss = append(syss, op.Sys)
	}
	res.Extras["cpu_s"] = median(cpus)
	if sys := median(syss); sys > 0 { // only CLI ops split it out
		res.Extras["cpu_sys_s"] = sys
	}

	if g := env.goldenFor(); g != nil {
		for _, op := range res.Ops {
			if want, ok := g.Digests[op.Key]; ok && want != op.Digest {
				res.Drift++
				res.Failed++
				res.Why = append(res.Why, fmt.Sprintf("op %s: output digest %.12s differs from golden %.12s", op.Key, op.Digest, want))
			}
		}
		for k, want := range g.Exact {
			if got, ok := res.Exact[k]; ok && got != want {
				res.Failed++
				res.Why = append(res.Why, fmt.Sprintf("%s = %v, golden says %v", k, got, want))
			}
		}
	}
	if len(res.Why) > 20 {
		res.Why = append(res.Why[:20], fmt.Sprintf("... and %d more", len(res.Why)-20))
	}
	return res, nil
}

// e2eMetrics folds the ops into the end-to-end metrics.
func e2eMetrics(w e2eWorkload, res *e2eResult) map[string]Metric {
	var walls, rss []float64
	for _, op := range res.Ops {
		walls = append(walls, op.Wall)
		rss = append(rss, op.RSSMB)
	}
	wall := median(walls)
	return map[string]Metric{
		"setup_s":           {median(res.Setups), "s"},
		"wall_s":            {wall, "s"},
		"sim_mcycles_per_s": {float64(w.simCycles()) / wall / 1e6, "Mcycles/s"},
		"rss_mb":            {median(rss), "MB"},
	}
}
