package main

import (
	"math"
	"os"
	"os/exec"
	"strings"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedianAndQuartiles(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v, want 0", got)
	}
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(ten)
	if !near(q1, 2.75) || !near(q2, 5.5) || !near(q3, 8.25) {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// Python: statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
	q1, q2, q3 = quartiles([]float64{1, 2, 3, 4})
	if !near(q1, 1.25) || !near(q2, 2.5) || !near(q3, 3.75) {
		t.Errorf("quartiles(1..4) = %v %v %v, want 1.25 2.5 3.75", q1, q2, q3)
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{99, 0, false},        // p90 would leave 9.9 beyond
		{100, 90, true},       // exactly 10 beyond p90
		{199, 90, true},       // p95 would leave 9.95
		{200, 95, true},       // exactly 10 beyond p95
		{1000, 99, true},      // the svc-miss pool of the issue: 10 beyond p99
		{9999, 99, true},      // p99.9 would leave 9.999
		{300000, 99.99, true}, // the svc-hit pool: 30 beyond p99.99
	} {
		got, ok := tailPercentile(c.n)
		if ok != c.ok || got != c.want {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(100 - i) // 100..1
	}
	if got := percentile(v, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	if got := percentile(v, 100); got != 100 {
		t.Errorf("p100 of 1..100 = %v, want 100", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []Span{
		{ID: 0, Parent: -1, Name: "op", Start: 0, End: 100},
		// nested: 1 contains 2
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 50},
		{ID: 2, Parent: 1, Name: "a.inner", Start: 20, End: 30},
		// overlapping siblings 3 and 4 cover 60..90 between them
		{ID: 3, Parent: 0, Name: "b", Start: 60, End: 80},
		{ID: 4, Parent: 0, Name: "c", Start: 70, End: 90},
		// a child that runs past its parent is clipped to it
		{ID: 5, Parent: 0, Name: "d", Start: 95, End: 120},
	}
	self := selfTimes(spans)
	want := map[int]int64{
		0: 100 - (40 + 30 + 5), // children cover 10..50, 60..90, 95..100
		1: 40 - 10,
		2: 10,
		3: 20,
		4: 20,
		5: 25,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	if got := selfByName(spans)["op"]; !near(got, 25e-9) {
		t.Errorf("selfByName[op] = %v s, want 25ns", got)
	}
}

func TestTracerNestsAndTagsOps(t *testing.T) {
	tr := newTracer()
	tr.NextOp()
	tr.Do("outer", func() { tr.Do("inner", func() {}) })
	tr.NextOp()
	tr.Do("next", func() {})
	if len(tr.spans) != 3 {
		t.Fatalf("%d spans, want 3", len(tr.spans))
	}
	outer, inner, next := tr.spans[0], tr.spans[1], tr.spans[2]
	if outer.Parent != -1 || inner.Parent != outer.ID || next.Parent != -1 {
		t.Errorf("parents: outer %d inner %d next %d", outer.Parent, inner.Parent, next.Parent)
	}
	if outer.Op != 1 || inner.Op != 1 || next.Op != 2 {
		t.Errorf("op ids: outer %d inner %d next %d", outer.Op, inner.Op, next.Op)
	}
	if inner.Start < outer.Start || inner.End > outer.End {
		t.Errorf("inner [%d,%d] not inside outer [%d,%d]", inner.Start, inner.End, outer.Start, outer.End)
	}
	var nilTracer *Tracer
	ran := false
	nilTracer.NextOp()
	nilTracer.Do("x", func() { ran = true })
	if !ran {
		t.Error("nil tracer did not run the function")
	}
}

// Captured from `charos -exp all -parallel 1 -window 4M`: Table 1, then
// the start of Figure 1, whose last column also holds m|ref cells that
// must not be counted.
const capturedAll = `Table 1: Characteristics of the workloads (measured | paper)
Workload      User%       Sys%      Idle%  OSMiss/Tot%  Stall All%  Stall OS%  Stall OS+Ind%
--------------------------------------------------------------------------------------------
Pmake     53.6|49.4  30.7|31.1  15.7|19.5    50.7|52.6   54.0|39.9  27.3|21.0      30.1|25.8
Multpgm   63.6|53.2  36.4|46.7    0.0|0.1    45.1|46.3   53.1|46.5  23.9|21.5      26.7|24.9
Oracle    60.1|62.4  33.4|29.4    6.5|8.2    27.4|26.6   65.4|62.5  17.9|16.6      23.1|26.8

Figure 1: Average times and misses in the basic repeating pattern
Workload  OS cyc  OS I-miss  ms between OS inv (paper)
------------------------------------------------------
Pmake      12983        125                   1.32|1.9
`

func TestParseTable1(t *testing.T) {
	pts, cells, err := parseTable1(capturedAll)
	if err != nil || cells != 21 {
		t.Fatalf("parseTable1: %d cells, err %v; want 21 cells", cells, err)
	}
	want := (4.2 + 0.4 + 3.8 + 1.9 + 14.1 + 6.3 + 4.3 +
		10.4 + 10.3 + 0.1 + 1.2 + 6.6 + 2.4 + 1.8 +
		2.3 + 4.0 + 1.7 + 0.8 + 2.9 + 1.3 + 3.7) / 21
	if math.Abs(pts-want) > 1e-9 {
		t.Errorf("paper_err_pts = %v, want %v", pts, want)
	}
	if _, _, err := parseTable1("Figure 2: nothing here"); err == nil {
		t.Error("parseTable1 accepted a report without Table 1")
	}
}

// Captured from `charos -exp report -sample 100K:200K:1M -window 8M`
// (first run, class table shortened) and the full run of the same config.
const capturedSampled = `run Pmake ncpu=4 seed=1 window=8000000 warmup=4000000
config fde293cf35b6d48b6f6c9e2f5f045f39cc2456d1c0e291464ae5a62cb1180c7c
time split: user 57.01% sys 35.33% idle 7.66%
sampling: 100K:200K:1M — 8 samples, 1.6M of 8M cycles measured
os miss share: 58.72% ± 17.72%
memory stalls: all 56.55% ± 9.06% os 33.20% ± 8.49% os+induced 37.37% ± 8.54%
bus misses: 477490 ± 76498 (os 280370 ± 71676)
miss classes (estimated whole-window counts ± stderr):
  Cold     app-i 60855±12954    app-d 40995±13497    os-i 24190±15541    os-d 156025±67272
sync stalls: current 0.94% rmw-cached 0.10%
kernel ops: ctxswitch=159 migrations=106 spawns=21 exits=21 disk=83
`

const capturedFull = `run Pmake ncpu=4 seed=1 window=8000000 warmup=4000000
config 1111111111111111111111111111111111111111111111111111111111111111
time split: user 57.01% sys 35.33% idle 7.66%
os miss share: 50.10%
memory stalls: all 50.00% os 25.00% os+induced 28.00%
bus misses: 500000 (os 250000)
sync stalls: current 0.94% rmw-cached 0.10%
kernel ops: ctxswitch=159 migrations=106 spawns=21 exits=21 disk=83
`

func TestParseSampledReport(t *testing.T) {
	runs := parseSingles(capturedSampled)
	if len(runs) != 1 {
		t.Fatalf("%d runs, want 1", len(runs))
	}
	r := runs[0]
	if !r.Sampled || r.Misses != 477490 || r.StdErr != 76498 {
		t.Errorf("sampled run parsed as %+v", r)
	}
	if len(r.Exact) != 3 || !strings.HasPrefix(r.Exact[2], "kernel ops:") {
		t.Errorf("exact lines = %q", r.Exact)
	}
	full := parseSingles(capturedFull)
	if len(full) != 1 || full[0].Sampled || full[0].Misses != 500000 {
		t.Errorf("full run parsed as %+v", full)
	}
	got, err := sampleErrPct(capturedSampled, capturedFull)
	if err != nil || !near(got, 100*22510.0/500000) {
		t.Errorf("sampleErrPct = %v, %v; want 4.502", got, err)
	}
	// A sampled run whose trajectory-exact lines differ from the full
	// run's is an error, not a number.
	drifted := strings.Replace(capturedFull, "ctxswitch=159", "ctxswitch=160", 1)
	if _, err := sampleErrPct(capturedSampled, drifted); err == nil {
		t.Error("sampleErrPct accepted a drifted kernel-ops line")
	}
	if _, err := sampleErrPct(capturedSampled, capturedFull+capturedFull); err == nil {
		t.Error("sampleErrPct accepted reports with different run counts")
	}
}

func TestCheckNames(t *testing.T) {
	defs := []MetricDef{{Name: "wall_s", Unit: "s"}, {Name: "cpu_s", Unit: "s"}}
	ok := map[string]Metric{"wall_s": {1, "s"}, "cpu_s": {2, "s"}}
	if err := checkNames(ok, defs); err != nil {
		t.Errorf("checkNames(ok) = %v", err)
	}
	for name, bad := range map[string]map[string]Metric{
		"missing":    {"wall_s": {1, "s"}},
		"extra":      {"wall_s": {1, "s"}, "cpu_s": {2, "s"}, "x": {3, "s"}},
		"wrong unit": {"wall_s": {1, "ms"}, "cpu_s": {2, "s"}},
		"NaN":        {"wall_s": {math.NaN(), "s"}, "cpu_s": {2, "s"}},
	} {
		if err := checkNames(bad, defs); err == nil {
			t.Errorf("checkNames accepted a result with a %s metric", name)
		}
	}
}

// TestSmoke builds the binaries and runs every workload in both modes at
// smoke sizes through the benchmark's one entry point.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binaries")
	}
	cmd := exec.Command("bash", "run.sh", "-smoke")
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("bench -smoke: %v", err)
	}
}
