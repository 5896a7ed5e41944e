package metrics

import (
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(10, 100, 1000)
	for _, v := range []float64{5, 9.9, 10, 99, 100, 500, 2000} {
		h.Add(v)
	}
	want := []int64{2, 2, 2, 1} // <10, 10-100, 100-1000, ≥1000
	for i, w := range want {
		if h.Counts[i] != w {
			t.Errorf("bucket %d (%s) = %d, want %d", i, h.BucketLabel(i), h.Counts[i], w)
		}
	}
	if h.N != 7 {
		t.Errorf("N = %d", h.N)
	}
	if h.Min != 5 || h.Max != 2000 {
		t.Errorf("min/max = %v/%v", h.Min, h.Max)
	}
}

func TestHistogramEdgesExclusive(t *testing.T) {
	h := NewHistogram(10)
	h.Add(10)
	if h.Counts[0] != 0 || h.Counts[1] != 1 {
		t.Errorf("edge value landed in %v", h.Counts)
	}
}

func TestHistogramMeanAndPct(t *testing.T) {
	h := NewHistogram(5)
	h.Add(2)
	h.Add(8)
	if h.Mean() != 5 {
		t.Errorf("Mean = %v", h.Mean())
	}
	p := h.Pct()
	if p[0] != 50 || p[1] != 50 {
		t.Errorf("Pct = %v", p)
	}
	empty := NewHistogram(5)
	if empty.Mean() != 0 || empty.Pct()[0] != 0 {
		t.Error("empty histogram should be zeros")
	}
}

func TestHistogramPctSumsTo100(t *testing.T) {
	f := func(vals []float64) bool {
		if len(vals) == 0 {
			return true
		}
		h := NewHistogram(1, 10, 100)
		for _, v := range vals {
			h.Add(v)
		}
		sum := 0.0
		for _, p := range h.Pct() {
			sum += p
		}
		return sum > 99.99 && sum < 100.01
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogramBadEdgesPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-increasing edges did not panic")
		}
	}()
	NewHistogram(5, 5)
}

func TestHistogramRender(t *testing.T) {
	h := NewHistogram(10)
	h.Add(1)
	out := h.Render("demo")
	if !strings.Contains(out, "demo") || !strings.Contains(out, "<10") {
		t.Errorf("render missing parts: %q", out)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Table X", "Workload", "A (%)", "B (%)")
	tb.AddRow("Pmake", 49.4, 31)
	tb.AddRow("Multpgm", 53.25, "n/a")
	tb.Note("paper values in col A")
	out := tb.String()
	if !strings.Contains(out, "Table X") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "49.4") || !strings.Contains(out, "53.2") {
		t.Errorf("float formatting wrong:\n%s", out)
	}
	if !strings.Contains(out, "note: paper values") {
		t.Error("missing note")
	}
	// Alignment: headers and rows share column widths; spot-check that
	// every line is non-empty and rows ≥ header width.
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 6 {
		t.Errorf("expected 6 lines, got %d:\n%s", len(lines), out)
	}
}

func TestPctOf(t *testing.T) {
	if PctOf(1, 4) != 25 {
		t.Error("PctOf wrong")
	}
	if PctOf(1, 0) != 0 {
		t.Error("PctOf division guard failed")
	}
	if PctOfF(1, 2) != 50 || PctOfF(1, 0) != 0 {
		t.Error("PctOfF wrong")
	}
}

func TestRunStatsThroughput(t *testing.T) {
	r := RunStats{SimCycles: 48_000_000, Wall: 2 * time.Second}
	r.Throughput()
	if r.MCyclesPerSec != 24 {
		t.Errorf("MCyclesPerSec = %v, want 24", r.MCyclesPerSec)
	}
	z := RunStats{SimCycles: 1}
	z.Throughput() // zero wall must not divide by zero
	if z.MCyclesPerSec != 0 {
		t.Errorf("zero-wall throughput = %v, want 0", z.MCyclesPerSec)
	}
}

func TestBatchStatsSpeedupAndTable(t *testing.T) {
	b := BatchStats{
		Parallelism: 4,
		Wall:        time.Second,
		SerialWall:  3 * time.Second,
		Allocs:      1000,
		AllocBytes:  2_000_000,
		Runs: []RunStats{
			{Label: "Pmake/ncpu4/seed1", Wall: time.Second, SimCycles: 18_000_000, MCyclesPerSec: 18, Allocs: 500, AllocBytes: 1_000_000,
				BusTxns: 123_456, Checks: 7_654_321, ClassifyWait: 2345 * time.Microsecond},
			{Label: "Oracle/ncpu4/seed1", Wall: 2 * time.Second, SimCycles: 18_000_000, MCyclesPerSec: 9},
		},
	}
	if got := b.Speedup(); got != 3 {
		t.Errorf("Speedup = %v, want 3", got)
	}
	if (BatchStats{}).Speedup() != 0 {
		t.Error("zero-wall batch should report 0 speedup, not NaN")
	}
	out := b.Table()
	for _, want := range []string{"4 workers", "Pmake/ncpu4/seed1", "speedup 3.00x", "500", "-",
		"Txns", "Checks", "123456", "7654321", "Wait", "2.3ms"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	// The unchecked run with no recorded transactions shows "-" in both
	// counter columns, not 0.
	row := strings.Fields(strings.Split(out, "\n")[4])
	if txns, checks := row[len(row)-2], row[len(row)-1]; txns != "-" || checks != "-" {
		t.Errorf("zero counters rendered as %q and %q, want \"-\": %q", txns, checks, row)
	}
	// Post-run work gets its own note line, last, and only when timed.
	if strings.Contains(out, "post-processing") {
		t.Errorf("untimed batch mentions post-processing:\n%s", out)
	}
	b.Post, b.PostLabel = 23800*time.Microsecond, "figure 6 sweep 289234 events × 10 configurations"
	const want = "  note: post-processing: figure 6 sweep 289234 events × 10 configurations in 23.8ms\n"
	if timed := b.Table(); timed != out+want {
		t.Errorf("timed batch table = %q, want the untimed table plus %q", timed, want)
	}
}
