package sample

import (
	"math"
	"testing"

	"repro/internal/arch"
)

// parseGood and parseBad are TestParse's tables and FuzzSampleParse's seed
// corpus.
var parseGood = []struct {
	in   string
	want Schedule
}{
	{"", Schedule{}},
	{"  ", Schedule{}},
	{"100K:200K:10M", Schedule{100_000, 200_000, 10_000_000}},
	{"0:1M:2M", Schedule{0, 1_000_000, 2_000_000}},
	{"1e5:2e5:1e7", Schedule{100_000, 200_000, 10_000_000}},
	{"50000:100000:1000000", Schedule{50_000, 100_000, 1_000_000}},
}

var parseBad = []string{
	"100K",                    // not three fields
	"1:2",                     // not three fields
	"1:2:3:4",                 // not three fields
	"x:2M:10M",                // unparsable field
	"100K:0:10M",              // zero measured length
	"100K:200K:0",             // zero period
	"1M:2M:2.5M",              // period < warmup+length
	"-1K:200K:10M",            // negative warmup
	"100K:200K:-10M",          // negative period
	"9223372036854775807:1:5", // warmup + length overflows
}

func TestParse(t *testing.T) {
	for _, c := range parseGood {
		got, err := Parse(c.in)
		if err != nil || got != c.want {
			t.Errorf("Parse(%q) = %+v, %v; want %+v", c.in, got, err, c.want)
		}
	}
	for _, in := range parseBad {
		if got, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) = %+v, want error", in, got)
		}
	}
}

// FuzzSampleParse: no spec panics the parser; an accepted schedule is valid,
// and prints in a form that parses back to exactly itself (core.Config.Hash
// keys the result cache on that rendering).
func FuzzSampleParse(f *testing.F) {
	for _, c := range parseGood {
		f.Add(c.in)
	}
	for _, in := range parseBad {
		f.Add(in)
	}
	f.Add("123456:7654321:1234567890") // compact form would truncate
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := Parse(spec)
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("Parse(%q) accepted %+v, which Validate rejects: %v", spec, s, err)
		}
		if s.Enabled() && (s.Warmup < 0 || s.Length <= 0 || s.Period-s.Warmup < s.Length) {
			t.Fatalf("Parse(%q) accepted %+v: intervals do not fit the period", spec, s)
		}
		if back, err := Parse(s.String()); err != nil || back != s {
			t.Fatalf("Parse(%q) = %+v prints as %q, which parses to %+v, %v", spec, s, s.String(), back, err)
		}
	})
}

func TestScheduleString(t *testing.T) {
	s := Schedule{100_000, 200_000, 10_000_000}
	if got := s.String(); got != "100K:200K:10M" {
		t.Fatalf("String() = %q", got)
	}
	// String must round-trip through Parse.
	back, err := Parse(s.String())
	if err != nil || back != s {
		t.Fatalf("round trip: %+v, %v", back, err)
	}
	if got := (Schedule{}).String(); got != "" {
		t.Fatalf("zero Schedule String() = %q, want empty", got)
	}
}

// Intervals are the measured intervals and nothing else: one per period
// that fits entirely inside the window, each exactly Length long at offset
// Warmup in its period, in order, never a partial one.
func TestIntervalsFit(t *testing.T) {
	cases := []struct {
		s       Schedule
		window  arch.Cycles
		samples int
	}{
		{Schedule{100, 200, 1000}, 10_000, 10},
		{Schedule{0, 200, 1000}, 10_000, 10},
		{Schedule{100, 200, 1000}, 10_500, 11}, // ragged tail still fits a sample
		{Schedule{100, 200, 1000}, 9_300, 10},  // last sample ends exactly at the window
		{Schedule{100, 200, 1000}, 9_299, 9},   // one cycle short → dropped
		{Schedule{0, 1000, 1000}, 5_000, 5},    // wall-to-wall measured
		{Schedule{100, 200, 1000}, 50, 0},      // window smaller than one sample
		{Schedule{100, 200, 1000}, 0, 0},
		{Schedule{1000, 2000, 1_000_000}, 12_000_000, 12},
		{Schedule{}, 1000, 0}, // sampling off
	}
	for _, c := range cases {
		ivs := c.s.Intervals(c.window)
		if len(ivs) != c.samples || c.s.Samples(c.window) != c.samples {
			t.Fatalf("%v@%d: %d intervals, Samples() = %d, want %d",
				c.s, c.window, len(ivs), c.s.Samples(c.window), c.samples)
		}
		for i, iv := range ivs {
			if want := arch.Cycles(i)*c.s.Period + c.s.Warmup; iv.Start != want {
				t.Fatalf("%v@%d: interval %d starts at %d, want %d", c.s, c.window, i, iv.Start, want)
			}
			if iv.End-iv.Start != c.s.Length || iv.End > c.window {
				t.Fatalf("%v@%d: interval %d is [%d,%d), want %d cycles inside the window",
					c.s, c.window, i, iv.Start, iv.End, c.s.Length)
			}
		}
	}
}

// Hand-computed estimate: two samples of 10 and 14 misses in 100-cycle
// intervals over a 1000-cycle window. mean=12, scale=10 → Total 120;
// sd=√8, stderr = 10·√8/√2 = 20.
// Class indices mirroring trace.Cold/Sharing/Inval, which this leaf
// package cannot import (see NumClasses).
const (
	clCold    = 0
	clSharing = 3
	clInval   = 4
)

func TestEstimateMath(t *testing.T) {
	sched := Schedule{Warmup: 0, Length: 100, Period: 500}
	acc := NewAccumulator(sched, 1000)
	var s1, s2 Counts
	s1[1][0][clSharing] = 10
	s2[1][0][clSharing] = 14
	acc.Add(s1)
	acc.Add(s2)
	e := acc.Estimate()
	if e.Samples != 2 {
		t.Fatalf("Samples = %d", e.Samples)
	}
	if got := e.Total[1][0][clSharing]; math.Abs(got-120) > 1e-9 {
		t.Fatalf("Total = %v, want 120", got)
	}
	if got := e.StdErr[1][0][clSharing]; math.Abs(got-20) > 1e-9 {
		t.Fatalf("StdErr = %v, want 20", got)
	}
	if e.Measured[1][0][clSharing] != 24 {
		t.Fatalf("Measured = %d, want 24", e.Measured[1][0][clSharing])
	}
	if e.MeasuredCycles() != 200 {
		t.Fatalf("MeasuredCycles = %d, want 200", e.MeasuredCycles())
	}
	// Untouched cells stay zero.
	if e.Total[0][1][clCold] != 0 || e.StdErr[0][1][clCold] != 0 {
		t.Fatal("untouched cells nonzero")
	}
	// Aggregates.
	tot, serr := e.TotalAll()
	if math.Abs(tot-120) > 1e-9 || math.Abs(serr-20) > 1e-9 {
		t.Fatalf("TotalAll = %v ± %v", tot, serr)
	}
	osTot, osErr := e.TotalOS()
	if math.Abs(osTot-120) > 1e-9 || math.Abs(osErr-20) > 1e-9 {
		t.Fatalf("TotalOS = %v ± %v", osTot, osErr)
	}
	ct, cs := e.ClassTotal(1, 0, clSharing)
	if math.Abs(ct-120) > 1e-9 || math.Abs(cs-20) > 1e-9 {
		t.Fatalf("ClassTotal = %v ± %v", ct, cs)
	}
	if ut, _ := e.ClassTotal(0, -1, clSharing); ut != 0 {
		t.Fatalf("user-plane ClassTotal = %v, want 0", ut)
	}
}

func TestEstimateSingleSampleHasNoError(t *testing.T) {
	acc := NewAccumulator(Schedule{0, 100, 1000}, 1000)
	var s Counts
	s[0][0][clCold] = 7
	acc.Add(s)
	e := acc.Estimate()
	if got := e.Total[0][0][clCold]; math.Abs(got-70) > 1e-9 {
		t.Fatalf("Total = %v, want 70", got)
	}
	if e.StdErr[0][0][clCold] != 0 {
		t.Fatalf("single-sample StdErr = %v, want 0", e.StdErr[0][0][clCold])
	}
}

func TestDiff(t *testing.T) {
	var a, b Counts
	a[1][1][clCold] = 10
	b[1][1][clCold] = 4
	a[0][0][clInval] = 3
	d := Diff(a, b)
	if d[1][1][clCold] != 6 || d[0][0][clInval] != 3 {
		t.Fatalf("Diff = %+v", d)
	}
}
