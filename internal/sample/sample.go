// Package sample turns one detailed run into an estimate with error bars,
// in the style of SMARTS and of Bueno et al.'s representative-interval work
// (PAPERS.md): the traced window is tiled into fixed periods, each holding
// one measured interval; the classifier's tally over each interval is one
// observation, and the observations are extrapolated to whole-window totals
// with per-class standard errors. The run itself is the full run — every
// reference is simulated, classified and (when asked) checked — so the
// estimate can always be read beside the exact result it approximates.
package sample

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/arch"
	"repro/internal/machineflag"
)

// NumClasses mirrors trace.NumClasses — the number of miss classes in
// the classification cube. It is duplicated rather than imported so this
// package stays a leaf (sim depends on it; trace's tests depend on sim);
// core carries a compile-time assertion that the two agree.
const NumClasses = 6

// Schedule places the measured intervals. All lengths are in simulated
// cycles, relative to the start of the traced window (warmup before trace
// start is unaffected).
//
// Each period is laid out as
//
//	[ Warmup | Length, measured | rest of the period ]
//
// and only the measured interval's tally enters the estimate. A zero
// Schedule means sampling is off.
type Schedule struct {
	// Warmup is the offset of the measured interval inside its period.
	Warmup arch.Cycles
	// Length is the measured interval.
	Length arch.Cycles
	// Period is the full tile.
	Period arch.Cycles
}

// Enabled reports whether the schedule requests sampling at all.
func (s Schedule) Enabled() bool { return s.Period > 0 }

// Validate rejects degenerate schedules.
func (s Schedule) Validate() error {
	if !s.Enabled() {
		return nil
	}
	if s.Length <= 0 {
		return fmt.Errorf("sample: measured length must be positive (got %d)", s.Length)
	}
	if s.Warmup < 0 {
		return fmt.Errorf("sample: warmup must be non-negative (got %d)", s.Warmup)
	}
	// Subtracting keeps the comparison exact where warmup + length would
	// overflow.
	if s.Period-s.Warmup < s.Length {
		return fmt.Errorf("sample: period %d shorter than warmup %d + length %d",
			s.Period, s.Warmup, s.Length)
	}
	return nil
}

// String renders the schedule in the "warmup:len:period" syntax Parse
// accepts, compacted ("100K:200K:10M") wherever that loses nothing: Parse
// of the result is s, so the rendering can key a result cache. The zero
// schedule renders empty.
func (s Schedule) String() string {
	if !s.Enabled() {
		return ""
	}
	return exact(s.Warmup) + ":" + exact(s.Length) + ":" + exact(s.Period)
}

// exact renders c compactly when the compact form parses back to c (it
// truncates to two decimals), in plain digits otherwise.
func exact(c arch.Cycles) string {
	s := c.Compact()
	if n, err := machineflag.ParseCycles(s); err != nil || arch.Cycles(n) != c {
		s = strconv.FormatInt(int64(c), 10)
	}
	return s
}

// Parse reads a "warmup:len:period" schedule; each field takes the same
// K/M/G-and-scientific syntax as the -window flags. The empty string
// parses to the disabled zero Schedule.
func Parse(spec string) (Schedule, error) {
	if strings.TrimSpace(spec) == "" {
		return Schedule{}, nil
	}
	parts := strings.Split(spec, ":")
	if len(parts) != 3 {
		return Schedule{}, fmt.Errorf("sample: bad schedule %q (want warmup:len:period, e.g. 100K:200K:10M)", spec)
	}
	var vals [3]arch.Cycles
	for i, p := range parts {
		n, err := machineflag.ParseCycles(p)
		if err != nil {
			return Schedule{}, fmt.Errorf("sample: bad schedule %q: %v", spec, err)
		}
		vals[i] = arch.Cycles(n)
	}
	s := Schedule{Warmup: vals[0], Length: vals[1], Period: vals[2]}
	if !s.Enabled() {
		return Schedule{}, fmt.Errorf("sample: bad schedule %q (period must be positive)", spec)
	}
	return s, s.Validate()
}

// Interval is one measured interval, half-open [Start, End) in cycles
// from trace start.
type Interval struct {
	Start, End arch.Cycles
}

// Samples counts the measured intervals that fit entirely inside the
// window. One that does not fit is dropped: a partial sample would bias
// the estimate.
func (s Schedule) Samples(window arch.Cycles) int {
	// Subtracting keeps the comparison exact where the sums would overflow.
	room := window - s.Warmup - s.Length
	if !s.Enabled() || room < 0 {
		return 0
	}
	return int(room/s.Period) + 1
}

// Intervals returns the measured intervals of a window, in order (none for
// a disabled schedule).
func (s Schedule) Intervals(window arch.Cycles) []Interval {
	ivs := make([]Interval, s.Samples(window))
	for i := range ivs {
		start := arch.Cycles(i)*s.Period + s.Warmup
		ivs[i] = Interval{Start: start, End: start + s.Length}
	}
	return ivs
}

// Counts is the per-sample class tally cube, [os][instr][class].
type Counts = [2][2][NumClasses]int64

// Diff returns after − before, elementwise.
func Diff(after, before Counts) Counts {
	var d Counts
	for os := range after {
		for in := range after[os] {
			for cl := range after[os][in] {
				d[os][in][cl] = after[os][in][cl] - before[os][in][cl]
			}
		}
	}
	return d
}

// Accumulator collects the per-sample tallies of one run.
type Accumulator struct {
	sched   Schedule
	window  arch.Cycles
	samples []Counts
}

// NewAccumulator readies an accumulator for a run of the given window.
func NewAccumulator(sched Schedule, window arch.Cycles) *Accumulator {
	return &Accumulator{sched: sched, window: window}
}

// Add records one measured interval's tally (an after−before snapshot
// difference of the classifier's counts).
func (a *Accumulator) Add(c Counts) { a.samples = append(a.samples, c) }

// Estimate extrapolates the collected samples to whole-window totals.
func (a *Accumulator) Estimate() *Estimate {
	e := &Estimate{
		Schedule: a.sched,
		Window:   a.window,
		Samples:  len(a.samples),
	}
	n := len(a.samples)
	if n == 0 || a.sched.Length <= 0 {
		return e
	}
	scale := float64(a.window) / float64(a.sched.Length)
	for os := 0; os < 2; os++ {
		for in := 0; in < 2; in++ {
			for cl := 0; cl < NumClasses; cl++ {
				var sum, sumSq float64
				for _, s := range a.samples {
					v := float64(s[os][in][cl])
					sum += v
					sumSq += v * v
					e.Measured[os][in][cl] += s[os][in][cl]
				}
				mean := sum / float64(n)
				e.Total[os][in][cl] = mean * scale
				if n >= 2 {
					// Sample variance (n−1 denominator); clamp the
					// tiny negatives of float cancellation.
					variance := (sumSq - sum*mean) / float64(n-1)
					if variance < 0 {
						variance = 0
					}
					e.StdErr[os][in][cl] = scale * math.Sqrt(variance) / math.Sqrt(float64(n))
				}
			}
		}
	}
	return e
}

// Estimate is the extrapolated result of a sampled run: estimated
// whole-window per-class miss totals with standard errors of the mean.
// The extrapolation treats each measured interval as one observation of
// "misses per Length cycles": Total = mean × (Window/Length) and
// StdErr = (Window/Length) × sd/√n. With fewer than two samples the
// standard errors are zero (no variance information).
type Estimate struct {
	Schedule Schedule
	Window   arch.Cycles
	// Samples is the number of measured intervals.
	Samples int
	// Measured is the raw (unscaled) sum over measured intervals.
	Measured Counts
	// Total[os][instr][class] is the extrapolated whole-window count.
	Total [2][2][NumClasses]float64
	// StdErr[os][instr][class] is the standard error of Total.
	StdErr [2][2][NumClasses]float64
}

// MeasuredCycles is the simulated time the measured intervals cover.
func (e *Estimate) MeasuredCycles() arch.Cycles {
	return arch.Cycles(e.Samples) * e.Schedule.Length
}

// ClassTotal sums the estimated total and error of one class over the
// os × instr planes selected by the masks (os<0 / instr<0 select both).
// Errors add in quadrature (samples are treated as independent).
func (e *Estimate) ClassTotal(os, instr, cl int) (total, stderr float64) {
	var errSq float64
	for o := 0; o < 2; o++ {
		if os >= 0 && o != os {
			continue
		}
		for i := 0; i < 2; i++ {
			if instr >= 0 && i != instr {
				continue
			}
			total += e.Total[o][i][cl]
			errSq += e.StdErr[o][i][cl] * e.StdErr[o][i][cl]
		}
	}
	return total, math.Sqrt(errSq)
}

// TotalAll is the estimated whole-window miss total (all modes/kinds),
// with its error.
func (e *Estimate) TotalAll() (total, stderr float64) {
	var errSq float64
	for cl := 0; cl < NumClasses; cl++ {
		t, s := e.ClassTotal(-1, -1, cl)
		total += t
		errSq += s * s
	}
	return total, math.Sqrt(errSq)
}

// TotalOS is the estimated OS-mode miss total with its error.
func (e *Estimate) TotalOS() (total, stderr float64) {
	var errSq float64
	for cl := 0; cl < NumClasses; cl++ {
		t, s := e.ClassTotal(1, -1, cl)
		total += t
		errSq += s * s
	}
	return total, math.Sqrt(errSq)
}
