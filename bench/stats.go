package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// median returns the middle of v (mean of the two middle values for an
// even count); 0 for an empty slice.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points of v exactly as Python's
// statistics.quantiles(v, n=4) does (the "exclusive" method), so a spread
// computed here matches the one the acceptance procedure computes.
// Python needs at least two values; one value is returned as all three.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		m := median(s)
		return m, m, m
	}
	cut := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// tailLadder is the set of tail percentiles a latency report may name.
var tailLadder = []float64{99.99, 99.9, 99, 95, 90}

// tailPercentile picks the highest percentile of the ladder that still
// has at least ten samples beyond it among n samples; ok is false when
// even p90 does not (n < 100), in which case only min/max may be printed.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailLadder {
		if float64(n)*(100-p)/100 >= 10 {
			return p, true
		}
	}
	return 0, false
}

// percentile returns the nearest-rank p-th percentile of v.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

var cellRE = regexp.MustCompile(`(-?\d+(?:\.\d+)?)\|(-?\d+(?:\.\d+)?)`)

// parseTable1 extracts the measured|paper cells of Table 1 from a charos
// report (the rows between the "Table 1:" title and the next blank line)
// and returns the mean absolute difference in percentage points with the
// number of cells found. The full table has 21 cells.
func parseTable1(text string) (errPts float64, cells int, err error) {
	i := strings.Index(text, "Table 1:")
	if i < 0 {
		return 0, 0, fmt.Errorf("no Table 1 in report")
	}
	body := text[i:]
	if j := strings.Index(body, "\n\n"); j >= 0 {
		body = body[:j]
	}
	var sum float64
	for _, m := range cellRE.FindAllStringSubmatch(body, -1) {
		got, _ := strconv.ParseFloat(m[1], 64)
		ref, _ := strconv.ParseFloat(m[2], 64)
		sum += math.Abs(got - ref)
		cells++
	}
	if cells == 0 {
		return 0, 0, fmt.Errorf("Table 1 has no measured|paper cells")
	}
	return sum / float64(cells), cells, nil
}

// singleRun is what the harness reads back from one report.Single block.
type singleRun struct {
	Header string // "run Pmake ncpu=4 seed=..."
	// Exact holds the lines that are trajectory-exact under sampling
	// (time split, sync stalls, kernel ops), in order.
	Exact []string
	// Misses is the total bus-miss count: exact for a full run, the
	// extrapolated estimate for a sampled one; StdErr is the estimate's
	// standard error (0 for a full run).
	Misses, StdErr float64
	Sampled        bool
}

var (
	missesFullRE    = regexp.MustCompile(`^bus misses: (\d+) \(os \d+\)`)
	missesSampledRE = regexp.MustCompile(`^bus misses: (\d+) ± (\d+) \(os`)
)

// parseSingles splits the output of `charos -exp report` into its
// per-run blocks.
func parseSingles(text string) []singleRun {
	var out []singleRun
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "run ") {
			out = append(out, singleRun{Header: line})
			continue
		}
		if len(out) == 0 {
			continue
		}
		r := &out[len(out)-1]
		switch {
		case strings.HasPrefix(line, "time split:"),
			strings.HasPrefix(line, "sync stalls:"),
			strings.HasPrefix(line, "kernel ops:"):
			r.Exact = append(r.Exact, line)
		case strings.HasPrefix(line, "bus misses:"):
			if m := missesSampledRE.FindStringSubmatch(line); m != nil {
				r.Misses, _ = strconv.ParseFloat(m[1], 64)
				r.StdErr, _ = strconv.ParseFloat(m[2], 64)
				r.Sampled = true
			} else if m := missesFullRE.FindStringSubmatch(line); m != nil {
				r.Misses, _ = strconv.ParseFloat(m[1], 64)
			}
		}
	}
	return out
}

// sampleErrPct compares a sampled report against the full-window report
// of the same configs: the exact lines must match run for run, and the
// result is the largest |estimate − full| ÷ full over the runs, in
// percent.
func sampleErrPct(sampled, full string) (float64, error) {
	s, f := parseSingles(sampled), parseSingles(full)
	if len(s) == 0 || len(s) != len(f) {
		return 0, fmt.Errorf("sampled report has %d runs, full report %d", len(s), len(f))
	}
	var worst float64
	for i := range s {
		if !s[i].Sampled || f[i].Sampled {
			return 0, fmt.Errorf("run %d: expected a sampled report beside a full one", i)
		}
		if strings.Join(s[i].Exact, "\n") != strings.Join(f[i].Exact, "\n") {
			return 0, fmt.Errorf("run %d (%s): trajectory-exact lines differ from the full run", i, s[i].Header)
		}
		if f[i].Misses == 0 {
			return 0, fmt.Errorf("run %d: full run has no bus misses", i)
		}
		if e := 100 * math.Abs(s[i].Misses-f[i].Misses) / f[i].Misses; e > worst {
			worst = e
		}
	}
	return worst, nil
}
