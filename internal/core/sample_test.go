package core

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/sample"
	"repro/internal/trace"
	"repro/internal/workload"
)

// sampleSchedule is the validated reference schedule for the accuracy
// tests: 27 samples over the default 12M-cycle window, each a 60K-cycle
// measured interval 30K cycles into its period, ~14% of the window
// measured. The period is deliberately not a round multiple of
// the machine's periodic behavior (clock ticks, scheduler quanta) —
// round periods alias with them and bias the sample.
const sampleSchedule = "30K:60K:430K"

// sampleTolerance asserts one class cell of a sampled estimate against
// the full run's exact count: the absolute error must stay within 1% of
// the run's total misses plus 4 standard errors. Calibrated against all
// three workloads at the default window, where the worst cell sits at
// 2.4 standard errors past the floor.
func sampleTolerance(t *testing.T, name string, got, want, stderr, fullTotal float64) {
	t.Helper()
	tol := 0.01*fullTotal + 4*stderr
	if diff := math.Abs(got - want); diff > tol {
		t.Errorf("%s: sampled %.0f vs full %.0f — |diff| %.0f exceeds tolerance %.0f (stderr %.0f)",
			name, got, want, diff, tol, stderr)
	}
}

// TestSampledMatchesFullRun is the accuracy gate of the interval
// estimate: for each workload at the default 12M-cycle window, a sampled
// run must (a) be the unsampled run — equal architectural state hashes,
// time split, kernel counters and whole-window trace result — and
// (b) estimate every per-class miss count within the documented
// tolerance.
func TestSampledMatchesFullRun(t *testing.T) {
	sched, err := sample.Parse(sampleSchedule)
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range []workload.Kind{workload.Pmake, workload.Multpgm, workload.Oracle} {
		t.Run(wl.String(), func(t *testing.T) {
			full := Run(Config{Workload: wl, Window: arch.DefaultWindow})
			samp := Run(Config{Workload: wl, Window: arch.DefaultWindow, Sample: sched})
			if samp.Sampled == nil {
				t.Fatal("sampled run produced no estimate")
			}

			// Same run: the interval stops must not perturb the machine.
			if fh, sh := full.Sim.StateHash(), samp.Sim.StateHash(); fh != sh {
				t.Errorf("state hash diverged: full %x, sampled %x", fh, sh)
			}
			fu, fs, fi := full.TimeSplit()
			su, ss, si := samp.TimeSplit()
			if fu != su || fs != ss || fi != si {
				t.Errorf("time split diverged: full %v/%v/%v, sampled %v/%v/%v", fu, fs, fi, su, ss, si)
			}
			if full.Ops != samp.Ops {
				t.Errorf("kernel counters diverged:\nfull    %+v\nsampled %+v", full.Ops, samp.Ops)
			}
			if !reflect.DeepEqual(full.Trace, samp.Trace) {
				t.Errorf("whole-window trace result diverged: full total %d, sampled total %d",
					full.Trace.Total, samp.Trace.Total)
			}

			// Statistical agreement of the extrapolated class counts.
			var fullTotal int64
			for o := 0; o < 2; o++ {
				for i := 0; i < 2; i++ {
					for cl := trace.MissClass(0); cl < trace.NumClasses; cl++ {
						fullTotal += full.Trace.Counts[o][i][cl]
					}
				}
			}
			for o := 0; o < 2; o++ {
				for i := 0; i < 2; i++ {
					for cl := trace.MissClass(0); cl < trace.NumClasses; cl++ {
						name := [2]string{"app", "os"}[o] + "-" + [2]string{"d", "i"}[i] + "-" + cl.String()
						sampleTolerance(t, name,
							samp.Sampled.Total[o][i][cl],
							float64(full.Trace.Counts[o][i][cl]),
							samp.Sampled.StdErr[o][i][cl],
							float64(fullTotal))
					}
				}
			}
			total, _ := samp.Sampled.TotalAll()
			if rel := math.Abs(total-float64(fullTotal)) / float64(fullTotal); rel > 0.20 {
				t.Errorf("total misses: sampled %.0f vs full %d (%.1f%% off, cap 20%%)",
					total, fullTotal, 100*rel)
			}
		})
	}
}

// TestSampledTraceIsExact: sampling is a read-out of the one run, so a
// sampled run's whole-window results are the unsampled run's — the class
// counts, the total StallPct reads, the kernel counters — and when the
// intervals tile the window, Estimate.Measured (the sum of the per-interval
// tallies) is the exact count in every cell.
func TestSampledTraceIsExact(t *testing.T) {
	sched, err := sample.Parse("100K:200K:1M")
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range []workload.Kind{workload.Pmake, workload.Multpgm, workload.Oracle} {
		t.Run(wl.String(), func(t *testing.T) {
			cfg := Config{Workload: wl, Window: 4_000_000}
			full := Run(cfg)
			cfg.Sample = sched
			samp := Run(cfg)
			if full.Trace.Counts != samp.Trace.Counts || full.Trace.Total != samp.Trace.Total {
				t.Errorf("class counts diverged: full total %d, sampled total %d", full.Trace.Total, samp.Trace.Total)
			}
			fa, fo, fi := full.StallPct()
			sa, so, si := samp.StallPct()
			if fa != sa || fo != so || fi != si {
				t.Errorf("StallPct diverged: full %v/%v/%v, sampled %v/%v/%v", fa, fo, fi, sa, so, si)
			}
			if full.Ops != samp.Ops {
				t.Errorf("kernel counters diverged:\nfull    %+v\nsampled %+v", full.Ops, samp.Ops)
			}

			if got, want := samp.Sampled.Samples, sched.Samples(cfg.Window); got != want {
				t.Errorf("%d intervals tallied, schedule has %d", got, want)
			}

			// Intervals that tile the window: their tallies must add up
			// to the exact counts, cell for cell.
			cfg.Sample = sample.Schedule{Length: 500_000, Period: 500_000}
			tiled := Run(cfg)
			if tiled.Sampled.Samples != 8 {
				t.Fatalf("%d intervals tallied, want 8", tiled.Sampled.Samples)
			}
			if tiled.Sampled.Measured != sample.Counts(full.Trace.Counts) {
				t.Errorf("interval tallies do not sum to the exact counts:\nsum   %v\nexact %v",
					tiled.Sampled.Measured, full.Trace.Counts)
			}
		})
	}
}

// TestSampledRunUnderChecker: the checker checks every reference of every
// run, so a sampled checked run performs exactly the unsampled run's
// checks, with zero violations.
func TestSampledRunUnderChecker(t *testing.T) {
	sched, err := sample.Parse(sampleSchedule)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Workload: workload.Pmake, Window: 4_000_000, Check: true}
	want := Run(cfg).Sim.Chk.Checks
	cfg.Sample = sched
	ch := Run(cfg)
	if n := len(ch.CheckErrors); n > 0 {
		t.Fatalf("checker found %d violations in a sampled run, first: %v", n, ch.CheckErrors[0])
	}
	if got := ch.Sim.Chk.Checks; got != want {
		t.Errorf("sampled run performed %d checks, unsampled %d", got, want)
	}
}

// TestSampleHashIdentity: the canonical hash ignores a zero schedule —
// cached results from before the sampling refactor stay addressable —
// and distinguishes sampled configs from full ones and from each other.
func TestSampleHashIdentity(t *testing.T) {
	base := Config{Workload: workload.Multpgm, Window: 2_000_000, Seed: 5}
	s1, _ := sample.Parse("10K:20K:100K")
	s2, _ := sample.Parse("10K:20K:200K")
	a, b := base, base
	a.Sample, b.Sample = s1, s2
	if a.Hash() == base.Hash() || a.Hash() == b.Hash() {
		t.Error("sampling schedule not part of the canonical hash")
	}
}
