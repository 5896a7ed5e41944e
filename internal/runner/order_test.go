package runner_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/workload"
)

// TestLongestFirstKeepsSubmissionOrder: a pooled batch of mixed sizes
// starts its runs longest-first, yet its results and timing table stay in
// submission order and every run renders byte-identically to the serial
// batch's.
func TestLongestFirstKeepsSubmissionOrder(t *testing.T) {
	var cfgs []core.Config
	for i, n := range []int{2, 8, 4, 8} {
		cfgs = append(cfgs, core.Config{
			Workload: workload.Multpgm, NCPU: n, Seed: int64(31 + i),
			Window: 300_000, Warmup: 150_000,
		})
	}
	cfgs[0].Window = 900_000 // 2 × 1.35M: longer than the 4-CPU run
	ser, sb := runner.Experiments(cfgs, runner.Options{Parallelism: 1})
	par, pb := runner.Experiments(cfgs, runner.Options{Parallelism: 2})
	for i, c := range cfgs {
		if par[i].Err != nil || ser[i].Err != nil {
			t.Fatalf("run %d failed: %v / %v", i, ser[i].Err, par[i].Err)
		}
		if got := par[i].Ch.Cfg; got.NCPU != c.NCPU || got.Seed != c.Seed {
			t.Fatalf("slot %d holds the %d-CPU seed-%d run, want %d CPUs seed %d",
				i, got.NCPU, got.Seed, c.NCPU, c.Seed)
		}
		if s, p := report.Single(ser[i].Ch), report.Single(par[i].Ch); s != p {
			t.Errorf("run %d renders differently at -parallel 2:\n--- serial\n%s\n--- pooled\n%s", i, s, p)
		}
		if sb.Runs[i].Label != pb.Runs[i].Label {
			t.Errorf("timing row %d is %q pooled, %q serial", i, pb.Runs[i].Label, sb.Runs[i].Label)
		}
	}
}
