package runner_test

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/runner"
)

// TestGeometryLabelsDistinct: every run of the geometry sweep has its own
// timing-table label, and a run on the measured machine's cache keeps the
// plain workload/ncpu/seed label.
func TestGeometryLabelsDistinct(t *testing.T) {
	e, _ := report.Lookup("geometry")
	seen := map[string]bool{}
	for _, c := range e.Runs(core.Config{Machine: arch.Default(), Seed: 1}) {
		label := runner.RunLabel(c.Canonical())
		if seen[label] {
			t.Errorf("two geometry runs are labelled %q", label)
		}
		seen[label] = true
	}
	if len(seen) < 2 || !seen["Pmake/ncpu4/seed1"] || !seen["Pmake/ncpu4/seed1/L2=512K/1w"] {
		t.Errorf("geometry labels %v, want Pmake/ncpu4/seed1 and Pmake/ncpu4/seed1/L2=512K/1w among them", seen)
	}
}
