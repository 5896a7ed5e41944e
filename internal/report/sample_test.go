package report

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sample"
	"repro/internal/workload"
)

// TestUnsampledReportHasNoEstimate: with no schedule a run carries no
// estimate and its report never mentions sampling.
func TestUnsampledReportHasNoEstimate(t *testing.T) {
	ch := core.Run(core.Config{Workload: workload.Multpgm, Window: 2_000_000, Seed: 5})
	if ch.Sampled != nil {
		t.Fatal("unsampled run grew an estimate")
	}
	if strings.Contains(Single(ch), "sampling:") {
		t.Error("unsampled report mentions sampling")
	}
}

// TestSampledEstimatePinned pins the sampled report of each workload at
// the default window. The digests were
// taken at the commit before sampling became an interval tally over one
// detailed run, when the stretches between intervals were warmed without
// being tallied: the estimate must not have moved by a bit.
func TestSampledEstimatePinned(t *testing.T) {
	sched, err := sample.Parse("30K:60K:430K")
	if err != nil {
		t.Fatal(err)
	}
	for kind, want := range map[workload.Kind]string{
		workload.Pmake:   "a21d2156edbcc8649cd66291370ff0a7a3a3906abcb4a27b1411937b235eee36",
		workload.Multpgm: "5fcbcd6035c76f2b9a7d853b6afca16a25755f28f153f1cc9a2ccd728c0eacde",
		workload.Oracle:  "3d41e8b07e3d9ff3ff5be1ae01c00ccd5661f8aa5282d3acfef29e5d99e3f64a",
	} {
		ch := core.Run(core.Config{Workload: kind, Sample: sched})
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(Single(ch)))); got != want {
			t.Errorf("%s: report digest %s, want %s\n%s", kind, got, want, Single(ch))
		}
	}
}

// TestSampledReportRendersEstimate: a sampled run's report swaps the
// exact classification block for the extrapolated one — schedule line,
// sample count, and ±stderr error bars on every estimated quantity —
// while the exact whole-window lines (time split, sync stalls, kernel
// ops) render as always.
func TestSampledReportRendersEstimate(t *testing.T) {
	sched, err := sample.Parse("20K:40K:200K")
	if err != nil {
		t.Fatal(err)
	}
	ch := core.Run(core.Config{Workload: workload.Pmake, Window: 2_000_000, Sample: sched})
	got := Single(ch)
	for _, want := range []string{
		"sampling: 20K:40K:200K — 10 samples",
		"±",
		"miss classes (estimated whole-window counts ± stderr):",
		"time split:",
		"sync stalls:",
		"kernel ops:",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("sampled report missing %q:\n%s", want, got)
		}
	}
}
