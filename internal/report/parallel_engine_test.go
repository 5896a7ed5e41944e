package report

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/machineflag"
	"repro/internal/runner"
)

// workerCounts is the fuzz grid: the interesting small counts plus the
// host's CPU count, deduplicated, serial dropped (SimWorkers 1 is the
// serial scheduler — nothing to compare).
func workerCounts() []int {
	counts := []int{2, 4, runtime.NumCPU()}
	seen := map[int]bool{}
	var out []int
	for _, w := range counts {
		if w >= 2 && !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	return out
}

// TestParallelEngineByteIdentical is the conservative parallel engine's
// contract: with SimWorkers > 1 the speculation/commit scheduler must
// consume exactly the serial event sequence, so every table and figure
// renders byte-for-byte identically to the serial engine — across
// seeds, machine presets (including the 8-CPU 4d380) and worker counts.
// The invariant checker stays off on purpose: Check forces the serial
// scheduler, which would make the comparison vacuous; the engagement
// assertion below guards against that kind of silent no-op.
func TestParallelEngineByteIdentical(t *testing.T) {
	cases := []struct {
		preset string
		seeds  []int64
	}{
		{"4d340", []int64{3, 11}},
		{"4d380", []int64{5}},
	}
	for _, c := range cases {
		m, err := machineflag.Preset(c.preset)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range c.seeds {
			cfg := core.Config{Machine: m, Window: 500_000, Warmup: 250_000, Seed: seed}
			serial := All(RunSetParallel(cfg, runner.Options{}))
			for _, w := range workerCounts() {
				pcfg := cfg
				pcfg.SimWorkers = w
				set := RunSetParallel(pcfg, runner.Options{})
				var committed int64
				for _, ch := range []*core.Characterization{set.Pmake, set.Multpgm, set.Oracle} {
					if got := ch.Sim.SimWorkers(); got < 2 {
						t.Fatalf("%s seed %d workers %d: engine did not engage (SimWorkers() = %d)",
							c.preset, seed, w, got)
					}
					committed += ch.Sim.SpecStats().CommittedSteps
				}
				if committed == 0 {
					t.Errorf("%s seed %d workers %d: no speculated step was ever committed — the comparison is vacuous",
						c.preset, seed, w)
				}
				diffLines(t, fmt.Sprintf("%s seed %d workers %d report", c.preset, seed, w),
					serial, All(set))
			}
		}
	}
}
