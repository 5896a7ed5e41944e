package core_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/machineflag"
	"repro/internal/monitor"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/workload"
)

// allDigests pins the SHA-256 of report.All for every default-mode cell of
// TestDifferential, keyed machine/seed. The oracles only prove the modes
// agree with each other; the pin proves the default itself did not move.
var allDigests = map[string]string{
	"zero/seed5":   "ed09610d0aff64426a164afad80544ea69167786887d2e95077a78f0737fe3cc",
	"zero/seed11":  "7eb8943ebd8528bb1688acd0e0e4563d424dd3a31cba361d3e4612add90e3d00",
	"4d380/seed5":  "d6aad7fd3221f751939e0347268cfa05c6c89598571d2400c6d3423553095b8f",
	"4d380/seed11": "60e19a336671a76e97de2d1ddb5bb5ef1332b590793c47c5fad593ec9e481ab5",
	"2way/seed5":   "226f9d7edb6c282e5eea342ad3c723d755b50cd0d7f6d8d614e79c23bf8e40cd",
	"2way/seed11":  "32774cdf01a61e75707ae6095383c15ed24f02979090d70dd9b5bea92bb321e1",
}

// diffMode is one way of running a configuration that must not change what
// the default mode reports.
type diffMode struct {
	name string
	// sameHash: the mode leaves Config.Hash unchanged, so each run's
	// report.Single must match whole, config line included.
	sameHash bool
	// checked: the invariant checker is attached and must stay clean.
	checked bool
	apply   func(core.Config) core.Config
}

func buffered(c core.Config) core.Config { c.Buffered = true; return c }
func checked(c core.Config) core.Config  { c.Check = true; return c }

var diffModes = []diffMode{
	{name: "reference", sameHash: true, apply: core.Reference},
	{name: "buffered", apply: buffered},
	{name: "checked", checked: true, apply: checked},
	{name: "checked+reference", checked: true,
		apply: func(c core.Config) core.Config { return core.Reference(checked(c)) }},
}

// TestDifferential is every pipeline oracle in one table. Each cell runs
// the three workloads in one mode and must match the default streaming,
// fast-path run of the same machine and seed: the same rendered tables and
// per-run reports, the same final machine state, bus statistics and
// per-CPU time. The modes are:
//
//   - reference: way-loop caches, full snoop broadcasts with no presence
//     filter and the rescan-every-step scheduler, against the fast path;
//   - buffered: the monitor records the trace and the classifier replays it
//     after the run, against inline classification;
//   - checked: every reference goes through the bus and the invariant
//     checker, against the CPU-side hit filter;
//   - checked+reference: the checker's probe of the generic caches;
//   - an explicit arch.Default() machine, against the zero Machine.
//
// The machines cover the checker's direct-index probe (one-way L1+L2, the
// default), its way loop (two-way) and eight CPUs (4d380).
func TestDifferential(t *testing.T) {
	m380, err := machineflag.Preset("4d380")
	if err != nil {
		t.Fatal(err)
	}
	twoWay := arch.Default()
	twoWay.DCacheL1Assoc, twoWay.DCacheL2Assoc = 2, 2
	machines := []struct {
		name string
		m    arch.Machine
	}{{"zero", arch.Machine{}}, {"4d380", m380}, {"2way", twoWay}}
	for _, mc := range machines {
		for _, seed := range []int64{5, 11} {
			key := fmt.Sprintf("%s/seed%d", mc.name, seed)
			t.Run(key, func(t *testing.T) {
				base := core.Config{Machine: mc.m, Seed: seed, Window: 600_000, Warmup: 300_000}
				want := runSet(base)
				all := report.All(want)
				sum := sha256.Sum256([]byte(all))
				if got := hex.EncodeToString(sum[:]); got != allDigests[key] {
					t.Errorf("report.All digest %s, pinned %q", got, allDigests[key])
				}
				modes := diffModes[:len(diffModes):len(diffModes)]
				if mc.m == (arch.Machine{}) {
					modes = append(modes, diffMode{name: "explicit-default", sameHash: true,
						apply: func(c core.Config) core.Config { c.Machine = arch.Default(); return c }})
				}
				for _, md := range modes {
					t.Run(md.name, func(t *testing.T) {
						got := runSet(md.apply(base))
						diffText(t, "report.All", all, report.All(got))
						for i, ch := range runs(got) {
							sameRun(t, runs(want)[i], ch, md.sameHash)
							if md.checked {
								checkClean(t, ch)
							}
						}
					})
				}
			})
		}
	}
	// An 8-CPU Multpgm at an 11M window records 1.66M transactions, past
	// 75% of the real monitor's 2M buffer, where the paper's master process
	// would suspend the workload to dump it. The recorder must neither drop
	// nor perturb anything there.
	t.Run("buffered/8cpu-11M", func(t *testing.T) {
		cfg := core.Config{Workload: workload.Multpgm, NCPU: 8, Seed: 1, Window: 11_000_000, Warmup: 100_000}
		sameRun(t, core.Run(cfg), core.Run(buffered(cfg)), false)
	})
}

// TestSinksMatchBuffered: a sink fed by the streaming pipe sees the stream
// the buffered replay feeds it, so the §6 policy ladder returns the same
// results either way, and the streaming run stores no trace.
func TestSinksMatchBuffered(t *testing.T) {
	twoWay := arch.Default()
	twoWay.DCacheL1Assoc, twoWay.DCacheL2Assoc = 2, 2
	for _, m := range []arch.Machine{{}, twoWay} {
		for _, seed := range []int64{5, 11} {
			cfg := core.Config{Workload: workload.Multpgm, Machine: m, NCPU: 8, Seed: seed,
				Window: 600_000, Warmup: 300_000}
			ladder := func(c core.Config) ([]cluster.Result, *core.Characterization, int64) {
				study := cluster.NewStudy(c.Canonical().Machine, 2)
				var n monitor.Discard
				ch, err := core.RunMonitored(context.Background(), c, nil, study, &n)
				if err != nil {
					t.Fatal(err)
				}
				return study.Results(), ch, n.Total
			}
			got, ch, n := ladder(cfg)
			want, bch, bn := ladder(buffered(cfg))
			if ch.Sim.Mon != nil {
				t.Errorf("machine %+v seed %d: the streaming run built a monitor", m, seed)
			}
			if recorded := int64(len(bch.Sim.Mon.Trace())); n != recorded || bn != recorded {
				t.Errorf("machine %+v seed %d: sinks fed %d (streaming) and %d (buffered) of %d recorded transactions",
					m, seed, n, bn, recorded)
			}
			if got[0].Misses == 0 || !reflect.DeepEqual(got, want) {
				t.Errorf("machine %+v seed %d: streaming ladder\n%+v\nbuffered ladder\n%+v", m, seed, got, want)
			}
		}
	}
}

func runSet(cfg core.Config) *report.Set {
	return report.RunSetParallel(cfg, runner.Options{Parallelism: 8})
}

func runs(s *report.Set) []*core.Characterization {
	return []*core.Characterization{s.Pmake, s.Multpgm, s.Oracle}
}

// sameRun asserts that got took the same trajectory as want and reports it
// identically. Unless sameHash, the config line (the hash, which names the
// mode) is left out of the report.Single comparison.
func sameRun(t *testing.T, want, got *core.Characterization, sameHash bool) {
	t.Helper()
	what := want.Cfg.Workload.String()
	if a, b := want.Sim.StateHash(), got.Sim.StateHash(); a != b {
		t.Errorf("%s: machine state %#x, want %#x", what, b, a)
	}
	if a, b := want.Sim.Bus.Stats, got.Sim.Bus.Stats; a != b {
		t.Errorf("%s: bus stats %+v, want %+v", what, b, a)
	}
	for i, c := range want.Sim.CPUs {
		g := got.Sim.CPUs[i]
		if c.Time != g.Time || c.Stall != g.Stall || c.L2Stall != g.L2Stall {
			t.Errorf("%s: cpu %d time/stall/l2stall %v %v %v, want %v %v %v",
				what, i, g.Time, g.Stall, g.L2Stall, c.Time, c.Stall, c.L2Stall)
		}
	}
	a, b := report.Single(want), report.Single(got)
	if !sameHash {
		a, b = dropConfigLine(a), dropConfigLine(b)
	}
	diffText(t, what+" report.Single", a, b)
}

func dropConfigLine(s string) string {
	lines := strings.Split(s, "\n")
	return strings.Join(append(lines[:1:1], lines[2:]...), "\n")
}

// checkClean asserts a checked run found no violation and really checked.
func checkClean(t *testing.T, ch *core.Characterization) {
	t.Helper()
	chk := ch.Sim.Chk
	if chk == nil {
		t.Fatalf("%s: a Check config attached no checker", ch.Cfg.Workload)
	}
	if chk.Violations != 0 {
		t.Errorf("%s: %d violations, first: %v", ch.Cfg.Workload, chk.Violations, ch.CheckErrors[0])
	}
	if chk.Checks < 100_000 {
		t.Errorf("%s: only %d invariant evaluations ran; checker not wired in?", ch.Cfg.Workload, chk.Checks)
	}
}

// diffText fails the test at the first line where got diverges from want.
func diffText(t *testing.T, what, want, got string) {
	t.Helper()
	if want == got {
		return
	}
	lw, lg := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(lw) && i < len(lg); i++ {
		if lw[i] != lg[i] {
			t.Errorf("%s diverges at line %d:\n  got:  %s\n  want: %s", what, i+1, lg[i], lw[i])
			return
		}
	}
	t.Errorf("%s: %d lines, want %d", what, len(lg), len(lw))
}
