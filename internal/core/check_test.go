package core

import (
	"fmt"
	"testing"

	"repro/internal/inject"
	"repro/internal/workload"
)

// checkWindow keeps the self-validation runs fast; each still covers
// hundreds of thousands of checked references.
const checkWindow = 1_200_000

// TestCheckerCleanOnAllWorkloads runs every seed workload with the
// invariant checker on: shadow memory, coherence and lock discipline must
// all hold.
func TestCheckerCleanOnAllWorkloads(t *testing.T) {
	for _, kind := range []workload.Kind{workload.Pmake, workload.Multpgm, workload.Oracle} {
		t.Run(kind.String(), func(t *testing.T) {
			ch := Run(Config{Workload: kind, Window: checkWindow,
				Warmup: checkWindow / 2, Seed: 5, Check: true})
			chk := ch.Sim.Chk
			if chk == nil {
				t.Fatal("Check config did not attach a checker")
			}
			if chk.Violations != 0 {
				t.Fatalf("%d violations, first: %v", chk.Violations, ch.CheckErrors[0])
			}
			if chk.Checks < 100_000 {
				t.Errorf("only %d invariant evaluations ran; checker not wired in?", chk.Checks)
			}
		})
	}
}

// fingerprint captures counters a fault injection should perturb.
func fingerprint(ch *Characterization) string {
	return fmt.Sprintf("reads=%d readex=%d upgrades=%d wb=%d nonidle=%d ctx=%d migr=%d",
		ch.Sim.Bus.Stats.Reads, ch.Sim.Bus.Stats.ReadExs, ch.Sim.Bus.Stats.Upgrades,
		ch.Sim.Bus.Stats.WriteBacks, ch.NonIdle(), ch.Ops.CtxSwitches, ch.Ops.Migrations)
}

// TestInjectionModesStayCorrect runs Pmake under each fault mode: the
// checker must stay clean, the injector must actually fire, and at least
// one performance counter must move relative to the clean run.
func TestInjectionModesStayCorrect(t *testing.T) {
	clean := Run(Config{Workload: workload.Pmake, Window: checkWindow,
		Warmup: checkWindow / 2, Seed: 5, Check: true})
	cleanFP := fingerprint(clean)
	for _, mode := range []string{"evict", "jitter", "intr", "migrate", "all"} {
		t.Run(mode, func(t *testing.T) {
			icfg, err := inject.Preset(mode)
			if err != nil {
				t.Fatal(err)
			}
			ch := Run(Config{Workload: workload.Pmake, Window: checkWindow,
				Warmup: checkWindow / 2, Seed: 5, Check: true, Inject: &icfg})
			if v := ch.Sim.Chk.Violations; v != 0 {
				t.Fatalf("mode %s: %d violations, first: %v", mode, v, ch.CheckErrors[0])
			}
			st := ch.Sim.Inj.Stats
			fired := st.Evictions + st.IFlushes + st.JitteredTxns + st.ExtraInterrupts + st.ForcedMigrations
			if fired == 0 {
				t.Fatalf("mode %s delivered no faults", mode)
			}
			if fp := fingerprint(ch); fp == cleanFP {
				t.Errorf("mode %s did not perturb any counter: %s", mode, fp)
			}
		})
	}
}

// TestInjectionIsDeterministic replays one injected run: same seeds, same
// faults, same counters.
func TestInjectionIsDeterministic(t *testing.T) {
	run := func() (string, inject.Stats) {
		icfg, _ := inject.Preset("all")
		ch := Run(Config{Workload: workload.Multpgm, Window: checkWindow,
			Warmup: checkWindow / 2, Seed: 7, Check: true, Inject: &icfg})
		return fingerprint(ch), ch.Sim.Inj.Stats
	}
	fpA, stA := run()
	fpB, stB := run()
	if fpA != fpB {
		t.Errorf("injected run not reproducible:\n%s\n%s", fpA, fpB)
	}
	if stA != stB {
		t.Errorf("fault delivery not reproducible:\n%+v\n%+v", stA, stB)
	}
}

// TestCheckCountsPinned pins how many invariant evaluations one small
// seeded run of each workload performs. The counts were taken at the commit
// before the checker's batched line probe, so a change that makes the
// checker cheaper by evaluating less fails here.
func TestCheckCountsPinned(t *testing.T) {
	for kind, want := range map[workload.Kind]int64{
		workload.Pmake:   129_217,
		workload.Multpgm: 381_314,
		workload.Oracle:  379_252,
	} {
		ch := Run(Config{Workload: kind, Window: 600_000, Warmup: 300_000, Seed: 5, Check: true})
		if got := ch.Sim.Chk.Checks; got != want {
			t.Errorf("%s: %d checks, want %d", kind, got, want)
		}
		if v := ch.Sim.Chk.Violations; v != 0 {
			t.Errorf("%s: %d violations, first: %v", kind, v, ch.CheckErrors[0])
		}
	}
}
