package report

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/workload"
)

// TestCanceledThenRerunByteIdentical is the recovery oracle: a canceled
// run leaves no residue, so rerunning the same config afterwards renders
// byte-identically to a run that was never preceded by a cancellation.
func TestCanceledThenRerunByteIdentical(t *testing.T) {
	cfg := core.Config{Workload: workload.Pmake, Window: 400_000, Warmup: 200_000, Seed: 11}
	want := Single(core.Run(cfg))
	if want == "" {
		t.Fatal("empty report")
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	big := cfg
	big.Window = 200_000_000
	if _, err := core.RunContext(ctx, big); !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("big run under a 1ms deadline returned %v, want cancellation", err)
	}

	if got := Single(core.Run(cfg)); got != want {
		t.Errorf("rerun after a cancellation diverged:\n--- before\n%s\n--- after\n%s", want, got)
	}
}

// TestExperimentRunCanceled: an entry's batch under a canceled context
// returns the first run's structured cancellation, not a batch.
func TestExperimentRunCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e, _ := Lookup("report")
	b, err := e.Run(ctx, core.Config{Window: 400_000, Warmup: 200_000}, runner.Options{Parallelism: 1})
	if b != nil || err == nil {
		t.Fatalf("canceled Experiment.Run returned (%v, %v)", b, err)
	}
	if !errors.Is(err, core.ErrCanceled) {
		t.Errorf("error %v does not match core.ErrCanceled", err)
	}
	var ce *core.CanceledError
	if !errors.As(err, &ce) {
		t.Errorf("error %T carries no provenance", err)
	}
}
