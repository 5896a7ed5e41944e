package core

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/kmem"
	"repro/internal/sample"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestFinishedRunHoldsNoRunState pins what a returned Characterization
// keeps: the simulator has no edge left to the classifier (Stream, the
// sampled path's OnMeasure), the bus no snoop presence filter, the checker
// keeps its counts but no shadow pages, and the buffered run's trace is
// intact. The classifier must then
// be garbage — a finalizer on it fires — which also proves the bus
// recorder was detached.
func TestFinishedRunHoldsNoRunState(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"streaming", Config{}},
		{"sample", Config{Sample: sample.Schedule{Warmup: 20_000, Length: 40_000, Period: 200_000}}},
		{"check", Config{Check: true}},
		{"buffered", Config{Buffered: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			collected := make(chan struct{})
			newClassifier = func(kt *kernel.KText, l *kmem.Layout, n int) *trace.Classifier {
				cl := trace.NewClassifier(kt, l, n)
				runtime.SetFinalizer(cl, func(*trace.Classifier) { close(collected) })
				return cl
			}
			defer func() { newClassifier = trace.NewClassifier }()
			cfg := tc.cfg
			cfg.Workload, cfg.Window, cfg.Seed = workload.Pmake, 1_000_000, 3
			ch := Run(cfg)
			s := ch.Sim
			if s.Stream != nil || s.OnMeasure != nil {
				t.Errorf("finished run still wired to its classifier: Stream %v, OnMeasure set %t",
					s.Stream != nil, s.OnMeasure != nil)
			}
			// The filter is unexported; reflect reads it as it reads the
			// checker's pages below.
			if !reflect.ValueOf(s.Bus).Elem().FieldByName("pres").IsNil() {
				t.Error("the bus still holds its presence filter after the run")
			}
			if cfg.Check {
				if s.Chk == nil || s.Chk.Checks == 0 {
					t.Fatal("checked run lost its checker or its check count")
				}
				// The shadow page table is unexported; reflect reads it
				// without widening the checker's API.
				if !reflect.ValueOf(s.Chk).Elem().FieldByName("pages").IsNil() {
					t.Error("checker still holds its shadow pages after the run")
				}
			}
			if cfg.Buffered {
				replay := trace.NewClassifier(s.K.T, s.K.L, ch.Cfg.NCPU)
				for _, tx := range s.Mon.Trace() {
					replay.Feed(tx)
				}
				if !reflect.DeepEqual(replay.Finish(), ch.Trace) {
					t.Error("the kept monitor trace no longer replays to the run's result")
				}
			}
			for i := 0; i < 50; i++ {
				runtime.GC()
				select {
				case <-collected:
					runtime.KeepAlive(ch)
					return
				case <-time.After(20 * time.Millisecond):
				}
			}
			t.Error("the classifier is still reachable from the finished run")
			runtime.KeepAlive(ch)
		})
	}
}
