package core

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/bus"
	"repro/internal/kernel"
	"repro/internal/kmem"
	"repro/internal/trace"
	"repro/internal/workload"
)

// tickLog records the Ticks of every transaction it is fed and panics
// with boom at the transaction numbered panicAt (never when zero).
type tickLog struct {
	ticks   []uint64
	panicAt int
	boom    any
}

func (r *tickLog) Record(t bus.Txn) {
	r.ticks = append(r.ticks, t.Ticks)
	if len(r.ticks) == r.panicAt {
		panic(r.boom)
	}
}

// waitGoroutines fails t unless the goroutine count falls back to base.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Errorf("goroutines grew from %d to %d", base, runtime.NumGoroutine())
}

func TestPipeFeedsInOrder(t *testing.T) {
	rec := &tickLog{}
	p := newPipe(context.Background(), rec)
	const n = 3*pipeChunks*pipeChunkLen + 17
	for i := 0; i < n; i++ {
		p.Record(bus.Txn{Ticks: uint64(i)})
		if i == pipeChunkLen+5 {
			// A barrier mid-chunk: everything recorded so far is fed.
			p.sync()
			if len(rec.ticks) != i+1 {
				t.Fatalf("after sync the consumer has %d of %d transactions", len(rec.ticks), i+1)
			}
		}
	}
	p.close()
	if len(rec.ticks) != n {
		t.Fatalf("consumer fed %d of %d transactions", len(rec.ticks), n)
	}
	for i, tk := range rec.ticks {
		if tk != uint64(i) {
			t.Fatalf("transaction %d fed out of order: ticks %d", i, tk)
		}
	}
}

// TestPipeRepanicsOnProducer: a recorder panic on the consumer goroutine
// comes back on the producer's, with the original value, and the consumer
// is reaped.
func TestPipeRepanicsOnProducer(t *testing.T) {
	base := runtime.NumGoroutine()
	boom := errors.New("classifier bug")
	got := func() (r any) {
		defer func() { r = recover() }()
		p := newPipe(context.Background(), &tickLog{panicAt: pipeChunkLen + 3, boom: boom})
		defer p.close()
		for i := 0; i < 10*pipeChunkLen; i++ {
			p.Record(bus.Txn{Ticks: uint64(i)})
		}
		p.sync()
		return nil
	}()
	if got != boom {
		t.Fatalf("producer recovered %v, want the recorder's %v", got, boom)
	}
	waitGoroutines(t, base)
}

// TestCanceledStreamingRunReapsPipe cancels a streaming run mid-window:
// the run returns *CanceledError and leaves no goroutine behind.
func TestCanceledStreamingRunReapsPipe(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := Config{Workload: workload.Pmake, Seed: 5, Window: 200_000_000, Warmup: 0}
	watched := make(chan struct{})
	_, err := RunMonitored(ctx, cfg, func(progress func() arch.Cycles) {
		go func() {
			defer close(watched)
			for progress() < 500_000 {
				time.Sleep(100 * time.Microsecond)
			}
			cancel()
		}()
	})
	<-watched
	var ce *CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("error is %T (%v), want *CanceledError", err, err)
	}
	waitGoroutines(t, base)
}

// countTxns counts what it is fed, allocating nothing.
type countTxns struct{ n int }

func (c *countTxns) Record(bus.Txn) { c.n++ }

// TestPipeRecordAllocatesNothing: steady-state recording allocates on
// neither side of the pipe (AllocsPerRun counts the whole process).
func TestPipeRecordAllocatesNothing(t *testing.T) {
	p := newPipe(context.Background(), &countTxns{})
	defer p.close()
	avg := testing.AllocsPerRun(3, func() {
		for i := 0; i < 10*pipeChunkLen; i++ {
			p.Record(bus.Txn{Ticks: uint64(i)})
		}
	})
	if avg != 0 {
		t.Errorf("10 chunks of Record allocate %.1f objects; want 0", avg)
	}
}

// TestClassifierPanicReachesCaller: a classifier that panics mid-run (one
// built for fewer CPUs than the machine has indexes out of range) panics
// the run on its caller's goroutine, and the consumer is reaped.
func TestClassifierPanicReachesCaller(t *testing.T) {
	newClassifier = func(kt *kernel.KText, l *kmem.Layout, n int) *trace.Classifier {
		return trace.NewClassifier(kt, l, 1)
	}
	defer func() { newClassifier = trace.NewClassifier }()
	base := runtime.NumGoroutine()
	got := func() (r any) {
		defer func() { r = recover() }()
		Run(Config{Workload: workload.Pmake, Seed: 3, Window: 1_000_000})
		return nil
	}()
	if _, ok := got.(runtime.Error); !ok {
		t.Fatalf("run recovered %v (%T), want the classifier's runtime error", got, got)
	}
	waitGoroutines(t, base)
}
