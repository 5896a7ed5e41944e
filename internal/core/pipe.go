package core

import (
	"context"
	"runtime/pprof"
	"sync/atomic"
	"time"

	"repro/internal/bus"
)

// The streaming classifier's chunk pipe: a bounded single-producer,
// single-consumer ring between the simulating goroutine (the bus
// recorder) and one consumer goroutine that feeds every transaction, in
// order, to the classifier and the run's sinks. Each is a pure function of
// the stream, so the reports are byte-identical to feeding it inline; the
// simulator only pays for copying a transaction into a chunk.
const (
	pipeChunks   = 4
	pipeChunkLen = 4096
)

type pipe struct {
	cur []bus.Txn // the chunk the producer is filling
	// full and free can each hold the whole ring (a nil chunk included),
	// so no send blocks: the producer waits only in its receives.
	full chan []bus.Txn // producer → consumer; a nil chunk asks for an ack
	free chan []bus.Txn // consumer → producer
	ack  chan struct{}
	done chan struct{} // closed when the consumer has exited
	// failed holds the consumer's recovered panic until the producer
	// re-raises it at its next handoff.
	failed atomic.Pointer[any]
	// wait is the time the producer spent blocked on the consumer.
	wait time.Duration
}

// newPipe starts the consumer goroutine feeding recs. The caller must
// close the pipe on every exit path.
func newPipe(ctx context.Context, recs ...bus.Recorder) *pipe {
	p := &pipe{
		full: make(chan []bus.Txn, pipeChunks),
		free: make(chan []bus.Txn, pipeChunks),
		ack:  make(chan struct{}),
		done: make(chan struct{}),
	}
	ring := make([]bus.Txn, pipeChunks*pipeChunkLen)
	for i := 0; i < pipeChunks; i++ {
		p.free <- ring[i*pipeChunkLen : i*pipeChunkLen : (i+1)*pipeChunkLen]
	}
	p.cur = <-p.free
	go pprof.Do(ctx, pprof.Labels("stage", "classify"), func(context.Context) { p.consume(recs) })
	return p
}

// consume feeds every chunk to recs. After one panics it keeps returning
// chunks unread, so the producer never blocks on a dead consumer.
func (p *pipe) consume(recs []bus.Recorder) {
	defer close(p.done)
	dead := false
	for c := range p.full {
		if c == nil {
			p.ack <- struct{}{}
			continue
		}
		if !dead {
			dead = p.feed(recs, c)
		}
		p.free <- c[:0]
	}
}

func (p *pipe) feed(recs []bus.Recorder, c []bus.Txn) (panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			v := r // only a panic pays for the heap copy
			p.failed.Store(&v)
			panicked = true
		}
	}()
	feedAll(recs, c)
	return false
}

// feedAll feeds c to each recorder in turn: a chunk, or a recorded trace.
func feedAll(recs []bus.Recorder, c []bus.Txn) {
	for _, rec := range recs {
		for _, t := range c {
			rec.Record(t)
		}
	}
}

// Record queues t for the consumer; a full chunk is handed over.
func (p *pipe) Record(t bus.Txn) {
	p.cur = append(p.cur, t)
	if len(p.cur) == pipeChunkLen {
		p.full <- p.cur
		select {
		case p.cur = <-p.free:
		default:
			t0 := time.Now()
			p.cur = <-p.free
			p.wait += time.Since(t0)
		}
		p.rethrow()
	}
}

// sync hands over the partial chunk and returns once the consumer has
// fed every queued transaction: rec's state is then the producer's to
// read.
func (p *pipe) sync() {
	t0 := time.Now()
	if len(p.cur) > 0 {
		p.full <- p.cur
		p.cur = <-p.free
	}
	p.full <- nil
	<-p.ack
	p.wait += time.Since(t0)
	p.rethrow()
}

// close drains the queue and reaps the consumer, then re-raises a
// consumer panic not yet re-raised. It is idempotent.
func (p *pipe) close() {
	if p.full == nil {
		return
	}
	t0 := time.Now()
	if len(p.cur) > 0 {
		p.full <- p.cur
	}
	close(p.full)
	<-p.done
	p.full = nil
	p.wait += time.Since(t0)
	p.rethrow()
}

// rethrow re-raises the consumer's panic, once, on the producer.
func (p *pipe) rethrow() {
	if r := p.failed.Swap(nil); r != nil {
		panic(*r)
	}
}
