// Package monitor models the hardware monitor of Section 2.1: a recorder of
// the physical address, originating CPU and 60 ns timestamp of every bus
// transaction, plus the escape-reference encoding of Section 2.2 that the
// instrumented kernel uses to smuggle events (OS entries and exits, process
// identity, TLB changes, routine boundaries, ...) into the address trace as
// uncached byte reads from odd physical addresses.
//
// The real monitor's 2M-transaction SRAM buffer and the master process that
// suspended the workload to dump it are not modelled: a dump takes no
// simulated time here, so it would measure nothing, and the escapes it
// added were the one thing that made a buffered run differ from a
// streaming one. The recorder is unbounded instead, and never perturbs the
// machine.
package monitor

import (
	"repro/internal/bus"
)

// Monitor records every transaction offered to it, in arrival order. The
// simulator attaches it to the bus at trace start, so warmup traffic is
// never recorded.
type Monitor struct {
	trace []bus.Txn
}

// Record implements bus.Recorder.
func (m *Monitor) Record(t bus.Txn) { m.trace = append(m.trace, t) }

// Trace returns the recorded transactions in arrival order. The slice is
// the monitor's own; callers must not modify it.
func (m *Monitor) Trace() []bus.Txn { return m.trace }

var _ bus.Recorder = (*Monitor)(nil)

// Discard is a bus.Recorder that keeps nothing (used for runs where only
// kernel counters are needed, e.g. the Figure 11 CPU-count sweeps).
type Discard struct{ Total int64 }

// Record implements bus.Recorder.
func (d *Discard) Record(bus.Txn) { d.Total++ }

var _ bus.Recorder = (*Discard)(nil)
