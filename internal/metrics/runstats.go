// Per-run observability for the parallel experiment engine: wall-clock,
// simulated-cycle throughput and allocation counts per core.Run, plus the
// batch-level aggregate the CLIs print so a -parallel speedup is
// measurable rather than anecdotal.

package metrics

import (
	"fmt"
	"time"
)

// RunStats is the observability record of one experiment run.
type RunStats struct {
	// Label identifies the run (workload/ncpu/seed).
	Label string
	// Wall is the run's wall-clock time.
	Wall time.Duration
	// SimCycles is how many processor cycles the run simulated, summed
	// over the simulated CPUs (warmup included — it is paid for too).
	SimCycles int64
	// MCyclesPerSec is SimCycles per wall-clock second, in millions: the
	// simulator's throughput for this run.
	MCyclesPerSec float64
	// Allocs and AllocBytes are the run's heap allocation count and
	// volume. Go only accounts allocations process-wide, so they are
	// exact only for serial batches (parallelism 1) and zero otherwise;
	// BatchStats carries the process-wide totals either way.
	Allocs     uint64
	AllocBytes uint64
	// SimWorkers is the run's intra-run worker count: the conservative
	// parallel engine's goroutine count when it engaged, 1 when the run
	// executed on the serial scheduler.
	SimWorkers int
	// SpecPhases, SpecSteps and SpecCommitted mirror the parallel
	// engine's counters: speculation/commit rounds, virtual steps
	// speculated, and how many of those the merge consumed (the rest
	// were truncated and re-run serially). All zero for serial runs.
	SpecPhases    int64
	SpecSteps     int64
	SpecCommitted int64
	// BusTxns is the run's CPU-stalling bus transactions (everything but
	// write-backs) and Checks the invariant evaluations its checker made
	// (zero without -check): the event counts behind the wall-clock, so a
	// checked run's cost reads as ns per check and not only as a slowdown.
	BusTxns int64
	Checks  int64
	// ClassifyWait is the wall-clock the simulating goroutine spent
	// blocked on the streaming classifier's goroutine (zero when the run
	// streamed nothing): the part of Wall that classification still costs.
	ClassifyWait time.Duration
}

// Throughput fills MCyclesPerSec from Wall and SimCycles.
func (r *RunStats) Throughput() {
	if r.Wall > 0 {
		r.MCyclesPerSec = float64(r.SimCycles) / r.Wall.Seconds() / 1e6
	}
}

// HorizonBatch is the mean speculated steps per speculation phase — how
// deep the run-ahead horizon reached before each commit. Zero for serial
// runs.
func (r RunStats) HorizonBatch() float64 {
	if r.SpecPhases == 0 {
		return 0
	}
	return float64(r.SpecSteps) / float64(r.SpecPhases)
}

// BatchStats aggregates one parallel batch of runs.
type BatchStats struct {
	// Parallelism is the worker count the batch actually used.
	Parallelism int
	// Wall is the batch's end-to-end wall-clock time.
	Wall time.Duration
	// SerialWall is the sum of the per-run wall times — what a serial
	// execution of the same work would have cost.
	SerialWall time.Duration
	// Allocs and AllocBytes are process-wide allocation deltas across
	// the batch.
	Allocs     uint64
	AllocBytes uint64
	// Runs holds the per-run records in submission order.
	Runs []RunStats
	// Post is wall-clock spent after the runs on work no run's Wall
	// covers (the Figure 6 sweep), and PostLabel says what it was. The
	// CLI that did the work fills them in; zero means none was timed.
	Post      time.Duration
	PostLabel string
}

// Speedup is SerialWall / Wall: >1 when the pool paid off.
func (b BatchStats) Speedup() float64 {
	if b.Wall <= 0 {
		return 0
	}
	return float64(b.SerialWall) / float64(b.Wall)
}

// countCell renders an event counter, "-" when the layer did not run.
func countCell(n int64) string {
	if n == 0 {
		return "-"
	}
	return fmt.Sprint(n)
}

// Table renders the batch as an aligned table with a summary footnote.
func (b BatchStats) Table() string {
	t := NewTable(fmt.Sprintf("Experiment timing (%d workers)", b.Parallelism),
		"Run", "Wall", "Wait", "Mcycles/s", "SimW", "Allocs", "Alloc MB", "Txns", "Checks")
	for _, r := range b.Runs {
		allocs, mb := "-", "-"
		if r.Allocs > 0 {
			allocs = fmt.Sprint(r.Allocs)
			mb = fmt.Sprintf("%.1f", float64(r.AllocBytes)/1e6)
		}
		simw := "-"
		if r.SimWorkers > 1 {
			simw = fmt.Sprintf("%d(%.0f)", r.SimWorkers, r.HorizonBatch())
		}
		wait := "-"
		if r.ClassifyWait > 0 {
			wait = r.ClassifyWait.Round(100 * time.Microsecond).String()
		}
		t.AddRow(r.Label, r.Wall.Round(time.Millisecond).String(), wait,
			fmt.Sprintf("%.1f", r.MCyclesPerSec), simw, allocs, mb,
			countCell(r.BusTxns), countCell(r.Checks))
	}
	t.Note("batch wall %s vs serial %s — speedup %.2fx; %d allocs (%.1f MB) process-wide",
		b.Wall.Round(time.Millisecond), b.SerialWall.Round(time.Millisecond),
		b.Speedup(), b.Allocs, float64(b.AllocBytes)/1e6)
	if b.Post > 0 {
		t.Note("post-processing: %s in %s", b.PostLabel, b.Post.Round(100*time.Microsecond))
	}
	return t.String()
}
