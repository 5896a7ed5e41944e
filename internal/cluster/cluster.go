// Package cluster implements the what-if analysis of the paper's Section 6
// ("Implications for Larger Machines"): if the same workload ran on a
// cluster-based shared-memory machine (DASH / Paradigm / Gigamax style),
// where would its misses be serviced, and what do the paper's proposed
// optimizations — replicating the OS text per cluster and distributing the
// run queue — buy?
//
// The analysis is trace-driven, in the spirit of the paper's own cache
// re-simulations: each monitored miss is assigned a home cluster under a
// placement policy, and costs a local or remote service latency. It does
// not re-run the workload; it reprices the observed miss stream.
package cluster

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/bus"
	"repro/internal/kmem"
	"repro/internal/metrics"
	"repro/internal/monitor"
)

// Latencies of a clustered machine (in CPU cycles). Local is the bus-local
// service time of the measured machine; Remote is a directory-protocol
// network round trip (DASH-era ratios were roughly 3-4x).
const (
	LocalCycles  = arch.MissStallCycles
	RemoteCycles = 120
)

// Policy selects the Section 6 optimizations to apply.
type Policy struct {
	// ClusterSize is the number of CPUs per cluster.
	ClusterSize int
	// ReplicateText services kernel-text misses from a per-cluster copy
	// of the OS image ("it may be appropriate to replicate the OS
	// executable across clusters").
	ReplicateText bool
	// DistributeRunQueue homes scheduler and per-process state in the
	// cluster where the process runs ("the run queue should be
	// distributed across clusters"), making migration-related misses
	// intra-cluster.
	DistributeRunQueue bool
	// LocalBlockTransfers homes a frame in the cluster of the CPU that
	// allocates it — observed as the trace's page-allocation escape —
	// so the block operations that initialize it run against local
	// memory ("memory should be allocated so that these operations
	// access pages in the local cluster only").
	LocalBlockTransfers bool
}

// Name summarizes the policy for reports.
func (p Policy) Name() string {
	switch {
	case p.ReplicateText && p.DistributeRunQueue && p.LocalBlockTransfers:
		return "all §6 optimizations"
	case p.ReplicateText && p.DistributeRunQueue:
		return "replicated text + distributed runq"
	case p.ReplicateText:
		return "replicated OS text"
	case p.DistributeRunQueue:
		return "distributed run queue"
	case p.LocalBlockTransfers:
		return "local block transfers"
	default:
		return "centralized (baseline)"
	}
}

// Result is the repriced miss stream under one policy.
type Result struct {
	Policy       Policy
	Misses       int64
	LocalMisses  int64
	RemoteMisses int64
	// StallCycles is the total miss service time under the policy.
	StallCycles arch.Cycles
	// CoherenceCycles prices upgrade/update broadcasts at the home
	// distance: a broadcast for a remotely-homed block still crosses
	// the interconnect even though it moves no data.
	CoherenceCycles arch.Cycles
	// OSRemote / OSMisses restricts to OS misses (kernel-space
	// addresses), the paper's focus.
	OSMisses int64
	OSRemote int64
}

// RemoteShare is the fraction of misses serviced remotely.
func (r Result) RemoteShare() float64 {
	if r.Misses == 0 {
		return 0
	}
	return float64(r.RemoteMisses) / float64(r.Misses)
}

// AvgLatency is the mean miss service time in cycles.
func (r Result) AvgLatency() float64 {
	if r.Misses == 0 {
		return 0
	}
	return float64(r.StallCycles) / float64(r.Misses)
}

// Analyzer reprices a monitored transaction stream for a clustered machine
// under one policy: a bus.Recorder fed the traced window in bus order. The
// stream should come from the default coherence configuration: under the
// write-update protocol or cache-bypassing block transfers, write-miss
// fills surface as TxnUpdate/TxnUncached transactions that this repricing
// prices as coherence broadcasts and device accesses respectively.
type Analyzer struct {
	layout *kmem.Layout
	dec    *monitor.Decoder
	res    Result // its Policy is the analyzer's
	// frameHome maps each physical frame to the cluster that first
	// touched it (the natural first-touch placement policy).
	frameHome []int16
}

// NewAnalyzer builds an analyzer for policy p on machine m, the machine
// whose run it is fed.
func NewAnalyzer(p Policy, m arch.Machine) *Analyzer {
	if p.ClusterSize <= 0 {
		p.ClusterSize = 2
	}
	fh := make([]int16, m.MemFrames())
	for i := range fh {
		fh[i] = -1
	}
	return &Analyzer{layout: kmem.NewLayout(m), dec: monitor.NewDecoder(),
		res: Result{Policy: p}, frameHome: fh}
}

// Result returns the totals of the stream recorded so far.
func (a *Analyzer) Result() Result { return a.res }

// Record reprices one transaction.
func (a *Analyzer) Record(raw bus.Txn) {
	rec, done := a.dec.Feed(raw)
	if !done {
		return // operand word of a pending escape event
	}
	p := a.res.Policy
	if rec.IsEvent {
		// The page-allocation escape is the §6 "allocate block-transfer
		// pages locally" hook: under the policy, a frame handed out by
		// the allocator is homed in the requesting CPU's cluster, so the
		// bcopy/bclear that initializes it (and the process that uses
		// it) run against local memory.
		if p.LocalBlockTransfers && rec.Event == monitor.EvPageAlloc {
			if f := rec.Args[0]; int(f) < len(a.frameHome) {
				a.frameHome[f] = int16(int(raw.CPU) / p.ClusterSize)
			}
		}
		return
	}
	t := rec.Txn
	if t.Kind == bus.TxnWriteBack {
		// Write-backs drain to the home memory asynchronously.
		return
	}
	coherence := t.Kind == bus.TxnUpgrade || t.Kind == bus.TxnUpdate
	cluster := int(t.CPU) / p.ClusterSize
	isOS := t.Addr < a.layout.KernelEnd
	var home int
	switch {
	case t.Addr < a.layout.KernelText.End():
		// Kernel text: replicated → always local; otherwise homed in
		// cluster 0.
		if p.ReplicateText {
			home = cluster
		} else {
			home = 0
		}
	case isOS:
		// Kernel data. Per-process scheduler state follows the process
		// under a distributed run queue.
		if p.DistributeRunQueue && a.isPerProcess(t.Addr) {
			home = cluster
		} else {
			home = 0
		}
	default:
		// User/page-cache frames: first-touch placement, with allocation-
		// time re-homing under LocalBlockTransfers (handled above on the
		// EvPageAlloc escape). Misses never move a home, so genuinely
		// shared pages stay put.
		f := t.Addr.Frame()
		if a.frameHome[f] < 0 {
			if coherence {
				return // broadcast for an unhomed frame
			}
			a.frameHome[f] = int16(cluster)
		}
		home = int(a.frameHome[f])
	}
	res := &a.res
	if coherence {
		// Upgrades/updates move no data but the invalidation round trip
		// is local or remote like any other bus transaction; they are not
		// misses, so they do not enter the Local/Remote miss counts.
		if home == cluster {
			res.CoherenceCycles += LocalCycles
		} else {
			res.CoherenceCycles += RemoteCycles
		}
		return
	}
	res.Misses++
	if isOS {
		res.OSMisses++
	}
	if home == cluster {
		res.LocalMisses++
		res.StallCycles += LocalCycles
	} else {
		res.RemoteMisses++
		res.StallCycles += RemoteCycles
		if isOS {
			res.OSRemote++
		}
	}
}

// isPerProcess reports whether a kernel-data address belongs to the
// per-process structures that a distributed run queue would home with the
// process (kernel stacks, user structures, process table, run queue).
func (a *Analyzer) isPerProcess(addr arch.PAddr) bool {
	l := a.layout
	return l.UPages.Contains(addr) || l.ProcTable.Contains(addr) ||
		l.RunQueue.Contains(addr)
}

// Study is the standard Section 6 policy ladder, baseline first: a
// bus.Recorder that feeds one Analyzer per rung the same stream.
type Study []*Analyzer

// NewStudy builds the ladder for machine m with c CPUs per cluster.
func NewStudy(m arch.Machine, c int) Study {
	return Study{
		NewAnalyzer(Policy{ClusterSize: c}, m),
		NewAnalyzer(Policy{ClusterSize: c, ReplicateText: true}, m),
		NewAnalyzer(Policy{ClusterSize: c, ReplicateText: true, DistributeRunQueue: true}, m),
		NewAnalyzer(Policy{ClusterSize: c, ReplicateText: true, DistributeRunQueue: true,
			LocalBlockTransfers: true}, m),
	}
}

// Record feeds t to every rung.
func (s Study) Record(t bus.Txn) {
	for _, a := range s {
		a.Record(t)
	}
}

// Results returns each rung's totals, in ladder order.
func (s Study) Results() []Result {
	out := make([]Result, len(s))
	for i, a := range s {
		out[i] = a.Result()
	}
	return out
}

// Render formats a Study's results as a table.
func Render(results []Result, workloadName string) string {
	t := metrics.NewTable(
		fmt.Sprintf("Section 6 cluster study (%s): repricing the miss stream on a clustered machine", workloadName),
		"Policy", "Remote%", "OS remote%", "Avg latency (cyc)", "Stall vs baseline")
	var base arch.Cycles
	for i, r := range results {
		if i == 0 {
			base = r.StallCycles + r.CoherenceCycles
		}
		rel := 1.0
		if base > 0 {
			rel = float64(r.StallCycles+r.CoherenceCycles) / float64(base)
		}
		t.AddRow(r.Policy.Name(),
			fmt.Sprintf("%.1f", 100*r.RemoteShare()),
			fmt.Sprintf("%.1f", metrics.PctOf(r.OSRemote, r.OSMisses)),
			fmt.Sprintf("%.1f", r.AvgLatency()),
			fmt.Sprintf("%.2fx", rel))
	}
	t.Note("latencies: %d cycles intra-cluster, %d inter-cluster; misses from the monitored trace", LocalCycles, RemoteCycles)
	return t.String()
}
