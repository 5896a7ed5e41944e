package cluster

import (
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/bus"
	"repro/internal/kmem"
	"repro/internal/monitor"
)

var layout = kmem.NewLayout(arch.Default())

// analyze feeds trace to a fresh analyzer for p on the default machine,
// one transaction at a time.
func analyze(trace []bus.Txn, p Policy) Result {
	a := NewAnalyzer(p, arch.Default())
	for _, t := range trace {
		a.Record(t)
	}
	return a.Result()
}

func txn(cpu arch.CPUID, addr arch.PAddr) bus.Txn {
	return bus.Txn{Kind: bus.TxnRead, CPU: cpu, Addr: addr}
}

func TestKernelTextHoming(t *testing.T) {
	l := layout
	text := l.KernelText.Base + 0x100
	trace := []bus.Txn{txn(0, text), txn(7, text)} // clusters 0 and 3
	base := analyze(trace, Policy{ClusterSize: 2})
	if base.LocalMisses != 1 || base.RemoteMisses != 1 {
		t.Fatalf("baseline: local=%d remote=%d, want 1/1", base.LocalMisses, base.RemoteMisses)
	}
	rep := analyze(trace, Policy{ClusterSize: 2, ReplicateText: true})
	if rep.RemoteMisses != 0 {
		t.Fatalf("replicated text: remote=%d, want 0", rep.RemoteMisses)
	}
	if rep.StallCycles >= base.StallCycles {
		t.Error("replication did not reduce stall")
	}
}

func TestPerProcessStateFollowsProcess(t *testing.T) {
	l := layout
	kstack := l.KStackAddr(5)
	trace := []bus.Txn{txn(6, kstack)} // cluster 3 touches a kernel stack
	base := analyze(trace, Policy{ClusterSize: 2})
	if base.RemoteMisses != 1 {
		t.Fatalf("baseline kstack should be remote (homed in cluster 0): %+v", base)
	}
	dist := analyze(trace, Policy{ClusterSize: 2, DistributeRunQueue: true})
	if dist.RemoteMisses != 0 {
		t.Fatalf("distributed runq: kstack should be local: %+v", dist)
	}
	// Non-per-process kernel data (the inode table) stays centralized.
	trace2 := []bus.Txn{txn(6, l.InodeTable.Base)}
	d2 := analyze(trace2, Policy{ClusterSize: 2, DistributeRunQueue: true})
	if d2.RemoteMisses != 1 {
		t.Errorf("inode table should remain homed in cluster 0: %+v", d2)
	}
}

func TestFirstTouchPlacement(t *testing.T) {
	user := arch.FrameAddr(kmem.FirstUserFrame + 5)
	trace := []bus.Txn{
		txn(2, user), // cluster 1 first-touches → home 1
		txn(3, user), // same cluster → local
		txn(0, user), // cluster 0 → remote
	}
	r := analyze(trace, Policy{ClusterSize: 2})
	if r.LocalMisses != 2 || r.RemoteMisses != 1 {
		t.Fatalf("first-touch: local=%d remote=%d, want 2/1", r.LocalMisses, r.RemoteMisses)
	}
	// With local block transfers, misses alone still do NOT re-home —
	// shared pages keep a stable home.
	r2 := analyze(trace, Policy{ClusterSize: 2, LocalBlockTransfers: true})
	if r2.RemoteMisses != 1 {
		t.Fatalf("local transfers, misses only: remote=%d, want 1", r2.RemoteMisses)
	}
	// A page-allocation escape (the frame recycled to a new owner)
	// re-homes the frame in the allocating CPU's cluster.
	frame := uint32(user.Frame())
	trace3 := []bus.Txn{txn(2, user)} // cluster 1 first-touches → home 1
	trace3 = append(trace3, escTxns(0, monitor.EvPageAlloc, frame, 0)...)
	trace3 = append(trace3, txn(1, user)) // cluster 0 reads → now local
	r3 := analyze(trace3, Policy{ClusterSize: 2, LocalBlockTransfers: true})
	if r3.LocalMisses != 2 || r3.RemoteMisses != 0 {
		t.Fatalf("re-home on page alloc: local=%d remote=%d, want 2/0",
			r3.LocalMisses, r3.RemoteMisses)
	}
	// Without the policy the allocation does not re-home.
	r4 := analyze(trace3, Policy{ClusterSize: 2})
	if r4.RemoteMisses != 1 {
		t.Fatalf("baseline alloc re-homed: remote=%d, want 1", r4.RemoteMisses)
	}
}

// TestFramesBeyondDefaultMemory: frame homes cover the run's machine, not
// the default 32 MB, for both first touch and allocation re-homing.
func TestFramesBeyondDefaultMemory(t *testing.T) {
	m := arch.Default()
	m.MemBytes = 64 << 20
	user := arch.FrameAddr(uint32(arch.MemFrames) + 100)
	trace := append(escTxns(0, monitor.EvPageAlloc, uint32(user.Frame())), txn(1, user), txn(6, user))
	a := NewAnalyzer(Policy{ClusterSize: 2, LocalBlockTransfers: true}, m)
	for _, tx := range trace {
		a.Record(tx)
	}
	if r := a.Result(); r.LocalMisses != 1 || r.RemoteMisses != 1 {
		t.Fatalf("frame %d: local=%d remote=%d, want 1/1", user.Frame(), r.LocalMisses, r.RemoteMisses)
	}
}

// escTxns encodes one instrumentation event as its uncached bus reads.
func escTxns(cpu arch.CPUID, ev monitor.Event, args ...uint32) []bus.Txn {
	out := []bus.Txn{{Kind: bus.TxnUncached, CPU: cpu, Addr: monitor.EventAddr(ev)}}
	for _, v := range args {
		out = append(out, bus.Txn{Kind: bus.TxnUncached, CPU: cpu, Addr: monitor.OperandAddr(v)})
	}
	return out
}

func TestUpgradesNotPricedAsMisses(t *testing.T) {
	user := arch.FrameAddr(kmem.FirstUserFrame + 9)
	trace := []bus.Txn{
		txn(0, user),
		{Kind: bus.TxnUpgrade, CPU: 0, Addr: user},
		{Kind: bus.TxnUpdate, CPU: 0, Addr: user},
	}
	r := analyze(trace, Policy{ClusterSize: 2})
	if r.Misses != 1 {
		t.Errorf("coherence broadcasts priced as misses: %d, want 1", r.Misses)
	}
	// The broadcasts still pay the interconnect: the frame is homed in
	// CPU 0's own cluster, so both cost the local round trip.
	if r.CoherenceCycles != 2*LocalCycles {
		t.Errorf("CoherenceCycles = %d, want %d", r.CoherenceCycles, 2*LocalCycles)
	}
	// A broadcast from another cluster pays the remote price.
	trace2 := []bus.Txn{
		txn(0, user),
		{Kind: bus.TxnUpgrade, CPU: 7, Addr: user},
	}
	r2 := analyze(trace2, Policy{ClusterSize: 2})
	if r2.CoherenceCycles != RemoteCycles {
		t.Errorf("remote broadcast = %d cycles, want %d", r2.CoherenceCycles, RemoteCycles)
	}
}

func TestEscapesAndWriteBacksIgnored(t *testing.T) {
	trace := []bus.Txn{
		{Kind: bus.TxnUncached, CPU: 0, Addr: monitor.EventAddr(monitor.EvExitOS)},
		{Kind: bus.TxnWriteBack, CPU: 0, Addr: 0x4000},
	}
	r := analyze(trace, Policy{ClusterSize: 2})
	if r.Misses != 0 {
		t.Errorf("instrumentation/writebacks counted as misses: %+v", r)
	}
	// A genuine uncached device read does count.
	dev := []bus.Txn{{Kind: bus.TxnUncached, CPU: 0, Addr: kmem.DevRegsBase}}
	if r := analyze(dev, Policy{ClusterSize: 2}); r.Misses != 1 {
		t.Errorf("device read not counted: %+v", r)
	}
}

func TestStudyLadderMonotone(t *testing.T) {
	l := layout
	// Synthetic mixed trace: text misses from all clusters, kernel
	// stacks, and user pages.
	var trace []bus.Txn
	for i := 0; i < 100; i++ {
		cpu := arch.CPUID(i % 8)
		trace = append(trace,
			txn(cpu, l.KernelText.Base+arch.PAddr(i*64)),
			txn(cpu, l.KStackAddr(i%16)),
			txn(cpu, arch.FrameAddr(kmem.FirstUserFrame+uint32(i%32))))
	}
	s := NewStudy(arch.Default(), 2)
	for _, t := range trace {
		s.Record(t)
	}
	results := s.Results()
	if len(results) != 4 {
		t.Fatalf("ladder size = %d", len(results))
	}
	for i := 1; i < len(results); i++ {
		if results[i].StallCycles > results[i-1].StallCycles {
			t.Errorf("policy %q increased stall over %q",
				results[i].Policy.Name(), results[i-1].Policy.Name())
		}
	}
	out := Render(results, "synthetic")
	for _, want := range []string{"Section 6 cluster study", "replicated OS text",
		"distributed runq", "all §6 optimizations", "centralized (baseline)"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestPolicyNames(t *testing.T) {
	cases := map[string]Policy{
		"centralized (baseline)": {},
		"replicated OS text":     {ReplicateText: true},
		"distributed run queue":  {DistributeRunQueue: true},
		"local block transfers":  {LocalBlockTransfers: true},
	}
	for want, p := range cases {
		if got := p.Name(); got != want {
			t.Errorf("Name(%+v) = %q, want %q", p, got, want)
		}
	}
}

func TestResultAccessors(t *testing.T) {
	r := Result{Misses: 4, RemoteMisses: 1, StallCycles: 4 * 50}
	if r.RemoteShare() != 0.25 {
		t.Errorf("RemoteShare = %v", r.RemoteShare())
	}
	if r.AvgLatency() != 50 {
		t.Errorf("AvgLatency = %v", r.AvgLatency())
	}
	var zero Result
	if zero.RemoteShare() != 0 || zero.AvgLatency() != 0 {
		t.Error("zero result accessors should be 0")
	}
}
