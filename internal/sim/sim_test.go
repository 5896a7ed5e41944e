package sim

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/kernel"
	"repro/internal/klock"
	"repro/internal/monitor"
)

// loopBehavior computes then issues a syscall, forever.
type loopBehavior struct {
	compute arch.Cycles
	req     kernel.SyscallReq
	inode   int
	off     int64
	n       int
}

func (b *loopBehavior) Next(k *kernel.Kernel, p *kernel.Proc) kernel.Action {
	b.n++
	if b.n%2 == 1 {
		return kernel.Action{Kind: kernel.ActCompute, Cycles: b.compute}
	}
	req := b.req
	if req.Kind == kernel.SysRead || req.Kind == kernel.SysWrite {
		b.off += 1024
		req.Offset = b.off
		req.Inode = b.inode
		req.Bytes = 1024
	}
	return kernel.Action{Kind: kernel.ActSyscall, Req: req}
}

// lockBehavior alternates compute and user-lock critical sections.
type lockBehavior struct {
	lock *klock.Lock
	n    int
}

func (b *lockBehavior) Next(k *kernel.Kernel, p *kernel.Proc) kernel.Action {
	b.n++
	if b.n%2 == 1 {
		return kernel.Action{Kind: kernel.ActCompute, Cycles: 3000}
	}
	return kernel.Action{Kind: kernel.ActUserLock, Lock: b.lock, Hold: 2000}
}

func smallSim(t *testing.T, cfg Config) *Simulator {
	t.Helper()
	if cfg.Window == 0 {
		cfg.Window = 2_000_000
	}
	if cfg.Warmup == 0 {
		cfg.Warmup = 200_000
	}
	cfg.Seed = 42
	cfg.Kernel.PrefillCachedFrames = 512
	return New(cfg)
}

func TestComputeOnlyWorkloadRuns(t *testing.T) {
	s := smallSim(t, Config{})
	for i := 0; i < 4; i++ {
		s.K.CreateProc(&kernel.ProcSpec{
			Name:      "spin",
			Image:     s.K.NewImage("spin", 8),
			DataPages: 16,
			Behavior:  &loopBehavior{compute: 50_000, req: kernel.SyscallReq{Kind: kernel.SysSmall}},
		})
	}
	s.Run()
	// All CPUs advanced through the window.
	for _, c := range s.CPUs {
		if c.now < s.end {
			t.Fatalf("CPU %d stuck at %d < %d", c.id, c.now, s.end)
		}
		user := c.Time[arch.ModeUser]
		if user == 0 {
			t.Errorf("CPU %d never ran user code", c.id)
		}
	}
	if s.Bus.Stats.Transactions() == 0 {
		t.Error("no bus transactions")
	}
	if len(s.Mon.Trace()) == 0 {
		t.Error("monitor recorded nothing")
	}
	if s.K.OpCounts[kernel.OpInterrupt] == 0 {
		t.Error("no clock interrupts delivered")
	}
}

func TestIOWorkloadSleepsAndWakes(t *testing.T) {
	s := smallSim(t, Config{})
	for i := 0; i < 3; i++ {
		s.K.CreateProc(&kernel.ProcSpec{
			Name:      "reader",
			Image:     s.K.NewImage("reader", 8),
			DataPages: 8,
			Behavior: &loopBehavior{compute: 20_000,
				req:   kernel.SyscallReq{Kind: kernel.SysRead},
				inode: 100 + i},
		})
	}
	s.Run()
	if s.K.DiskRequests == 0 {
		t.Fatal("no disk I/O happened")
	}
	if s.K.OpCounts[kernel.OpIOSyscall] == 0 {
		t.Error("no I/O syscalls counted")
	}
	idle := arch.Cycles(0)
	for _, c := range s.CPUs {
		idle += c.Time[arch.ModeIdle]
	}
	if idle == 0 {
		t.Error("I/O-bound workload should produce idle time")
	}
}

func TestUserLocksProduceSginap(t *testing.T) {
	s := smallSim(t, Config{})
	l := klock.NewLock("user")
	l.User = true
	for i := 0; i < 6; i++ { // oversubscribed: contention
		s.K.CreateProc(&kernel.ProcSpec{
			Name:      "mp3d",
			Image:     s.K.NewImage("mp3d", 8),
			DataPages: 8,
			Behavior:  &lockBehavior{lock: l},
		})
	}
	s.Run()
	if l.Acquires() == 0 {
		t.Fatal("user lock never acquired")
	}
	if s.K.OpCounts[kernel.OpSginap] == 0 {
		t.Error("contended user lock never triggered sginap")
	}
}

func TestTraceDecodes(t *testing.T) {
	s := smallSim(t, Config{})
	for i := 0; i < 4; i++ {
		s.K.CreateProc(&kernel.ProcSpec{
			Name:      "mix",
			Image:     s.K.NewImage("mix", 8),
			DataPages: 8,
			Behavior: &loopBehavior{compute: 10_000,
				req:   kernel.SyscallReq{Kind: kernel.SysWrite},
				inode: i},
		})
	}
	s.Run()
	trace := s.Mon.Trace()
	if len(trace) == 0 {
		t.Fatal("empty trace")
	}
	d := monitor.NewDecoder()
	events := map[monitor.Event]int{}
	misses := 0
	for _, txn := range trace {
		rec, ok := d.Feed(txn)
		if !ok {
			continue
		}
		if rec.IsEvent {
			events[rec.Event]++
		} else {
			misses++
			if rec.Txn.Addr%arch.BlockSize != 0 && rec.Txn.Kind != 4 /* uncached */ {
				t.Fatalf("unaligned miss %#x", rec.Txn.Addr)
			}
		}
	}
	if d.Malformed > 0 {
		t.Errorf("%d malformed escapes", d.Malformed)
	}
	for _, ev := range []monitor.Event{monitor.EvEnterOS, monitor.EvExitOS,
		monitor.EvRunProc, monitor.EvTLBChange, monitor.EvBlockOp} {
		if events[ev] == 0 {
			t.Errorf("no %v events in trace", ev)
		}
	}
	if misses == 0 {
		t.Error("no misses in trace")
	}
	// Enter/Exit OS must balance approximately (within open windows).
	diff := events[monitor.EvEnterOS] - events[monitor.EvExitOS]
	if diff < 0 || diff > s.Cfg.NCPU+1 {
		t.Errorf("EnterOS-ExitOS imbalance: %d vs %d", events[monitor.EvEnterOS], events[monitor.EvExitOS])
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (int64, int) {
		s := smallSim(t, Config{Window: 500_000, Warmup: 100_000})
		for i := 0; i < 3; i++ {
			s.K.CreateProc(&kernel.ProcSpec{
				Name:      "mix",
				Image:     s.K.NewImage("mix", 8),
				DataPages: 8,
				Behavior: &loopBehavior{compute: 10_000,
					req:   kernel.SyscallReq{Kind: kernel.SysRead},
					inode: i},
			})
		}
		s.Run()
		return s.Bus.Stats.Transactions(), len(s.Mon.Trace())
	}
	t1, l1 := run()
	t2, l2 := run()
	if t1 != t2 || l1 != l2 {
		t.Errorf("runs differ: (%d,%d) vs (%d,%d)", t1, l1, t2, l2)
	}
}

func TestSpawningWorkload(t *testing.T) {
	s := smallSim(t, Config{Window: 3_000_000})
	img := s.K.NewImage("cc", 16)
	s.K.CreateProc(&kernel.ProcSpec{
		Name:      "make",
		DataPages: 4,
		Image:     s.K.NewImage("make", 4),
		Behavior:  &spawnerBehavior{img: img},
	})
	s.Run()
	if s.K.Spawns == 0 {
		t.Fatal("nothing spawned")
	}
	if s.K.Exits == 0 {
		t.Error("no children exited")
	}
}

// spawnerBehavior spawns short-lived children and waits, like make.
type spawnerBehavior struct {
	img *kernel.Image
	n   int
}

func (b *spawnerBehavior) Next(k *kernel.Kernel, p *kernel.Proc) kernel.Action {
	b.n++
	switch b.n % 3 {
	case 1:
		return kernel.Action{Kind: kernel.ActCompute, Cycles: 5_000}
	case 2:
		if p.LiveChildren >= 4 {
			return kernel.Action{Kind: kernel.ActSyscall, Req: kernel.SyscallReq{Kind: kernel.SysWait}}
		}
		return kernel.Action{Kind: kernel.ActSyscall, Req: kernel.SyscallReq{Kind: kernel.SysSpawn,
			Child: &kernel.ProcSpec{
				Name: "cc", Image: b.img, DataPages: 8,
				Behavior: &childBehavior{},
			}}}
	default:
		return kernel.Action{Kind: kernel.ActSyscall, Req: kernel.SyscallReq{Kind: kernel.SysSmall}}
	}
}

type childBehavior struct{ n int }

func (b *childBehavior) Next(k *kernel.Kernel, p *kernel.Proc) kernel.Action {
	b.n++
	if b.n < 4 {
		return kernel.Action{Kind: kernel.ActCompute, Cycles: 30_000}
	}
	return kernel.Action{Kind: kernel.ActExit}
}

// TestTimeAccountingInvariant: each CPU's mode buckets must sum to its
// clock advance over the traced window, and stall components must be
// bounded by their buckets.
func TestTimeAccountingInvariant(t *testing.T) {
	s := smallSim(t, Config{})
	for i := 0; i < 5; i++ {
		s.K.CreateProc(&kernel.ProcSpec{
			Name: "mix", Image: s.K.NewImage("mix", 8), DataPages: 8,
			Behavior: &loopBehavior{compute: 15_000,
				req: kernel.SyscallReq{Kind: kernel.SysRead}, inode: i},
		})
	}
	s.Run()
	for _, c := range s.CPUs {
		var tot arch.Cycles
		for m := 0; m < 3; m++ {
			tot += c.Time[m]
			if c.Stall[m] > c.Time[m] {
				t.Errorf("CPU: stall %d exceeds bucket %d (mode %d)", c.Stall[m], c.Time[m], m)
			}
			if c.L2Stall[m] > c.Time[m] {
				t.Errorf("CPU: L2 stall exceeds bucket (mode %d)", m)
			}
		}
		// Time buckets were reset at trace start; the clock advanced
		// from TraceStartAt (approximately: CPUs start the window at
		// their own clocks ≥ TraceStartAt).
		if tot <= 0 {
			t.Error("no time accumulated in the traced window")
		}
	}
}

// TestMonitorTicksMonotonePerCPU: each CPU's transactions must carry
// non-decreasing timestamps (the monitor's counter is global, but a CPU
// cannot travel back in time).
func TestMonitorTicksMonotonePerCPU(t *testing.T) {
	s := smallSim(t, Config{Window: 1_000_000, Warmup: 300_000})
	for i := 0; i < 4; i++ {
		s.K.CreateProc(&kernel.ProcSpec{
			Name: "mix", Image: s.K.NewImage("mix", 8), DataPages: 8,
			Behavior: &loopBehavior{compute: 20_000,
				req: kernel.SyscallReq{Kind: kernel.SysWrite}, inode: i},
		})
	}
	s.Run()
	last := map[arch.CPUID]uint64{}
	for _, txn := range s.Mon.Trace() {
		if txn.Ticks < last[txn.CPU] {
			t.Fatalf("CPU %d time went backwards: %d after %d", txn.CPU, txn.Ticks, last[txn.CPU])
		}
		last[txn.CPU] = txn.Ticks
	}
}

// TestNoKernelLockLeaks: after a run, no kernel lock may still be held
// (spinlocks are never held across a context switch).
func TestNoKernelLockLeaks(t *testing.T) {
	s := smallSim(t, Config{})
	for i := 0; i < 6; i++ {
		s.K.CreateProc(&kernel.ProcSpec{
			Name: "mix", Image: s.K.NewImage("mix", 8), DataPages: 8,
			Behavior: &loopBehavior{compute: 10_000,
				req: kernel.SyscallReq{Kind: kernel.SysRead}, inode: i},
		})
	}
	s.Run()
	for _, st := range s.K.Locks.AllStats() {
		_ = st
	}
	for _, name := range []string{"Memlock", "Runqlk", "Ifree", "Dfbmaplk", "Bfreelock", "Calock"} {
		if s.K.Locks.Get(name).Held() {
			t.Errorf("lock %s still held after the run", name)
		}
	}
}
