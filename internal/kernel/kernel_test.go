package kernel

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/arch"
	"repro/internal/klock"
	"repro/internal/kmem"
	"repro/internal/monitor"
)

// fakePort implements Port for kernel unit tests: it counts traffic and
// advances a clock without any cache model.
type fakePort struct {
	tlbInvalFr int
	cpu        arch.CPUID
	now        arch.Cycles
	execs      []string
	loads      map[string]int // attribution name → bytes
	stores     map[string]int
	escapes    []monitor.Event
	layout     *kmem.Layout
	routine    string
	tlbIns     int
	icInvals   []uint32
	uncached   int
}

func newFakePort(l *kmem.Layout) *fakePort {
	return &fakePort{
		loads:  make(map[string]int),
		stores: make(map[string]int),
		layout: l,
	}
}

func (f *fakePort) CPU() arch.CPUID  { return f.cpu }
func (f *fakePort) Now() arch.Cycles { return f.now }
func (f *fakePort) Exec(r *Routine) {
	f.execs = append(f.execs, r.Name)
	f.routine = r.Name
	f.now += arch.Cycles(r.Instructions())
}
func (f *fakePort) Load(a arch.PAddr, n int) {
	f.loads[f.layout.Attribute(a, f.routine)] += n
	f.now += arch.Cycles(1 + n/arch.BlockSize)
}
func (f *fakePort) Store(a arch.PAddr, n int) {
	f.stores[f.layout.Attribute(a, f.routine)] += n
	f.now += arch.Cycles(1 + n/arch.BlockSize)
}
func (f *fakePort) UncachedRead(arch.PAddr) { f.uncached++; f.now += 35 }
func (f *fakePort) LoadBypass(a arch.PAddr, n int) {
	f.uncached++
	f.now += arch.Cycles(n / arch.BlockSize * 35)
}
func (f *fakePort) StoreBypass(a arch.PAddr, n int) {
	f.uncached++
	f.now += arch.Cycles(n / arch.BlockSize * 35)
}
func (f *fakePort) Acquire(l *klock.Lock) {
	at, _ := l.Acquire(f.cpu, f.now)
	f.now = at + 1
}
func (f *fakePort) Release(l *klock.Lock) { l.Release(f.cpu, f.now); f.now++ }
func (f *fakePort) Escape(ev monitor.Event, args ...uint32) {
	f.escapes = append(f.escapes, ev)
}
func (f *fakePort) TLBInsert(arch.PID, uint32, uint32) { f.tlbIns++ }
func (f *fakePort) TLBInvalidatePID(arch.PID)          {}
func (f *fakePort) TLBInvalidateFrame(uint32)          { f.tlbInvalFr++ }
func (f *fakePort) ICacheInvalFrame(fr uint32)         { f.icInvals = append(f.icInvals, fr) }

func execCount(f *fakePort, name string) int {
	n := 0
	for _, e := range f.execs {
		if e == name {
			n++
		}
	}
	return n
}

func newTestKernel() *Kernel {
	return New(Config{Seed: 1, PrefillCachedFrames: 64})
}

func TestKTextPlacement(t *testing.T) {
	kt := NewKText(0, arch.Default())
	if kt.TotalSize > kmem.KernelTextSize {
		t.Fatalf("text image %d bytes exceeds %d", kt.TotalSize, kmem.KernelTextSize)
	}
	if kmem.KernelTextSize-kt.TotalSize >= fillerSize {
		t.Errorf("padding left a %d-byte hole", kmem.KernelTextSize-kt.TotalSize)
	}
	// Routines are disjoint and block-aligned.
	for i, r := range kt.Routines {
		if r.Addr%arch.BlockSize != 0 {
			t.Errorf("routine %s not block aligned", r.Name)
		}
		if i > 0 {
			prev := kt.Routines[i-1]
			if r.Addr < prev.Addr+arch.PAddr(prev.Size) {
				t.Errorf("routine %s overlaps %s", r.Name, prev.Name)
			}
		}
	}
	// Lookup by address works.
	sw := kt.R("swtch")
	if got := kt.At(sw.Addr + 10); got != sw {
		t.Errorf("At(swtch+10) = %v", got)
	}
	if kt.At(0x0CFFFF0) != nil {
		t.Error("At past image should be nil")
	}
	// The seven run-queue routines exist.
	runq := 0
	for _, r := range kt.Routines {
		if r.Group == GroupRunQueue {
			runq++
		}
	}
	if runq != 7 {
		t.Errorf("run-queue group has %d routines, want 7 (Table 5)", runq)
	}
}

func TestCreateProcAndScheduler(t *testing.T) {
	k := newTestKernel()
	img := k.NewImage("cc", 10)
	p1 := k.CreateProc(&ProcSpec{Name: "a", Image: img, DataPages: 4})
	p2 := k.CreateProc(&ProcSpec{Name: "b", DataPages: 2})
	if p1.PID == p2.PID || p1.Slot == p2.Slot {
		t.Fatal("pid/slot collision")
	}
	if k.RunnableCount() != 2 {
		t.Fatalf("runq = %d, want 2", k.RunnableCount())
	}
	fp := newFakePort(k.L)
	got := k.ContextSwitch(fp, nil, false)
	if got != p1 {
		t.Fatalf("FIFO pick = %v, want p1", got)
	}
	if got.State != StateRunning || got.LastCPU != 0 {
		t.Errorf("picked proc state=%v lastCPU=%d", got.State, got.LastCPU)
	}
	// Context switch touched the PCB and kernel stack.
	if fp.loads[kmem.AttrPCB] == 0 {
		t.Error("restore did not read the PCB")
	}
	// Switching away requeues and picks p2; p1 keeps LastCPU.
	got2 := k.ContextSwitch(fp, got, true)
	if got2 != p2 {
		t.Fatalf("second pick = %v, want p2", got2)
	}
	if fp.stores[kmem.AttrPCB] == 0 {
		t.Error("save did not write the PCB")
	}
	if k.CtxSwitches != 2 {
		t.Errorf("CtxSwitches = %d", k.CtxSwitches)
	}
}

func TestMigrationCounting(t *testing.T) {
	k := newTestKernel()
	p1 := k.CreateProc(&ProcSpec{Name: "a", DataPages: 1})
	fp0 := newFakePort(k.L)
	fp0.cpu = 0
	if k.ContextSwitch(fp0, nil, false) != p1 {
		t.Fatal("pick failed")
	}
	k.setrq(fp0, p1)
	fp1 := newFakePort(k.L)
	fp1.cpu = 1
	if k.ContextSwitch(fp1, nil, false) != p1 {
		t.Fatal("re-pick failed")
	}
	if k.Migrations != 1 {
		t.Errorf("Migrations = %d, want 1", k.Migrations)
	}
}

func TestAffinityScheduling(t *testing.T) {
	k := New(Config{Seed: 1, Affinity: true, PrefillCachedFrames: 64})
	pa := k.CreateProc(&ProcSpec{Name: "a", DataPages: 1})
	pb := k.CreateProc(&ProcSpec{Name: "b", DataPages: 1})
	pa.LastCPU, pa.HasRun = 1, true
	pb.LastCPU, pb.HasRun = 0, true
	fp := newFakePort(k.L)
	fp.cpu = 0
	// CPU 0 should skip pa (affine to CPU 1) and pick pb.
	if got := k.ContextSwitch(fp, nil, false); got != pb {
		t.Fatalf("affinity pick = %v, want pb", got)
	}
	if k.Migrations != 0 {
		t.Errorf("affinity pick counted as migration")
	}
}

func TestSleepWakeup(t *testing.T) {
	k := newTestKernel()
	p1 := k.CreateProc(&ProcSpec{Name: "a", DataPages: 1})
	fp := newFakePort(k.L)
	k.ContextSwitch(fp, nil, false)
	ch := k.NewChan()
	ran := false
	k.SleepProc(fp, p1, ch, OpIOSyscall, func(Port, *Proc) SysStatus {
		ran = true
		return SysDone
	})
	if p1.State != StateSleeping {
		t.Fatal("proc not sleeping")
	}
	if n := k.Wakeup(fp, ch); n != 1 {
		t.Fatalf("Wakeup woke %d", n)
	}
	if p1.State != StateReady {
		t.Fatal("woken proc not ready")
	}
	cont, op := k.TakeContinuation(p1)
	if cont == nil || op != OpIOSyscall {
		t.Fatal("continuation lost")
	}
	cont(fp, p1)
	if !ran {
		t.Error("continuation did not run")
	}
	if c, _ := k.TakeContinuation(p1); c != nil {
		t.Error("continuation not cleared")
	}
}

func TestPageFaultDemandZero(t *testing.T) {
	k := newTestKernel()
	pr := k.CreateProc(&ProcSpec{Name: "a", DataPages: 4})
	fp := newFakePort(k.L)
	vp := pr.FP.DataVPages[0]
	if k.IsMapped(pr, vp) {
		t.Fatal("page mapped before fault")
	}
	k.PageFault(fp, pr, vp, false)
	if !k.IsMapped(pr, vp) {
		t.Fatal("page not mapped after fault")
	}
	if fp.tlbIns != 1 {
		t.Errorf("TLB inserts = %d", fp.tlbIns)
	}
	if execCount(fp, "bclear") != 1 {
		t.Error("demand-zero fault did not clear the page")
	}
	// The block-op log recorded a full-page clear.
	found := false
	for _, b := range k.BlockOps {
		if b.Kind == BlockClear && b.Bytes == arch.PageSize {
			found = true
		}
	}
	if !found {
		t.Error("no full-page clear logged")
	}
}

func TestCodePageSharingAcrossProcs(t *testing.T) {
	k := newTestKernel()
	img := k.NewImage("cc", 4)
	a := k.CreateProc(&ProcSpec{Name: "a", Image: img})
	b := k.CreateProc(&ProcSpec{Name: "b", Image: img})
	k.textRef[img.ID] = 2
	fp := newFakePort(k.L)
	vp := uint32(CodeVBase)
	k.PageFault(fp, a, vp, false)
	copies := len(k.BlockOps)
	k.PageFault(fp, b, vp, false)
	pa, _ := a.MappedPage(vp)
	pb, _ := b.MappedPage(vp)
	if pa.Frame != pb.Frame {
		t.Fatal("text page not shared between processes")
	}
	if len(k.BlockOps) != copies {
		t.Error("second mapper copied the text page again")
	}
}

func TestCOWFault(t *testing.T) {
	k := newTestKernel()
	pr := k.CreateProc(&ProcSpec{Name: "a", DataPages: 2})
	fp := newFakePort(k.L)
	vp := pr.FP.DataVPages[0]
	k.PageFault(fp, pr, vp, false)
	orig, _ := pr.MappedPage(vp)
	pr.pages[vp] = PageInfo{Frame: orig.Frame, COW: true}
	if !k.IsCOW(pr, vp) {
		t.Fatal("COW not detected")
	}
	k.PageFault(fp, pr, vp, true)
	now, _ := pr.MappedPage(vp)
	if now.COW || now.Frame == orig.Frame {
		t.Errorf("COW fault did not copy: %+v vs %+v", now, orig)
	}
	sawCopy := false
	for _, b := range k.BlockOps {
		if b.Kind == BlockCopy && b.Bytes == arch.PageSize && b.Why == "copy-on-write page" {
			sawCopy = true
		}
	}
	if !sawCopy {
		t.Error("no full-page COW copy logged")
	}
	if fp.tlbInvalFr == 0 {
		t.Error("COW remap did not shoot down the old frame's translations")
	}
}

func TestSharedPagesMapSameFrame(t *testing.T) {
	k := newTestKernel()
	leader := k.CreateProc(&ProcSpec{Name: "lead", SharedPages: 4, DataPages: 1})
	follow := k.CreateProc(&ProcSpec{Name: "w", SharedWith: leader, DataPages: 1})
	if len(follow.FP.SharedVPages) != 4 {
		t.Fatalf("follower shared pages = %d", len(follow.FP.SharedVPages))
	}
	fp := newFakePort(k.L)
	vp := leader.FP.SharedVPages[1]
	k.PageFault(fp, follow, vp, false) // follower faults first
	k.PageFault(fp, leader, vp, false)
	a, _ := follow.MappedPage(vp)
	b, _ := leader.MappedPage(vp)
	if a.Frame != b.Frame {
		t.Error("shared page frames differ")
	}
}

func TestUTLBFaultIsCheap(t *testing.T) {
	k := newTestKernel()
	pr := k.CreateProc(&ProcSpec{Name: "a", DataPages: 1})
	fp := newFakePort(k.L)
	vp := pr.FP.DataVPages[0]
	k.PageFault(fp, pr, vp, false)
	before := fp.now
	k.UTLBFault(fp, pr, vp)
	if fp.now-before > 100 {
		t.Errorf("UTLB fault took %d cycles; should be tiny", fp.now-before)
	}
	if k.OpCounts[OpCheapTLB] != 1 {
		t.Errorf("cheap-TLB count = %d", k.OpCounts[OpCheapTLB])
	}
	// It emitted the UTLB escape.
	saw := false
	for _, e := range fp.escapes {
		if e == monitor.EvUTLB {
			saw = true
		}
	}
	if !saw {
		t.Error("no EvUTLB escape")
	}
}

func TestReadSyscallColdThenWarm(t *testing.T) {
	k := newTestKernel()
	pr := k.CreateProc(&ProcSpec{Name: "a", DataPages: 2})
	fp := newFakePort(k.L)
	k.ContextSwitch(fp, nil, false)
	k.PageFault(fp, pr, pr.FP.DataVPages[0], false) // map a user buffer
	req := SyscallReq{Kind: SysRead, Inode: 42, Offset: 0, Bytes: 1024}
	st := k.Syscall(fp, pr, req)
	if st != SysBlocked {
		t.Fatalf("cold read status = %v, want blocked", st)
	}
	if k.DiskRequests != 1 {
		t.Errorf("disk requests = %d", k.DiskRequests)
	}
	// Deliver the disk interrupt and run the continuation.
	ev, ok := k.PopDueEventFor(fp.CPU(), 1<<62)
	if !ok || ev.Kind != IntrDisk {
		t.Fatalf("no disk event: %+v ok=%v", ev, ok)
	}
	k.DiskIntr(fp, ev.Ch)
	if pr.State != StateReady {
		t.Fatal("reader not woken")
	}
	cont, op := k.TakeContinuation(pr)
	if op != OpIOSyscall {
		t.Errorf("continuation op = %v", op)
	}
	if st := cont(fp, pr); st != SysDone {
		t.Fatalf("continuation status = %v", st)
	}
	// Second read of the same page hits the page cache: no new disk
	// request, completes synchronously.
	if st := k.Syscall(fp, pr, req); st != SysDone {
		t.Fatalf("warm read status = %v", st)
	}
	if k.DiskRequests != 1 {
		t.Errorf("warm read went to disk")
	}
	// Both paths staged fragments through Bcopy.
	frag := 0
	for _, b := range k.BlockOps {
		if b.Kind == BlockCopy && b.Why == "transfer out of buffer cache" {
			frag++
		}
	}
	if frag != 2 {
		t.Errorf("buffer-cache transfer copies = %d, want 2", frag)
	}
}

func TestWriteSyscallAllocatesAndCopies(t *testing.T) {
	k := newTestKernel()
	pr := k.CreateProc(&ProcSpec{Name: "a", DataPages: 1})
	fp := newFakePort(k.L)
	k.PageFault(fp, pr, pr.FP.DataVPages[0], false)
	st := k.Syscall(fp, pr, SyscallReq{Kind: SysWrite, Inode: 7, Offset: 4096, Bytes: 2048})
	if st != SysDone {
		t.Fatalf("write status = %v", st)
	}
	if k.Locks.Get(klock.Dfbmaplk).Acquires() != 1 {
		t.Error("new file page did not allocate a disk block under Dfbmaplk")
	}
	// Rewriting the same page must not allocate again.
	k.Syscall(fp, pr, SyscallReq{Kind: SysWrite, Inode: 7, Offset: 4096, Bytes: 2048})
	if got := k.Locks.Get(klock.Dfbmaplk).Acquires(); got != 1 {
		t.Errorf("Dfbmaplk acquires = %d, want 1", got)
	}
}

func TestSpawnWaitExitLifecycle(t *testing.T) {
	k := newTestKernel()
	parent := k.CreateProc(&ProcSpec{Name: "make", DataPages: 2})
	fp := newFakePort(k.L)
	k.ContextSwitch(fp, nil, false)
	k.PageFault(fp, parent, parent.FP.DataVPages[0], false)
	img := k.NewImage("cc", 4)
	st := k.Syscall(fp, parent, SyscallReq{Kind: SysSpawn, Child: &ProcSpec{
		Name: "cc1", Image: img, DataPages: 4,
	}})
	if st != SysDone {
		t.Fatalf("spawn status = %v", st)
	}
	if parent.LiveChildren != 1 || k.Spawns != 1 {
		t.Fatalf("children = %d spawns = %d", parent.LiveChildren, k.Spawns)
	}
	var child *Proc
	for _, p := range k.Procs() {
		if p.Name == "cc1" {
			child = p
		}
	}
	if child == nil {
		t.Fatal("child not created")
	}
	// Parent waits; child exits; parent wakes.
	if st := k.Syscall(fp, parent, SyscallReq{Kind: SysWait}); st != SysBlocked {
		t.Fatalf("wait status = %v", st)
	}
	// Map some pages in the child so exit frees them.
	k.PageFault(fp, child, child.FP.DataVPages[0], false)
	free0 := k.F.FreeCount()
	if st := k.ExitProc(fp, child); st != SysExited {
		t.Fatal("exit status wrong")
	}
	if k.F.FreeCount() != free0+1 {
		t.Errorf("child data page not freed: %d → %d", free0, k.F.FreeCount())
	}
	if parent.State != StateReady {
		t.Error("parent not woken by child exit")
	}
	if parent.LiveChildren != 0 {
		t.Error("child not reaped")
	}
}

func TestExitCachesTextForReuse(t *testing.T) {
	k := newTestKernel()
	img := k.NewImage("cc", 2)
	a := k.CreateProc(&ProcSpec{Name: "a", Image: img, DataPages: 1})
	k.textRef[img.ID] = 1
	fp := newFakePort(k.L)
	k.PageFault(fp, a, CodeVBase, false)
	pi, _ := a.MappedPage(CodeVBase)
	k.ExitProc(fp, a)
	if k.F.State(pi.Frame) != kmem.StateCached {
		t.Fatalf("text frame state = %v, want cached", k.F.State(pi.Frame))
	}
	// A new process running the same image reuses the frame, no copy.
	b := k.CreateProc(&ProcSpec{Name: "b", Image: img, DataPages: 1})
	k.textRef[img.ID]++
	ops := len(k.BlockOps)
	k.PageFault(fp, b, CodeVBase, false)
	pb, _ := b.MappedPage(CodeVBase)
	if pb.Frame != pi.Frame {
		t.Error("text frame not reused from cache")
	}
	if len(k.BlockOps) != ops {
		t.Error("reused text page was copied again")
	}
	if k.F.State(pi.Frame) != kmem.StateUsed {
		t.Error("reused frame not reactivated")
	}
}

func TestSginapYields(t *testing.T) {
	k := newTestKernel()
	pr := k.CreateProc(&ProcSpec{Name: "a", DataPages: 1})
	fp := newFakePort(k.L)
	if st := k.Syscall(fp, pr, SyscallReq{Kind: SysSginap}); st != SysYield {
		t.Fatalf("sginap status = %v, want yield", st)
	}
	if OpKindOf(SyscallReq{Kind: SysSginap}) != OpSginap {
		t.Error("sginap op kind wrong")
	}
}

func TestNapAndClockWakeup(t *testing.T) {
	k := newTestKernel()
	pr := k.CreateProc(&ProcSpec{Name: "ed", DataPages: 1})
	fp := newFakePort(k.L)
	fp.now = 1000
	st := k.Syscall(fp, pr, SyscallReq{Kind: SysNap, Dur: 5000})
	if st != SysBlocked {
		t.Fatalf("nap status = %v", st)
	}
	if k.Locks.Get(klock.Calock).Acquires() != 1 {
		t.Error("nap did not touch the callout table under Calock")
	}
	// Clock tick before expiry: nothing wakes.
	k.ClockIntr(fp, nil, 2000)
	if pr.State != StateSleeping {
		t.Fatal("woke too early")
	}
	// After expiry.
	k.ClockIntr(fp, nil, 10000)
	if pr.State != StateReady {
		t.Fatal("nap never expired")
	}
}

func TestPipeReadBlocksUntilWrite(t *testing.T) {
	k := newTestKernel()
	reader := k.CreateProc(&ProcSpec{Name: "ed", DataPages: 1})
	writer := k.CreateProc(&ProcSpec{Name: "typist", DataPages: 1})
	fp := newFakePort(k.L)
	pipe := k.NewPipe()
	st := k.Syscall(fp, reader, SyscallReq{Kind: SysPipeRead, Pipe: pipe, Bytes: 10})
	if st != SysBlocked {
		t.Fatalf("empty pipe read = %v, want blocked", st)
	}
	st = k.Syscall(fp, writer, SyscallReq{Kind: SysPipeWrite, Pipe: pipe, Bytes: 10})
	if st != SysDone {
		t.Fatalf("pipe write = %v", st)
	}
	if reader.State != StateReady {
		t.Fatal("reader not woken by write")
	}
	cont, _ := k.TakeContinuation(reader)
	if st := cont(fp, reader); st != SysDone {
		t.Fatalf("pipe read continuation = %v", st)
	}
	if pipe.Buffered != 0 {
		t.Errorf("pipe buffered = %d after read", pipe.Buffered)
	}
	if k.Locks.FamilyStats(klock.StreamsX).Acquires == 0 {
		t.Error("pipe ops did not use Streams_x locks")
	}
}

func TestMemoryPressureTriggersTraversal(t *testing.T) {
	// Tiny free pool: allocations must reclaim via pfdat traversal.
	k := New(Config{Seed: 1, PrefillCachedFrames: kmem.PageableFrames - 8,
		LowWater: 16, ReclaimTarget: 32})
	pr := k.CreateProc(&ProcSpec{Name: "a", DataPages: 8})
	fp := newFakePort(k.L)
	for _, vp := range pr.FP.DataVPages {
		k.PageFault(fp, pr, vp, false)
	}
	if k.Traversals == 0 {
		t.Fatal("no pfdat traversal under memory pressure")
	}
	if fp.loads[kmem.AttrPfdat] == 0 {
		t.Error("traversal did not sweep the pfdat array")
	}
	saw := false
	for _, b := range k.BlockOps {
		if b.Kind == BlockTraverse {
			saw = true
		}
	}
	if !saw {
		t.Error("traversal not logged as block operation")
	}
}

func TestCodeFrameReallocInvalidatesICache(t *testing.T) {
	k := New(Config{Seed: 1, PrefillCachedFrames: 32})
	img := k.NewImage("cc", 2)
	a := k.CreateProc(&ProcSpec{Name: "a", Image: img, DataPages: 1})
	k.textRef[img.ID] = 1
	fp := newFakePort(k.L)
	k.PageFault(fp, a, CodeVBase, false)
	pi, _ := a.MappedPage(CodeVBase)
	k.ExitProc(fp, a)
	// Drop the text-cache pointer and reclaim everything, so the code
	// frame returns to the free buckets and gets handed out for data.
	delete(k.textCache, img.ID)
	k.F.Reclaim(kmem.PageableFrames)
	for i := 0; i < kmem.PageableFrames && len(fp.icInvals) == 0; i++ {
		k.AllocFrame(fp, kmem.FrameData, 99, uint32(i))
	}
	found := false
	for _, fr := range fp.icInvals {
		if fr == pi.Frame {
			found = true
		}
	}
	if !found {
		t.Errorf("reallocating code frame %d never invalidated the I-caches (invals: %v)",
			pi.Frame, fp.icInvals)
	}
}

func TestDoMiscExecutesColdCode(t *testing.T) {
	k := newTestKernel()
	pr := k.CreateProc(&ProcSpec{Name: "a", DataPages: 1})
	fp := newFakePort(k.L)
	if st := k.Syscall(fp, pr, SyscallReq{Kind: SysMisc}); st != SysDone {
		t.Fatal("misc failed")
	}
	sawFiller := false
	for _, e := range fp.execs {
		if len(e) > 5 && e[:5] == "misc_" {
			sawFiller = true
		}
	}
	if !sawFiller {
		t.Error("SysMisc did not execute a filler routine")
	}
}

func TestOpKindOf(t *testing.T) {
	cases := map[SysKind]OpKind{
		SysRead:   OpIOSyscall,
		SysWrite:  OpIOSyscall,
		SysSginap: OpSginap,
		SysOpen:   OpOtherSyscall,
		SysSpawn:  OpOtherSyscall,
	}
	for sk, want := range cases {
		if got := OpKindOf(SyscallReq{Kind: sk}); got != want {
			t.Errorf("OpKindOf(%d) = %v, want %v", sk, got, want)
		}
	}
}

// TestEventHeapOrdering: each CPU receives exactly the due events
// targeted at it, and none of another CPU's. The order within one CPU is
// not asserted: PopDueEventFor returns the first due match in heap-array
// order, not the earliest (here CPU 0 receives 300 before 200).
func TestEventHeapOrdering(t *testing.T) {
	k := newTestKernel()
	k.postEvent(300, IntrDisk, 1, 0)
	k.postEvent(100, IntrNet, 2, 1)
	k.postEvent(200, IntrDisk, 3, 0)
	if _, ok := k.PopDueEventFor(0, 99); ok {
		t.Error("an event popped before it was due")
	}
	got := map[arch.CPUID][]arch.Cycles{}
	for _, cpu := range []arch.CPUID{0, 1, 2} {
		for {
			ev, ok := k.PopDueEventFor(cpu, 1000)
			if !ok {
				break
			}
			if ev.CPU != cpu {
				t.Errorf("CPU %d received CPU %d's event at %d", cpu, ev.CPU, ev.At)
			}
			got[cpu] = append(got[cpu], ev.At)
		}
	}
	sort.Slice(got[0], func(i, j int) bool { return got[0][i] < got[0][j] })
	if !reflect.DeepEqual(got, map[arch.CPUID][]arch.Cycles{0: {200, 300}, 1: {100}}) {
		t.Errorf("events per CPU = %v, want 0: [200 300], 1: [100]", got)
	}
	if _, ok := k.PopDueEventFor(0, 1000); ok {
		t.Error("pop from empty heap succeeded")
	}
}

func TestExceptionTouchesEframe(t *testing.T) {
	k := newTestKernel()
	pr := k.CreateProc(&ProcSpec{Name: "a", DataPages: 1})
	fp := newFakePort(k.L)
	k.EnterException(fp, pr)
	k.ExitException(fp, pr)
	if fp.stores[kmem.AttrEframe] != kmem.EframeSize {
		t.Errorf("eframe stores = %d, want %d", fp.stores[kmem.AttrEframe], kmem.EframeSize)
	}
	if fp.loads[kmem.AttrEframe] != kmem.EframeSize {
		t.Errorf("eframe loads = %d", fp.loads[kmem.AttrEframe])
	}
}

func TestRawIOBypassesPageCache(t *testing.T) {
	k := newTestKernel()
	pr := k.CreateProc(&ProcSpec{Name: "db", DataPages: 2})
	fp := newFakePort(k.L)
	k.ContextSwitch(fp, nil, false)
	k.PageFault(fp, pr, pr.FP.DataVPages[0], false)
	before := len(k.BlockOps)
	st := k.Syscall(fp, pr, SyscallReq{Kind: SysRead, Raw: true, Inode: 9, Bytes: 4096})
	if st != SysBlocked {
		t.Fatalf("raw read status = %v", st)
	}
	// DMA: no kernel block copy, and no page-cache frame allocated.
	for _, op := range k.BlockOps[before:] {
		if op.Kind == BlockCopy && op.Why == "transfer out of buffer cache" {
			t.Error("raw read copied through the page cache")
		}
	}
	if _, hit := k.fileCache[fileKey{inode: 9, page: 0}]; hit {
		t.Error("raw read populated the page cache")
	}
	// The physio path pinned the user buffer under Memlock.
	if k.Locks.Get(klock.Memlock).Acquires() == 0 {
		t.Error("raw read did not pin pages under Memlock")
	}
	// Completion wakes the reader.
	ev, ok := k.PopDueEventFor(fp.CPU(), 1<<62)
	if !ok {
		t.Fatal("no disk completion scheduled")
	}
	k.DiskIntr(fp, ev.Ch)
	if pr.State != StateReady {
		t.Error("raw reader not woken")
	}
}

func TestRawWriteIsAsync(t *testing.T) {
	k := newTestKernel()
	pr := k.CreateProc(&ProcSpec{Name: "db", DataPages: 1})
	fp := newFakePort(k.L)
	k.PageFault(fp, pr, pr.FP.DataVPages[0], false)
	st := k.Syscall(fp, pr, SyscallReq{Kind: SysWrite, Raw: true, Inode: 9, Bytes: 256})
	if st != SysDone {
		t.Fatalf("raw write status = %v (should not sleep)", st)
	}
	if k.DiskRequests == 0 {
		t.Error("raw write issued no disk request")
	}
}

func TestSemopUsesSemlockArray(t *testing.T) {
	k := newTestKernel()
	pr := k.CreateProc(&ProcSpec{Name: "db", DataPages: 1})
	fp := newFakePort(k.L)
	if st := k.Syscall(fp, pr, SyscallReq{Kind: SysSemop, Sem: 3}); st != SysDone {
		t.Fatal("semop failed")
	}
	if got := k.Locks.FamilyStats(klock.Semlock).Acquires; got != 4 {
		t.Errorf("Semlock acquires = %d, want 4 (one per sembuf)", got)
	}
}

func TestMemlockNotHeldAcrossTraversal(t *testing.T) {
	// Regression: AllocFrame used to hold Memlock across the whole pfdat
	// traversal, creating spin storms. The traversal must run unlocked.
	k := New(Config{Seed: 1, PrefillCachedFrames: kmem.PageableFrames - 8,
		LowWater: 1 << 30 /* force traversal on every alloc */})
	pr := k.CreateProc(&ProcSpec{Name: "a", DataPages: 1})
	fp := newFakePort(k.L)
	k.PageFault(fp, pr, pr.FP.DataVPages[0], false)
	if k.Traversals == 0 {
		t.Fatal("traversal not forced")
	}
	mem := k.Locks.Get(klock.Memlock)
	if mem.Held() {
		t.Fatal("Memlock leaked")
	}
	st := mem.ComputeStats()
	// The hold interval must be short: attempts ≈ acquires (no storm).
	if st.Attempts > 2*st.Acquires {
		t.Errorf("Memlock spin storm: %d attempts for %d acquires", st.Attempts, st.Acquires)
	}
}

func TestOptimizedTextLayout(t *testing.T) {
	opt := NewKTextOptimized(0, arch.Default())
	std := NewKText(0, arch.Default())
	if opt.TotalSize != kmem.KernelTextSize {
		t.Fatalf("optimized image size = %d", opt.TotalSize)
	}
	// Same routine inventory under both layouts.
	if len(opt.Routines) < len(kernelImage) {
		t.Fatal("optimized layout lost routines")
	}
	for _, spec := range kernelImage {
		if opt.R(spec.name).Size != std.R(spec.name).Size {
			t.Errorf("routine %s size differs across layouts", spec.name)
		}
	}
	// No overlaps, sorted by address.
	for i := 1; i < len(opt.Routines); i++ {
		prev, cur := opt.Routines[i-1], opt.Routines[i]
		if cur.Addr < prev.Addr+arch.PAddr(prev.Size) {
			t.Fatalf("%s overlaps %s", cur.Name, prev.Name)
		}
	}
	// The protection property: no warm routine shares an I-cache offset
	// with a hot routine.
	hotEnd := uint32(0)
	for name := range hotRoutines {
		r := opt.R(name)
		end := uint32(r.Addr) + r.Size
		if uint32(r.Addr)/arch.ICacheSize != 0 {
			t.Errorf("hot routine %s left bank 0 (addr %#x)", name, r.Addr)
		}
		if end > hotEnd {
			hotEnd = end
		}
	}
	for _, spec := range kernelImage {
		if hotRoutines[spec.name] {
			continue
		}
		r := opt.R(spec.name)
		lo := uint32(r.Addr) % arch.ICacheSize
		if lo < hotEnd {
			t.Errorf("warm routine %s at offset %#x collides with hot sets [0,%#x)",
				spec.name, lo, hotEnd)
		}
	}
	// At() still works after re-sorting.
	sw := opt.R("swtch")
	if opt.At(sw.Addr+4) != sw {
		t.Error("At() broken under optimized layout")
	}
}

func TestOpenCloseTouchInodes(t *testing.T) {
	k := newTestKernel()
	pr := k.CreateProc(&ProcSpec{Name: "a", DataPages: 1})
	fp := newFakePort(k.L)
	if st := k.Syscall(fp, pr, SyscallReq{Kind: SysOpen, Inode: 17}); st != SysDone {
		t.Fatal("open failed")
	}
	if st := k.Syscall(fp, pr, SyscallReq{Kind: SysClose, Inode: 17}); st != SysDone {
		t.Fatal("close failed")
	}
	if k.Locks.Get(klock.Ifree).Acquires() != 2 {
		t.Errorf("Ifree acquires = %d, want 2", k.Locks.Get(klock.Ifree).Acquires())
	}
	if fp.loads[kmem.AttrInode] == 0 || fp.stores[kmem.AttrInode] == 0 {
		t.Error("open/close did not touch the inode table")
	}
	if execCount(fp, "namei") != 1 {
		t.Error("open did not run the name lookup")
	}
	// Open initializes inode-related structures (an irregular clear).
	sawInit := false
	for _, b := range k.BlockOps {
		if b.Kind == BlockClear && b.Why == "kernel structure init" {
			sawInit = true
		}
	}
	if !sawInit {
		t.Error("open logged no structure-init clear")
	}
}

func TestBrkGrowsHeapLazily(t *testing.T) {
	k := newTestKernel()
	pr := k.CreateProc(&ProcSpec{Name: "a", DataPages: 2})
	fp := newFakePort(k.L)
	before := len(pr.FP.DataVPages)
	free0 := k.F.FreeCount()
	if st := k.Syscall(fp, pr, SyscallReq{Kind: SysBrk, Bytes: 3 * arch.PageSize}); st != SysDone {
		t.Fatal("brk failed")
	}
	if got := len(pr.FP.DataVPages) - before; got != 3 {
		t.Errorf("brk grew %d pages, want 3", got)
	}
	if k.F.FreeCount() != free0 {
		t.Error("brk allocated frames eagerly; pages must fault in on demand")
	}
	// The new page faults in as demand-zero.
	vp := pr.FP.DataVPages[len(pr.FP.DataVPages)-1]
	k.PageFault(fp, pr, vp, true)
	if !k.IsMapped(pr, vp) {
		t.Error("brk page did not map on fault")
	}
}

func TestWireAllBut(t *testing.T) {
	k := New(Config{Seed: 1, PrefillCachedFrames: 2000})
	k.WireAllBut(128)
	if got := k.F.FreeCount(); got != 128 {
		t.Errorf("free after wiring = %d, want 128", got)
	}
	if k.F.CachedCount() != 0 {
		t.Errorf("cached after wiring = %d, want 0", k.F.CachedCount())
	}
	// The boot page cache was purged along with its frames.
	if len(k.fileCache) != 0 {
		t.Errorf("stale fileCache entries: %d", len(k.fileCache))
	}
}

func TestCodeFramesDump(t *testing.T) {
	k := newTestKernel()
	img := k.NewImage("cc", 3)
	pr := k.CreateProc(&ProcSpec{Name: "a", Image: img, Premap: true, DataPages: 1})
	_ = pr
	frames := k.CodeFrames()
	if len(frames) != 3 {
		t.Fatalf("CodeFrames = %d, want 3", len(frames))
	}
	for _, fr := range frames {
		if k.F.State(fr) == kmem.StateFree {
			t.Error("reported code frame is free")
		}
	}
	// Deterministic order (sorted by image id).
	again := k.CodeFrames()
	for i := range frames {
		if frames[i] != again[i] {
			t.Fatal("CodeFrames order not deterministic")
		}
	}
}

func TestPremapMapsEverything(t *testing.T) {
	k := newTestKernel()
	img := k.NewImage("db", 4)
	leader := k.CreateProc(&ProcSpec{Name: "lead", Image: img, Premap: true,
		DataPages: 3, SharedPages: 5})
	follower := k.CreateProc(&ProcSpec{Name: "w", Image: img, Premap: true,
		DataPages: 2, SharedWith: leader})
	for _, vp := range leader.FP.CodeVPages {
		if !k.IsMapped(leader, vp) {
			t.Fatalf("leader code page %d unmapped", vp)
		}
	}
	for _, vp := range follower.FP.SharedVPages {
		a, _ := follower.MappedPage(vp)
		b, _ := leader.MappedPage(vp)
		if a.Frame != b.Frame {
			t.Fatal("premapped shared pages differ between leader and follower")
		}
	}
	// Premapped text is shared: same frames for both images' views.
	fa, _ := leader.MappedPage(CodeVBase)
	fb, _ := follower.MappedPage(CodeVBase)
	if fa.Frame != fb.Frame {
		t.Error("premapped text not shared")
	}
}
