package trace

import (
	"slices"
	"testing"
	"unsafe"

	"repro/internal/arch"
	"repro/internal/bus"
	"repro/internal/kernel"
	"repro/internal/kmem"
	"repro/internal/monitor"
)

// txn builders for synthetic traces.
func read(cpu arch.CPUID, a arch.PAddr, tick uint64) bus.Txn {
	return bus.Txn{Kind: bus.TxnRead, CPU: cpu, Addr: a.Block(), Ticks: tick}
}
func readex(cpu arch.CPUID, a arch.PAddr, tick uint64) bus.Txn {
	return bus.Txn{Kind: bus.TxnReadEx, CPU: cpu, Addr: a.Block(), Ticks: tick}
}
func upgrade(cpu arch.CPUID, a arch.PAddr, tick uint64) bus.Txn {
	return bus.Txn{Kind: bus.TxnUpgrade, CPU: cpu, Addr: a.Block(), Ticks: tick}
}
func esc(cpu arch.CPUID, ev monitor.Event, tick uint64, args ...uint32) []bus.Txn {
	out := []bus.Txn{{Kind: bus.TxnUncached, CPU: cpu, Addr: monitor.EventAddr(ev), Ticks: tick}}
	for _, v := range args {
		out = append(out, bus.Txn{Kind: bus.TxnUncached, CPU: cpu, Addr: monitor.OperandAddr(v), Ticks: tick})
	}
	return out
}

func newEnv() (*kernel.KText, *kmem.Layout) {
	l := kmem.NewLayout(arch.Default())
	return kernel.NewKText(l.KernelText.Base, arch.Default()), l
}

// enterOS/exitOS convenience wrappers.
func enterOS(cpu arch.CPUID, op kernel.OpKind, tick uint64) []bus.Txn {
	return esc(cpu, monitor.EvEnterOS, tick, uint32(op), 1)
}
func exitOS(cpu arch.CPUID, tick uint64) []bus.Txn {
	return esc(cpu, monitor.EvExitOS, tick)
}

func classify(t *testing.T, txns []bus.Txn) *Result {
	t.Helper()
	kt, l := newEnv()
	return classifyTrace(txns, kt, l, 4)
}

// classifyTrace feeds a whole trace to a fresh classifier.
func classifyTrace(txns []bus.Txn, kt *kernel.KText, layout *kmem.Layout, ncpu int) *Result {
	c := NewClassifier(kt, layout, ncpu)
	for _, t := range txns {
		c.Feed(t)
	}
	return c.Finish()
}

func cat(seqs ...[]bus.Txn) []bus.Txn {
	var out []bus.Txn
	for _, s := range seqs {
		out = append(out, s...)
	}
	return out
}

func TestColdAndDisposClassification(t *testing.T) {
	kt, l := newEnv()
	_ = l
	// Two kernel-text blocks mapping to the same I-cache set
	// (64 KB apart), inside OS windows.
	a := kt.R("swtch").Addr
	b := a + arch.ICacheSize
	txns := cat(
		enterOS(0, kernel.OpIOSyscall, 10),
		[]bus.Txn{read(0, a, 11)}, // cold
		[]bus.Txn{read(0, b, 12)}, // cold; displaces a (OS displacer)
		[]bus.Txn{read(0, a, 13)}, // Dispos (and Dispossame: no app between)
		exitOS(0, 14),
	)
	r := classify(t, txns)
	osI := r.Counts[1][1]
	if osI[Cold] != 2 {
		t.Errorf("cold OS I-misses = %d, want 2", osI[Cold])
	}
	if osI[DispOS] != 1 {
		t.Errorf("Dispos = %d, want 1", osI[DispOS])
	}
	if r.DispossameI != 1 {
		t.Errorf("DispossameI = %d, want 1", r.DispossameI)
	}
	if r.OSMissTotal != 3 || r.Total != 3 {
		t.Errorf("totals: OS=%d all=%d", r.OSMissTotal, r.Total)
	}
}

func TestDispossameRequiresNoInterveningApp(t *testing.T) {
	kt, _ := newEnv()
	a := kt.R("swtch").Addr
	b := a + arch.ICacheSize
	userCode := arch.FrameAddr(kmem.FirstUserFrame) // data frame → app data miss
	txns := cat(
		enterOS(0, kernel.OpIOSyscall, 10),
		[]bus.Txn{read(0, a, 11), read(0, b, 12)},
		exitOS(0, 13),
		[]bus.Txn{read(0, userCode, 14)}, // app runs
		enterOS(0, kernel.OpIOSyscall, 15),
		[]bus.Txn{read(0, a, 16)}, // Dispos but NOT Dispossame
		exitOS(0, 17),
	)
	r := classify(t, txns)
	if r.Counts[1][1][DispOS] != 1 {
		t.Fatalf("Dispos = %d, want 1", r.Counts[1][1][DispOS])
	}
	if r.DispossameI != 0 {
		t.Errorf("DispossameI = %d, want 0 (app intervened)", r.DispossameI)
	}
}

func TestDispapClassification(t *testing.T) {
	kt, _ := newEnv()
	a := kt.R("swtch").Addr
	// An application code frame whose blocks conflict with a.
	frame := kmem.FirstUserFrame
	// Align the conflict: user block with same I-set as a: choose
	// address ≡ a mod 64K within the user frame... use page-alloc to
	// mark frame as code, then fetch the conflicting block.
	conflictInFrame := arch.FrameAddr(frame) +
		arch.PAddr((uint32(a)>>arch.BlockShift%uint32(arch.Default().ICacheSize/arch.BlockSize))<<arch.BlockShift%arch.PageSize)
	// conflictInFrame only matches the set if frame base ≡ 0 mod 64K.
	// FirstUserFrame = 1600 → addr 1600*4096 = 0x640000, multiple of
	// 64 KB ✓.
	txns := cat(
		enterOS(0, kernel.OpIOSyscall, 10),
		[]bus.Txn{read(0, a, 11)},
		exitOS(0, 12),
		esc(0, monitor.EvPageAlloc, 13, frame, uint32(kmem.FrameCode)),
		[]bus.Txn{read(0, conflictInFrame, 14)}, // app I-fetch displaces a
		enterOS(0, kernel.OpIOSyscall, 15),
		[]bus.Txn{read(0, a, 16)}, // Dispap
		exitOS(0, 17),
	)
	r := classify(t, txns)
	if got := r.Counts[1][1][DispApp]; got != 1 {
		t.Errorf("OS I Dispap = %d, want 1 (counts: %+v)", got, r.Counts)
	}
	if got := r.Counts[0][1][Cold]; got != 1 {
		t.Errorf("app I cold = %d, want 1", got)
	}
}

func TestSharingClassification(t *testing.T) {
	_, l := newEnv()
	a := l.RunQueue.Base
	txns := cat(
		enterOS(0, kernel.OpIOSyscall, 10),
		[]bus.Txn{read(0, a, 11)}, // CPU0 cold
		exitOS(0, 12),
		enterOS(1, kernel.OpIOSyscall, 13),
		[]bus.Txn{readex(1, a, 14)}, // CPU1 write: invalidates CPU0
		exitOS(1, 15),
		enterOS(0, kernel.OpIOSyscall, 16),
		[]bus.Txn{read(0, a, 17)}, // CPU0 re-read: Sharing
		exitOS(0, 18),
	)
	r := classify(t, txns)
	osD := r.Counts[1][0]
	if osD[Sharing] != 1 {
		t.Errorf("Sharing = %d, want 1 (%+v)", osD[Sharing], osD)
	}
	if osD[Cold] != 2 {
		t.Errorf("Cold = %d, want 2", osD[Cold])
	}
	// The run-queue miss is attributed to its structure.
	if r.StructSharing[kmem.AttrRunQueue] != 1 {
		t.Errorf("run-queue sharing attribution missing: %+v", r.StructSharing)
	}
}

func TestUpgradeCountsAsSharing(t *testing.T) {
	_, l := newEnv()
	a := l.RunQueue.Base
	txns := cat(
		enterOS(0, kernel.OpIOSyscall, 10),
		[]bus.Txn{read(0, a, 11), upgrade(0, a, 12)},
		exitOS(0, 13),
	)
	r := classify(t, txns)
	if r.Counts[1][0][Sharing] != 1 {
		t.Errorf("upgrade not counted as sharing: %+v", r.Counts[1][0])
	}
}

func TestInvalClassification(t *testing.T) {
	kt, _ := newEnv()
	_ = kt
	frame := kmem.FirstUserFrame + 3
	a := arch.FrameAddr(frame)
	txns := cat(
		esc(0, monitor.EvPageAlloc, 9, frame, uint32(kmem.FrameCode)),
		[]bus.Txn{read(0, a, 10)}, // app code fetch, cold
		esc(1, monitor.EvICacheInval, 11, frame),
		[]bus.Txn{read(0, a, 12)}, // Inval miss
	)
	r := classify(t, txns)
	appI := r.Counts[0][1]
	if appI[Cold] != 1 || appI[Inval] != 1 {
		t.Errorf("app I counts = %+v, want 1 cold + 1 inval", appI)
	}
}

func TestMigrationAttribution(t *testing.T) {
	kt, l := newEnv()
	pcb := l.UStructAddr(3)
	sw := kt.R("swtch")
	txns := cat(
		enterOS(0, kernel.OpOtherSyscall, 10),
		esc(0, monitor.EvRoutineEnter, 10, uint32(sw.ID)),
		[]bus.Txn{readex(0, pcb, 11)}, // CPU0 writes the PCB
		exitOS(0, 12),
		enterOS(1, kernel.OpOtherSyscall, 13),
		esc(1, monitor.EvRoutineEnter, 13, uint32(sw.ID)),
		[]bus.Txn{readex(1, pcb, 14)}, // CPU1 writes it → CPU0 invalid
		exitOS(1, 15),
		enterOS(0, kernel.OpOtherSyscall, 16),
		esc(0, monitor.EvRoutineEnter, 16, uint32(sw.ID)),
		[]bus.Txn{read(0, pcb, 17)}, // Sharing miss on the PCB in swtch
		exitOS(0, 18),
	)
	r := classify(t, txns)
	if r.MigrationTotal != 2 { // CPU1's readex was also a sharing...
		// CPU1's readex on a block it never held is Cold, not
		// sharing; only CPU0's re-read is a migration miss.
		if r.MigrationTotal != 1 {
			t.Fatalf("MigrationTotal = %d", r.MigrationTotal)
		}
	}
	if r.MigrationByStruct[FamilyUserStruct] == 0 {
		t.Errorf("migration struct attribution: %+v", r.MigrationByStruct)
	}
	if r.MigrationByGroup[kernel.GroupRunQueue] == 0 {
		t.Errorf("migration group attribution: %+v", r.MigrationByGroup)
	}
}

func TestUTLBMissesAttributedToCheapTLB(t *testing.T) {
	kt, _ := newEnv()
	utlb := kt.R("utlbmiss")
	txns := cat(
		exitOS(0, 5),
		// In an app stretch (no OS window): kernel-address miss = the
		// UTLB handler.
		esc(0, monitor.EvUTLB, 10, 5),
		[]bus.Txn{read(0, utlb.Addr, 11)},
		enterOS(0, kernel.OpOtherSyscall, 20), // closes the app stretch
	)
	r := classify(t, txns)
	if r.Timeline.AppUTLBs != 1 {
		t.Errorf("AppUTLBs = %d", r.Timeline.AppUTLBs)
	}
	if r.Timeline.AppUTLBMisses != 1 {
		t.Errorf("AppUTLBMisses = %d", r.Timeline.AppUTLBMisses)
	}
	if r.OpMisses[kernel.OpCheapTLB][1] != 1 {
		t.Errorf("cheap-TLB op attribution: %+v", r.OpMisses[kernel.OpCheapTLB])
	}
	// It still counts as an OS miss.
	if r.OSMissTotal != 1 {
		t.Errorf("OSMissTotal = %d", r.OSMissTotal)
	}
}

func TestIdleMissesExcluded(t *testing.T) {
	_, l := newEnv()
	txns := cat(
		enterOS(0, kernel.OpOtherSyscall, 10),
		esc(0, monitor.EvEnterIdle, 11),
		[]bus.Txn{read(0, l.RunQueue.Base, 12)}, // idle-loop poll miss
		esc(0, monitor.EvExitIdle, 13),
		exitOS(0, 14),
	)
	r := classify(t, txns)
	if r.IdleMisses != 1 {
		t.Errorf("IdleMisses = %d, want 1", r.IdleMisses)
	}
	if r.Total != 0 {
		t.Errorf("idle miss counted in totals: %d", r.Total)
	}
}

func TestBlockOpAttribution(t *testing.T) {
	kt, _ := newEnv()
	bc := kt.R("bcopy")
	userPage := arch.FrameAddr(kmem.FirstUserFrame + 8)
	txns := cat(
		enterOS(0, kernel.OpIOSyscall, 10),
		esc(0, monitor.EvRoutineEnter, 10, uint32(bc.ID)),
		[]bus.Txn{read(0, userPage, 11), readex(0, userPage+16, 12)},
		exitOS(0, 13),
	)
	r := classify(t, txns)
	if r.BlockOpDMisses["bcopy"] != 2 {
		t.Errorf("bcopy misses = %d, want 2", r.BlockOpDMisses["bcopy"])
	}
	if r.StructAll[kmem.AttrBcopy] != 2 {
		t.Errorf("Bcopy struct attribution = %+v", r.StructAll)
	}
	if r.OpMisses[kernel.OpIOSyscall][0] != 2 {
		t.Errorf("I/O op attribution: %+v", r.OpMisses[kernel.OpIOSyscall])
	}
}

func TestTimeline(t *testing.T) {
	kt, _ := newEnv()
	a := kt.R("swtch").Addr
	txns := cat(
		enterOS(0, kernel.OpIOSyscall, 100),
		[]bus.Txn{read(0, a, 110)},
		exitOS(0, 200), // OS stretch: 100 ticks = 200 cycles, 1 I-miss
		esc(0, monitor.EvUTLB, 250, 1),
		enterOS(0, kernel.OpInterrupt, 300), // app stretch: 100 ticks
		esc(0, monitor.EvEnterIdle, 350),
		esc(0, monitor.EvExitIdle, 400),
		exitOS(0, 450),
		exitOS(0, 460), // dangling exit opens app; drop tail
	)
	tl := classify(t, txns).Timeline
	// The idle-interrupted invocation counts once, with its two OS
	// pieces summed and the idle piece left out.
	if want := (Stretch{N: 2, Cycles: 400, IMiss: 1}); tl.OS != want {
		t.Errorf("OS = %+v, want %+v", tl.OS, want)
	}
	if want := (Stretch{N: 1, Cycles: 100}); tl.Idle != want {
		t.Errorf("Idle = %+v, want %+v", tl.Idle, want)
	}
	if want := (Stretch{N: 2, Cycles: 220}); tl.App != want {
		t.Errorf("App = %+v, want %+v", tl.App, want)
	}
	if tl.AppUTLBs != 1 {
		t.Errorf("AppUTLBs = %d, want 1", tl.AppUTLBs)
	}
	if tl.OSIMiss.N != 2 || tl.OSCycles.Sum != 400 || tl.AppCycles.N != 2 {
		t.Errorf("histograms: OSIMiss.N %d, OSCycles.Sum %g, AppCycles.N %d; want 2, 400, 2",
			tl.OSIMiss.N, tl.OSCycles.Sum, tl.AppCycles.N)
	}
}

func TestDisposIByRoutine(t *testing.T) {
	kt, _ := newEnv()
	sw := kt.R("swtch")
	conflict := sw.Addr + arch.ICacheSize
	txns := cat(
		enterOS(0, kernel.OpOtherSyscall, 10),
		[]bus.Txn{read(0, sw.Addr, 11), read(0, conflict, 12), read(0, sw.Addr, 13)},
		exitOS(0, 14),
	)
	r := classify(t, txns)
	if r.DisposIByRoutine[sw.ID] != 1 {
		t.Errorf("Dispos by routine: %+v", r.DisposIByRoutine)
	}
}

func TestReusedWithinInvocation(t *testing.T) {
	kt, _ := newEnv()
	a := kt.R("swtch").Addr
	b := a + arch.ICacheSize
	txns := cat(
		enterOS(0, kernel.OpOtherSyscall, 10),
		// a filled, then b displaces it in the same invocation: the
		// set is refilled → reuse counter.
		[]bus.Txn{read(0, a, 11), read(0, b, 12)},
		exitOS(0, 13),
	)
	r := classify(t, txns)
	if r.ReusedWithinInvocation != 1 {
		t.Errorf("ReusedWithinInvocation = %d, want 1", r.ReusedWithinInvocation)
	}
}

// TestResimStreamChunks: a stream longer than one chunk flattens to exactly
// the events added, in order; a stream within one chunk is that chunk; and
// the packed events stay 8 bytes.
func TestResimStreamChunks(t *testing.T) {
	if a, b := unsafe.Sizeof(IResimEvent{}), unsafe.Sizeof(DResimEvent{}); a != 8 || b != 8 {
		t.Errorf("IResimEvent is %d bytes and DResimEvent %d, want 8 and 8", a, b)
	}
	var none resimStream[IResimEvent]
	if got := none.flat(); got != nil {
		t.Errorf("empty stream flattens to %v, want nil", got)
	}
	for _, n := range []int{1, resimChunk, 2*resimChunk + 7} {
		var s resimStream[IResimEvent]
		for i := 0; i < n; i++ {
			s.add(IResimEvent{Block: uint32(i), CPU: uint8(i % 3), OS: i%2 == 0})
		}
		got := s.flat()
		if len(got) != n {
			t.Fatalf("%d events flatten to %d", n, len(got))
		}
		for i, e := range got {
			if want := (IResimEvent{Block: uint32(i), CPU: uint8(i % 3), OS: i%2 == 0}); e != want {
				t.Fatalf("%d events: event %d is %+v, want %+v", n, i, e, want)
			}
		}
	}
}

// recordingSink is an IMissSink that keeps what it is fed.
type recordingSink struct {
	events []IResimEvent
	ends   int
}

func (r *recordingSink) Add(e IResimEvent) { r.events = append(r.events, e) }
func (r *recordingSink) End()              { r.ends++ }

// TestIMissSubscriberSeesStoredStream: a subscriber to the I-miss stream is
// fed exactly the sequence CollectIResim stores — application and kernel
// fills, an idle-loop fill (OS false), the flush marker of an I-cache
// invalidation, and no data fills — and Finish ends its stream once.
func TestIMissSubscriberSeesStoredStream(t *testing.T) {
	kt, l := newEnv()
	frame := kmem.FirstUserFrame + 3
	code, ktext := arch.FrameAddr(frame), l.KernelText.Base
	block := func(a arch.PAddr) uint32 { return uint32(a) >> arch.BlockShift }
	txns := cat(
		esc(0, monitor.EvPageAlloc, 9, frame, uint32(kmem.FrameCode)),
		[]bus.Txn{read(0, code, 10)}, // application code fetch
		enterOS(1, kernel.OpOtherSyscall, 11),
		[]bus.Txn{read(1, ktext, 12), read(1, l.RunQueue.Base, 13)}, // kernel fetch, then a data fill
		esc(1, monitor.EvEnterIdle, 14),
		[]bus.Txn{read(1, ktext+arch.BlockSize, 15)}, // idle-loop fetch
		esc(1, monitor.EvExitIdle, 16),
		esc(2, monitor.EvICacheInval, 17, frame),
		[]bus.Txn{read(0, code, 18), read(1, ktext, 19)},
	)
	want := []IResimEvent{
		{Block: block(code), CPU: 0},
		{Block: block(ktext), CPU: 1, OS: true},
		{Block: block(ktext + arch.BlockSize), CPU: 1},
		{Flush: true},
		{Block: block(code), CPU: 0},
		{Block: block(ktext), CPU: 1, OS: true},
	}
	c := NewClassifier(kt, l, 4)
	c.CollectIResim = true
	var sink recordingSink
	c.SubscribeIMisses(&sink)
	for _, tx := range txns {
		c.Feed(tx)
	}
	if sink.ends != 0 {
		t.Fatal("the stream ended before Finish")
	}
	r := c.Finish()
	if sink.ends != 1 {
		t.Errorf("Finish ended the stream %d times, want once", sink.ends)
	}
	if !slices.Equal(r.IResim, want) {
		t.Errorf("stored stream %+v, want %+v", r.IResim, want)
	}
	if !slices.Equal(sink.events, r.IResim) {
		t.Errorf("subscriber saw %+v, the stored stream is %+v", sink.events, r.IResim)
	}
}
