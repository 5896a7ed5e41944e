// Package sim is the execution engine: it interleaves the CPUs of the
// simulated multiprocessor by always stepping the one with the smallest
// local clock, runs user processes (generating their instruction and data
// reference streams through the TLBs, caches and bus) and invokes the
// kernel for system calls, TLB faults and interrupts. The attached
// hardware monitor records the resulting bus-transaction trace, which the
// trace package postprocesses exactly as the paper's pipeline does.
package sim

import (
	"repro/internal/arch"
	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/kernel"
	"repro/internal/klock"
	"repro/internal/monitor"
	"repro/internal/tlb"
)

// CPU is one processor. It implements kernel.Port: every kernel or user
// reference advances its local clock and drives the shared cache/bus
// complex.
type CPU struct {
	id  arch.CPUID
	sim *Simulator

	now  arch.Cycles
	mode arch.Mode

	cur  *kernel.Proc
	tlb  *tlb.TLB
	inOS bool // between EnterOS and ExitOS escapes

	curRoutine    *kernel.Routine
	nextClockTick arch.Cycles
	curOp         kernel.OpKind
	osStart       arch.Cycles

	// ic and dc are this CPU's own caches, for the hit filter: a fetch,
	// load or store that hits without changing any line is charged here
	// and never reaches the bus (fetch, dataRef).
	ic *cache.Cache
	dc *cache.DataHierarchy
	// hitFilter is false when a checker is attached: it must see every
	// reference. The filter is also off on the -reference oracle path,
	// where the probes themselves return false.
	hitFilter bool

	// Micro-TLB: the last code and the last data translation, one entry
	// each, so the TLB lookup only runs on page boundaries.
	codeTLB, dataTLB microTLB

	// Accounting (cycles include stall time; Stall and L2Stall are the
	// contained stall components; SyncCycles is sync-bus time).
	Time       [3]arch.Cycles // by arch.Mode
	Stall      [3]arch.Cycles
	L2Stall    [3]arch.Cycles
	SyncCycles arch.Cycles

	needSync bool // emit state-sync escapes when tracing starts
}

// adv charges c cycles to the current mode.
func (c *CPU) adv(cy arch.Cycles) {
	c.now += cy
	c.Time[c.mode] += cy
}

func (c *CPU) advStall(cy arch.Cycles) {
	c.now += cy
	c.Time[c.mode] += cy
	c.Stall[c.mode] += cy
}

func (c *CPU) advL2(cy arch.Cycles) {
	c.now += cy
	c.Time[c.mode] += cy
	c.L2Stall[c.mode] += cy
}

// microTLB is a one-entry translation cache.
type microTLB struct {
	pid    arch.PID
	vp, fr uint32
	ok     bool
	// wr marks the entry as validated for stores (the copy-on-write
	// check already ran for this page). Any code that sets PageInfo.COW
	// on an already-mapped page must flush the micro-TLBs, as TLB
	// insert/invalidate and context switches do.
	wr bool
}

// hit reports whether the entry translates (pid, vp) for a load or fetch
// (write=false) or a store.
func (e *microTLB) hit(pid arch.PID, vp uint32, write bool) bool {
	return e.ok && e.pid == pid && e.vp == vp && (!write || e.wr)
}

// flushMicroTLB invalidates the one-entry translation caches (after any
// TLB-affecting operation).
func (c *CPU) flushMicroTLB() {
	c.codeTLB.ok = false
	c.dataTLB.ok = false
}

// fetch issues one instruction-block fetch and charges its time. A hit
// the filter answers here moves no line, statistic or recorder and starts
// no bus transaction, so it needs no pollCancel either.
func (c *CPU) fetch(a arch.PAddr) {
	var o bus.Outcome
	if !(c.hitFilter && c.ic.ReadHit(a)) {
		c.sim.pollCancel(c)
		o = c.sim.Bus.Fetch(c.id, a, c.now)
	}
	c.adv(arch.InstrPerBlock) // one cycle per instruction
	if o.Stall > 0 {
		c.advStall(o.Stall)
	}
}

// ---- kernel.Port implementation ----

// CPU returns the processor id.
func (c *CPU) CPU() arch.CPUID { return c.id }

// Now returns the local clock.
func (c *CPU) Now() arch.Cycles { return c.now }

// Exec fetches the routine's instruction blocks in order (kernel code is
// physically addressed and bypasses the TLB) and emits the routine-entry
// escape used for data-structure attribution (Section 2.2).
func (c *CPU) Exec(r *kernel.Routine) {
	c.curRoutine = r
	c.Escape(monitor.EvRoutineEnter, uint32(r.ID))
	c.fetchRoutine(r)
}

// execQuiet fetches a routine without the attribution escape — used for
// the tiny leaf helpers (lock primitives, idle loop) whose entry would
// otherwise clobber the attribution of their caller's data accesses.
func (c *CPU) execQuiet(r *kernel.Routine) { c.fetchRoutine(r) }

func (c *CPU) fetchRoutine(r *kernel.Routine) {
	blocks := r.Blocks()
	for i := 0; i < blocks; i++ {
		c.fetch(r.Addr + arch.PAddr(i*arch.BlockSize))
	}
}

// Load reads n bytes of physical memory block by block.
func (c *CPU) Load(a arch.PAddr, n int) { c.data(a, n, false) }

// Store writes n bytes.
func (c *CPU) Store(a arch.PAddr, n int) { c.data(a, n, true) }

func (c *CPU) data(a arch.PAddr, n int, write bool) {
	end := a + arch.PAddr(n)
	for b := a.Block(); b < end; b += arch.BlockSize {
		c.dataRef(b, write)
	}
}

// dataRef issues one block-granular data reference and charges its time.
func (c *CPU) dataRef(a arch.PAddr, write bool) {
	var o bus.Outcome
	if !(c.hitFilter && (write && c.dc.WriteHit(a) || !write && c.dc.ReadHitL1(a))) {
		// Not a hit the filter can answer here (see fetch).
		c.sim.pollCancel(c)
		if write {
			o = c.sim.Bus.Write(c.id, a, c.now)
		} else {
			o = c.sim.Bus.Read(c.id, a, c.now)
		}
	}
	c.adv(1)
	switch {
	case o.Missed, o.Upgraded:
		c.advStall(o.Stall)
	case o.L2Hit:
		c.advL2(o.Stall)
	}
}

// LoadBypass reads n bytes without filling the caches.
func (c *CPU) LoadBypass(a arch.PAddr, n int) { c.bypass(a, n, false) }

// StoreBypass writes n bytes without filling the caches.
func (c *CPU) StoreBypass(a arch.PAddr, n int) { c.bypass(a, n, true) }

// bypassBurstBlocks is the block-transfer unit of the §4.2.2 hardware:
// one bus transaction moves four contiguous blocks (64 bytes).
const bypassBurstBlocks = 4

func (c *CPU) bypass(a arch.PAddr, n int, write bool) {
	end := a + arch.PAddr(n)
	burst := arch.PAddr(bypassBurstBlocks * arch.BlockSize)
	for b := a.Block(); b < end; b += burst {
		c.sim.pollCancel(c)
		blocks := int((end - b + arch.BlockSize - 1) / arch.BlockSize)
		if blocks > bypassBurstBlocks {
			blocks = bypassBurstBlocks
		}
		out := c.sim.Bus.Bypass(c.id, b, blocks, write, c.now)
		c.adv(arch.Cycles(blocks))
		c.advStall(out.Stall)
	}
}

// UncachedRead models a device-register access: a real, stalling uncached
// bus transaction.
func (c *CPU) UncachedRead(a arch.PAddr) {
	c.sim.pollCancel(c)
	out := c.sim.Bus.Uncached(c.id, a&^1, c.now, false)
	c.adv(1)
	c.advStall(out.Stall)
}

// RoutineName returns the kernel routine currently executing on this CPU
// (empty outside the kernel), for lock-owner diagnostics.
func (c *CPU) RoutineName() string {
	if c.curRoutine == nil {
		return ""
	}
	return c.curRoutine.Name
}

// RoutineID returns the kernel routine currently executing on this CPU as
// its ID plus one (0 outside the kernel), the checker's routine ID.
func (c *CPU) RoutineID() uint16 {
	if c.curRoutine == nil {
		return 0
	}
	return uint16(c.curRoutine.ID + 1)
}

// Acquire spins on a kernel lock via the synchronization bus. Wait time is
// charged as sync cycles on top of the clock advance.
func (c *CPU) Acquire(l *klock.Lock) {
	c.execQuiet(c.sim.rLockAcquire)
	if chk := c.sim.Chk; chk != nil {
		chk.OnAcquire(c.id, l, l.Family, l.Name, l.User, c.now)
	}
	at, _ := l.Acquire(c.id, c.now)
	l.NoteOwner(c.RoutineName())
	wait := at - c.now
	if wait > 0 {
		c.adv(wait) // spinning on the sync bus
	}
	cost := arch.Cycles(klock.AcquireCycles)
	c.adv(cost)
	c.SyncCycles += wait + cost
}

// Release frees a kernel lock.
func (c *CPU) Release(l *klock.Lock) {
	c.execQuiet(c.sim.rLockRelease)
	if chk := c.sim.Chk; chk != nil {
		chk.OnRelease(c.id, l, l.Family, l.Name, l.User, c.now)
	}
	l.Release(c.id, c.now)
	cost := arch.Cycles(klock.ReleaseCycles)
	c.adv(cost)
	c.SyncCycles += cost
}

// Escape emits an instrumentation event: an uncached odd-address byte read
// per the Section 2.2 encoding, at zero simulated cost.
func (c *CPU) Escape(ev monitor.Event, args ...uint32) {
	if !c.sim.traceEscapes {
		return
	}
	c.sim.pollCancel(c)
	c.sim.Bus.Uncached(c.id, monitor.EventAddr(ev), c.now, true)
	for _, v := range args {
		c.sim.pollCancel(c)
		c.sim.Bus.Uncached(c.id, monitor.OperandAddr(v), c.now, true)
	}
}

// TLBInsert installs a translation and emits the TLB-change escape.
func (c *CPU) TLBInsert(pid arch.PID, vpage, frame uint32) {
	idx, _ := c.tlb.Insert(pid, vpage, frame)
	c.Escape(monitor.EvTLBChange, uint32(idx), vpage, frame, uint32(pid))
	c.flushMicroTLB()
}

// TLBInvalidatePID removes the pid's entries from every CPU's TLB.
func (c *CPU) TLBInvalidatePID(pid arch.PID) {
	for _, q := range c.sim.CPUs {
		q.tlb.InvalidatePID(pid)
		q.flushMicroTLB()
	}
}

// TLBInvalidateFrame removes mappings of a frame from every CPU's TLB.
func (c *CPU) TLBInvalidateFrame(frame uint32) {
	for _, q := range c.sim.CPUs {
		q.tlb.InvalidateFrame(frame)
		q.flushMicroTLB()
	}
}

// ICacheInvalFrame flushes every instruction cache (code-page
// reallocation) and records the event for the Inval classification.
func (c *CPU) ICacheInvalFrame(frame uint32) {
	c.sim.Bus.InvalidateCodeFrame(frame, c.now)
	c.sim.ICacheFlushes++
	c.Escape(monitor.EvICacheInval, frame)
}

var _ kernel.Port = (*CPU)(nil)
