package kernel

import (
	"repro/internal/arch"
	"repro/internal/klock"
	"repro/internal/monitor"
)

// Port is the kernel's view of the CPU it is executing on. The simulator
// implements it: every call advances the CPU's local clock, drives the
// caches and bus, and emits monitor escapes. Kernel code is written in
// direct style against this interface, so each OS invocation produces a
// genuine reference stream (instruction fetches through the kernel text,
// data accesses to the Table 3 structures) rather than statistics.
type Port interface {
	// CPU returns the executing processor.
	CPU() arch.CPUID
	// Now returns the CPU's local clock.
	Now() arch.Cycles

	// Exec fetches routine r's instruction blocks (and charges one
	// cycle per instruction), attributing subsequent data misses to r.
	Exec(r *Routine)
	// Load reads n bytes of kernel-visible physical memory.
	Load(a arch.PAddr, n int)
	// Store writes n bytes.
	Store(a arch.PAddr, n int)
	// UncachedRead models a device-register read (uncached, stalls).
	UncachedRead(a arch.PAddr)
	// LoadBypass / StoreBypass move n bytes without filling the caches
	// (the §4.2.2 cache-bypassing block-transfer hardware).
	LoadBypass(a arch.PAddr, n int)
	StoreBypass(a arch.PAddr, n int)

	// Acquire spins until the kernel lock is free, charging sync-bus
	// time; Release frees it.
	Acquire(l *klock.Lock)
	Release(l *klock.Lock)

	// Escape emits an instrumentation event into the trace.
	Escape(ev monitor.Event, args ...uint32)

	// TLBInsert installs a translation in this CPU's TLB and emits the
	// TLB-change escape.
	TLBInsert(pid arch.PID, vpage, frame uint32)
	// TLBInvalidatePID removes pid's entries from every CPU's TLB
	// (process exit).
	TLBInvalidatePID(pid arch.PID)
	// TLBInvalidateFrame removes mappings of a reclaimed frame from
	// every CPU's TLB.
	TLBInvalidateFrame(frame uint32)
	// ICacheInvalFrame invalidates the frame's blocks in every
	// instruction cache (code-page reallocation) and emits the escape.
	ICacheInvalFrame(frame uint32)
}
