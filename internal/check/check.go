// Package check is the simulator's self-validation layer: an always-on
// invariant checker that cross-checks the coherence protocol, the shadow
// memory contents and the kernel's locking discipline while a simulation
// runs. Every number the reproduction reports is only as trustworthy as
// the snooping protocol and kernel model underneath; the checker is the
// golden model that catches silent drift (in the spirit of simulator
// validation work — see PAPERS.md) instead of letting it corrupt results.
//
// Three invariant families are maintained:
//
//   - Shadow memory: every block carries a version number bumped by each
//     store. A load that hits in a cache must observe the latest version;
//     a fill always supplies it (coherent memory). A violation names the
//     last writer — CPU, cycle and routine — as provenance.
//   - Per-line coherence: after every bus transaction the block's state
//     across all second-level caches must satisfy the MESI-like protocol:
//     at most one dirty copy, no copy coexisting with a dirty or
//     exclusive one elsewhere, dirty implies not-shared, and L1 contents
//     a subset of L2 (inclusion).
//   - Locks: no double-acquire of a kernel spinlock by one CPU
//     (self-deadlock), release only by the owner, and no interrupt
//     accepted while the CPU holds a lock that interrupt handlers take
//     (the spl/interrupt-masking rule).
//
// Violations are collected as structured *CheckError values — cycle, CPU,
// address (none for an I-cache flush), routine, last-writer provenance.
package check

import (
	"fmt"
	"math"

	"repro/internal/arch"
)

// Kind classifies an invariant violation.
type Kind uint8

const (
	// Coherence is a per-line protocol violation (two dirty copies, a
	// dirty or exclusive copy coexisting with another copy, ...).
	Coherence Kind = iota
	// Shadow is a stale-data violation: a load or instruction fetch hit
	// a cached copy that does not hold the last store's value.
	Shadow
	// Inclusion is an L1 copy without its L2 parent.
	Inclusion
	// LockViolation is a locking-discipline violation (double acquire,
	// release by non-owner, interrupt while holding an
	// interrupt-acquired lock).
	LockViolation
)

// String names the violation kind.
func (k Kind) String() string {
	switch k {
	case Coherence:
		return "coherence"
	case Shadow:
		return "shadow"
	case Inclusion:
		return "inclusion"
	case LockViolation:
		return "lock"
	default:
		return "check?"
	}
}

// CheckError is one structured invariant violation. It replaces the bare
// panics the simulator used to rely on: every field a postmortem needs is
// machine-readable.
type CheckError struct {
	Kind  Kind
	Cycle arch.Cycles
	CPU   arch.CPUID
	// Addr is the block address for memory violations (zero for lock
	// violations).
	Addr arch.PAddr
	// Lock is the lock (family) name for lock violations.
	Lock string
	// Routine is the kernel routine executing on the violating CPU, when
	// known.
	Routine string
	// Detail is a human-readable description of the violated invariant.
	Detail string
	// Owner is the provenance of the conflicting state: the last writer
	// of the block (shadow violations) or the holder of the lock (lock
	// violations), with the cycle and routine of that event.
	Owner        arch.CPUID
	OwnerCycle   arch.Cycles
	OwnerRoutine string
	// HasOwner reports whether the Owner fields are meaningful.
	HasOwner bool
}

// Error renders the violation on one line.
func (e *CheckError) Error() string {
	s := fmt.Sprintf("check: %s violation at cycle %d on CPU %d", e.Kind, e.Cycle, e.CPU)
	if e.Lock != "" {
		s += fmt.Sprintf(" lock %s", e.Lock)
	} else {
		s += fmt.Sprintf(" addr %#x", uint32(e.Addr))
	}
	if e.Routine != "" {
		s += fmt.Sprintf(" in %s", e.Routine)
	}
	s += ": " + e.Detail
	if e.HasOwner {
		who := "last store"
		if e.Kind == LockViolation {
			who = "held"
		}
		s += fmt.Sprintf(" (%s by CPU %d at cycle %d", who, e.Owner, e.OwnerCycle)
		if e.OwnerRoutine != "" {
			s += " in " + e.OwnerRoutine
		}
		s += ")"
	}
	return s
}

// BusView is the checker's read-only window into the coherent cache
// complex. The bus package implements it; the checker never mutates cache
// state.
type BusView interface {
	// NCPUs returns the processor count.
	NCPUs() int
	// Lines fills out[q], for every CPU q, with the state of the block
	// containing a in q's data hierarchy: one snapshot of the block
	// across the machine. len(out) is NCPUs.
	Lines(a arch.PAddr, out []Line)
}

// Line is one CPU's state of one block, as the caches hold it: the
// coherence-level (L2) valid, dirty and shared bits and first-level
// residency. The dirty and shared bits mean nothing without LineL2.
type Line uint8

const (
	LineShared Line = 1 << iota
	LineL2
	LineDirty
	LineL1
)

// Level says where a data reference was satisfied, from the checker's
// point of view.
type Level uint8

const (
	// LevelFill is a miss filled over the bus (or a cache-bypassing
	// transfer).
	LevelFill Level = iota
	// LevelL1 is a first-level hit.
	LevelL1
	// LevelL2 is a second-level hit.
	LevelL2
)

// blocksPerPage is the number of cache blocks in one page frame; shadow
// state is kept in dense per-frame pages rather than one heap object per
// touched block.
const blocksPerPage = int(arch.PageSize / arch.BlockSize)

// shadowPage is the shadow state of one page frame's blocks: version
// numbers and last-writer provenance in fixed arrays indexed by the block's
// offset within the page, plus flattened per-CPU copy-version tables
// (index bi*n+q) allocated lazily per reference class. The per-event hot
// path is two array indexings with no hashing and, after the page's first
// touch, no allocation.
//
// Versions and flush epochs are 32-bit and the writer and its routine are
// 16-bit IDs, so a page costs 4 KB of provenance plus 4 bytes per CPU and
// block for each copy table: 8 KB for a data frame and 12 KB for a code
// frame at four CPUs. A counter that would wrap is reported (see store and
// flushEpoch) and the block or CPU renumbered, so no version ever aliases.
type shadowPage struct {
	ver      [blocksPerPage]uint32
	writer   [blocksPerPage]uint16
	wroutine [blocksPerPage]uint16 // index into Checker.routines
	wcycle   [blocksPerPage]arch.Cycles
	// dcopy[bi*n+q] is the version CPU q's data-cache copy of block bi
	// was filled or written with; icopy/iepoch the same for the
	// instruction cache, where iepoch must match the CPU's current flush
	// epoch for the copy to be considered live.
	dcopy  []uint32
	icopy  []uint32
	iepoch []uint32
}

func (p *shadowPage) data(n int) []uint32 {
	if p.dcopy == nil {
		p.dcopy = make([]uint32, blocksPerPage*n)
	}
	return p.dcopy
}

func (p *shadowPage) instr(n int) ([]uint32, []uint32) {
	if p.icopy == nil {
		p.icopy = make([]uint32, blocksPerPage*n)
		p.iepoch = make([]uint32, blocksPerPage*n)
	}
	return p.icopy, p.iepoch
}

// maxErrors bounds the collected error list; Violations keeps counting.
const maxErrors = 64

// Checker is the invariant checker for one simulated machine. It is not
// safe for concurrent use (neither is the simulator).
type Checker struct {
	view BusView
	n    int
	// lines is the snapshot buffer view.Lines fills, one entry per CPU.
	lines []Line
	// pages[frame] is the shadow page of that frame, nil until touched.
	pages []*shadowPage
	// iEpochNow[q] is bumped by every full flush of q's I-cache;
	// copies filled under an older epoch are dead.
	iEpochNow []uint32

	// RoutineOf, when set, returns the ID of the kernel routine currently
	// executing on a CPU, 0 for none; a store records it as the block's
	// last-writer routine. RoutineName resolves a nonzero ID to its name,
	// only when a diagnostic is built.
	RoutineOf   func(arch.CPUID) uint16
	RoutineName func(uint16) string

	// Checks counts invariant evaluations; Violations counts failures
	// (including ones dropped from the capped error list).
	Checks     int64
	Violations int64
	errs       []*CheckError

	// Lock state (see lock.go). intrLocks is a dense table indexed by
	// interned lock-family ID.
	held      [][]heldLock
	intrDepth []int
	intrLocks []bool
}

// New builds a checker over the given cache view. frames sizes the shadow
// page table to the machine's physical memory (pages auto-grow past it for
// fabricated test addresses).
func New(view BusView, frames int) *Checker {
	n := view.NCPUs()
	if n > math.MaxUint16+1 {
		panic(fmt.Sprintf("check: %d CPUs do not fit the 16-bit writer ID", n))
	}
	return &Checker{
		view:      view,
		n:         n,
		lines:     make([]Line, n),
		pages:     make([]*shadowPage, frames),
		iEpochNow: make([]uint32, n),
		held:      make([][]heldLock, n),
		intrDepth: make([]int, n),
	}
}

// Errors returns the collected violations (at most maxErrors; Violations
// has the true count).
func (k *Checker) Errors() []*CheckError { return k.errs }

// Finish ends the run: it drops the shadow pages, the state that grows
// with the machine's touched footprint. Checks, Violations and Errors stay
// readable; no event may follow.
func (k *Checker) Finish() { k.pages = nil }

func (k *Checker) report(e *CheckError) {
	k.Violations++
	if len(k.errs) < maxErrors {
		k.errs = append(k.errs, e)
	}
}

// provenance copies block bi's last-writer fields into an error.
func (k *Checker) provenance(pg *shadowPage, bi int, e *CheckError) *CheckError {
	if pg.ver[bi] > 0 {
		e.Owner = arch.CPUID(pg.writer[bi])
		e.OwnerCycle = pg.wcycle[bi]
		e.OwnerRoutine = k.routineName(pg.wroutine[bi])
		e.HasOwner = true
	}
	return e
}

// page returns the shadow page of the frame containing a (allocating it on
// first touch) and the block's index within the page.
func (k *Checker) page(a arch.PAddr) (*shadowPage, int) {
	f := int(a.Frame())
	if f >= len(k.pages) {
		grown := make([]*shadowPage, f+1)
		copy(grown, k.pages)
		k.pages = grown
	}
	pg := k.pages[f]
	if pg == nil {
		pg = &shadowPage{}
		k.pages[f] = pg
	}
	bi := int(uint32(a)>>arch.BlockShift) % blocksPerPage
	return pg, bi
}

// routineID is the ID of the routine executing on cpu (0 when unknown).
func (k *Checker) routineID(cpu arch.CPUID) uint16 {
	if k.RoutineOf == nil {
		return 0
	}
	return k.RoutineOf(cpu)
}

// routineName resolves a routine ID for a diagnostic.
func (k *Checker) routineName(id uint16) string {
	if id == 0 || k.RoutineName == nil {
		return ""
	}
	return k.RoutineName(id)
}

// routine names the routine executing on cpu.
func (k *Checker) routine(cpu arch.CPUID) string { return k.routineName(k.routineID(cpu)) }

// store records cpu's store to block bi and returns the block's new
// version. A version that would wrap is reported and the block renumbered
// first — copies holding the current version to 1, every other copy to 0 —
// so no stale copy can match a later version.
func (k *Checker) store(pg *shadowPage, bi int, cpu arch.CPUID, a arch.PAddr, now arch.Cycles) uint32 {
	if pg.ver[bi] == math.MaxUint32 {
		k.report(k.provenance(pg, bi, &CheckError{
			Kind: Shadow, Cycle: now, CPU: cpu, Addr: a,
			Routine: k.routine(cpu),
			Detail:  "store would wrap the block's 32-bit version (block renumbered)",
		}))
		for _, copies := range [][]uint32{pg.dcopy, pg.icopy} {
			if copies == nil {
				continue
			}
			for i := bi * k.n; i < (bi+1)*k.n; i++ {
				if copies[i] == pg.ver[bi] {
					copies[i] = 1
				} else {
					copies[i] = 0
				}
			}
		}
		pg.ver[bi] = 1
	}
	pg.ver[bi]++
	pg.writer[bi], pg.wcycle[bi], pg.wroutine[bi] = uint16(cpu), now, k.routineID(cpu)
	return pg.ver[bi]
}

// OnData observes one data reference after the bus has updated all cache
// state. a must be the block address.
func (k *Checker) OnData(cpu arch.CPUID, a arch.PAddr, write bool, lvl Level, now arch.Cycles) {
	k.Checks++
	// One snapshot serves the store propagation and the scan below: the
	// checker changes no cache state in between.
	k.view.Lines(a, k.lines)
	pg, bi := k.page(a)
	d := pg.data(k.n)
	base := bi * k.n
	if write {
		// A write that hits must be modifying the latest version (a
		// read-modify-write of stale data is as wrong as a stale load).
		if lvl != LevelFill && d[base+int(cpu)] != pg.ver[bi] {
			k.report(k.provenance(pg, bi, &CheckError{
				Kind: Shadow, Cycle: now, CPU: cpu, Addr: a,
				Routine: k.routine(cpu),
				Detail: fmt.Sprintf("store hit a stale copy (copy version %d, memory version %d)",
					d[base+int(cpu)], pg.ver[bi]),
			}))
		}
		v := k.store(pg, bi, cpu, a, now)
		// Coherence means the store is propagated: every copy still
		// resident after the transaction (the writer's under
		// invalidation; everyone's under update) holds the new version.
		for q, l := range k.lines {
			if l&LineL2 != 0 {
				d[base+q] = v
			}
		}
	} else if lvl == LevelFill {
		// A fill always supplies the latest version: a dirty remote
		// copy sources it, otherwise memory (kept current by
		// write-backs) does.
		d[base+int(cpu)] = pg.ver[bi]
	} else if d[base+int(cpu)] != pg.ver[bi] {
		k.report(k.provenance(pg, bi, &CheckError{
			Kind: Shadow, Cycle: now, CPU: cpu, Addr: a,
			Routine: k.routine(cpu),
			Detail: fmt.Sprintf("load observed a stale copy (copy version %d, memory version %d)",
				d[base+int(cpu)], pg.ver[bi]),
		}))
		d[base+int(cpu)] = pg.ver[bi] // resync so one defect does not cascade
	}
	k.scan(cpu, a, now)
}

// OnBypass observes a cache-bypassing block transfer. Writes update
// memory directly (every cached copy was invalidated by the bus).
func (k *Checker) OnBypass(cpu arch.CPUID, a arch.PAddr, write bool, now arch.Cycles) {
	k.Checks++
	if write {
		pg, bi := k.page(a)
		k.store(pg, bi, cpu, a, now)
	}
	k.view.Lines(a, k.lines)
	k.scan(cpu, a, now)
}

// OnEvict observes a forced (injected) eviction: the copy disappears but
// no data is lost — dirty victims are written back. Only the line scan
// runs; the shadow copy map self-corrects on the next fill.
func (k *Checker) OnEvict(cpu arch.CPUID, a arch.PAddr, now arch.Cycles) {
	k.view.Lines(a, k.lines)
	k.scan(cpu, a, now)
}

// OnFetch observes one instruction fetch. The machine has no hardware
// I-cache coherence: the kernel must flush before reusing a code frame,
// and this check proves it never lets a CPU execute stale instructions.
func (k *Checker) OnFetch(cpu arch.CPUID, a arch.PAddr, hit bool, now arch.Cycles) {
	k.Checks++
	pg, bi := k.page(a)
	ic, ep := pg.instr(k.n)
	i := bi*k.n + int(cpu)
	if !hit {
		// A miss re-records the copy's version: fills always supply
		// current code.
		ic[i] = pg.ver[bi]
		ep[i] = k.iEpochNow[cpu]
		return
	}
	if ep[i] != k.iEpochNow[cpu] {
		k.report(k.provenance(pg, bi, &CheckError{
			Kind: Shadow, Cycle: now, CPU: cpu, Addr: a,
			Routine: k.routine(cpu),
			Detail:  "instruction fetch hit a copy that should have been flushed",
		}))
	} else if ic[i] != pg.ver[bi] {
		k.report(k.provenance(pg, bi, &CheckError{
			Kind: Shadow, Cycle: now, CPU: cpu, Addr: a,
			Routine: k.routine(cpu),
			Detail: fmt.Sprintf("instruction fetch observed stale code (copy version %d, memory version %d)",
				ic[i], pg.ver[bi]),
		}))
	}
	ic[i], ep[i] = pg.ver[bi], k.iEpochNow[cpu]
}

// OnIFlush records a full instruction-cache flush of one CPU (cpu >= 0)
// or of every CPU (cpu < 0, the machine's code-frame-reallocation flush)
// at cycle now.
func (k *Checker) OnIFlush(cpu int, now arch.Cycles) {
	if cpu < 0 {
		for q := range k.iEpochNow {
			k.flushEpoch(q, now)
		}
		return
	}
	k.flushEpoch(cpu, now)
}

// flushEpoch starts CPU q's next I-cache epoch. An epoch that would wrap
// is reported and q renumbered: the flush kills every copy q holds, so all
// of them go to epoch 0 and q to epoch 1. The error has no address: the
// flush empties the whole cache.
func (k *Checker) flushEpoch(q int, now arch.Cycles) {
	if k.iEpochNow[q] < math.MaxUint32 {
		k.iEpochNow[q]++
		return
	}
	k.report(&CheckError{
		Kind: Shadow, Cycle: now, CPU: arch.CPUID(q), Routine: k.routine(arch.CPUID(q)),
		Detail: "I-cache flush would wrap the CPU's 32-bit flush epoch (copies renumbered)",
	})
	for _, pg := range k.pages {
		if pg == nil {
			continue
		}
		for i := q; i < len(pg.iepoch); i += k.n {
			pg.iepoch[i] = 0
		}
	}
	k.iEpochNow[q] = 1
}

// scan verifies the per-line coherence invariant of block a on the
// snapshot in k.lines, which the caller has just taken: at most one dirty
// copy, dirty implies not-shared, a dirty or exclusive copy excludes all
// other copies, and inclusion (L1 ⊆ L2).
func (k *Checker) scan(cpu arch.CPUID, a arch.PAddr, now arch.Cycles) {
	k.Checks++
	residents, dirtyAt, exclAt := 0, -1, -1
	for q, l := range k.lines {
		res, dirty, shared := l&LineL2 != 0, l&LineDirty != 0, l&LineShared != 0
		if l&LineL1 != 0 && !res {
			k.report(k.memErr(Inclusion, cpu, a, now,
				fmt.Sprintf("CPU %d holds the block in L1 but not in L2 (inclusion broken)", q)))
		}
		if !res {
			continue
		}
		residents++
		if dirty {
			if shared {
				k.report(k.memErr(Coherence, cpu, a, now,
					fmt.Sprintf("CPU %d holds the block dirty but marked shared", q)))
			}
			if dirtyAt >= 0 {
				k.report(k.memErr(Coherence, cpu, a, now,
					fmt.Sprintf("two dirty copies (CPU %d and CPU %d)", dirtyAt, q)))
			}
			dirtyAt = q
		}
		if !shared {
			exclAt = q
		}
	}
	if residents > 1 {
		if dirtyAt >= 0 {
			k.report(k.memErr(Coherence, cpu, a, now,
				fmt.Sprintf("dirty copy on CPU %d coexists with %d other copies", dirtyAt, residents-1)))
		} else if exclAt >= 0 {
			k.report(k.memErr(Coherence, cpu, a, now,
				fmt.Sprintf("exclusive (non-shared) copy on CPU %d coexists with %d other copies", exclAt, residents-1)))
		}
	}
}

func (k *Checker) memErr(kind Kind, cpu arch.CPUID, a arch.PAddr, now arch.Cycles, detail string) *CheckError {
	pg, bi := k.page(a)
	return k.provenance(pg, bi, &CheckError{
		Kind: kind, Cycle: now, CPU: cpu, Addr: a,
		Routine: k.routine(cpu), Detail: detail,
	})
}
