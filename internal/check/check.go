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
// Violations are reported as structured *CheckError values — cycle, CPU,
// address, routine, last-writer provenance — either collected (the
// default) or raised immediately (FailFast).
package check

import (
	"fmt"

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
// (index bi*n+q) allocated lazily per reference class. It replaces the old
// map[PAddr]*line — the per-event hot path is now two array indexings with
// no hashing and, after the page's first touch, no allocation.
type shadowPage struct {
	ver      [blocksPerPage]int64
	writer   [blocksPerPage]arch.CPUID
	wcycle   [blocksPerPage]arch.Cycles
	wroutine [blocksPerPage]string
	// dcopy[bi*n+q] is the version CPU q's data-cache copy of block bi
	// was filled or written with; icopy/iepoch the same for the
	// instruction cache, where iepoch must match the CPU's current flush
	// epoch for the copy to be considered live.
	dcopy  []int64
	icopy  []int64
	iepoch []int64
}

func (p *shadowPage) data(n int) []int64 {
	if p.dcopy == nil {
		p.dcopy = make([]int64, blocksPerPage*n)
	}
	return p.dcopy
}

func (p *shadowPage) instr(n int) ([]int64, []int64) {
	if p.icopy == nil {
		p.icopy = make([]int64, blocksPerPage*n)
		p.iepoch = make([]int64, blocksPerPage*n)
	}
	return p.icopy, p.iepoch
}

// provenance copies block bi's last-writer fields into an error.
func (p *shadowPage) provenance(bi int, e *CheckError) *CheckError {
	if p.ver[bi] > 0 {
		e.Owner = p.writer[bi]
		e.OwnerCycle = p.wcycle[bi]
		e.OwnerRoutine = p.wroutine[bi]
		e.HasOwner = true
	}
	return e
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
	iEpochNow []int64

	// RoutineOf, when set, resolves the kernel routine currently
	// executing on a CPU (for diagnostics).
	RoutineOf func(arch.CPUID) string
	// FailFast panics with the first *CheckError instead of collecting.
	FailFast bool

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
	return &Checker{
		view:      view,
		n:         n,
		lines:     make([]Line, n),
		pages:     make([]*shadowPage, frames),
		iEpochNow: make([]int64, n),
		held:      make([][]heldLock, n),
		intrDepth: make([]int, n),
	}
}

// Errors returns the collected violations (at most maxErrors; Violations
// has the true count).
func (k *Checker) Errors() []*CheckError { return k.errs }

func (k *Checker) report(e *CheckError) {
	k.Violations++
	if k.FailFast {
		panic(e)
	}
	if len(k.errs) < maxErrors {
		k.errs = append(k.errs, e)
	}
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

func (k *Checker) routine(cpu arch.CPUID) string {
	if k.RoutineOf == nil {
		return ""
	}
	return k.RoutineOf(cpu)
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
			k.report(pg.provenance(bi, &CheckError{
				Kind: Shadow, Cycle: now, CPU: cpu, Addr: a,
				Routine: k.routine(cpu),
				Detail: fmt.Sprintf("store hit a stale copy (copy version %d, memory version %d)",
					d[base+int(cpu)], pg.ver[bi]),
			}))
		}
		pg.ver[bi]++
		pg.writer[bi], pg.wcycle[bi], pg.wroutine[bi] = cpu, now, k.routine(cpu)
		// Coherence means the store is propagated: every copy still
		// resident after the transaction (the writer's under
		// invalidation; everyone's under update) holds the new version.
		for q, l := range k.lines {
			if l&LineL2 != 0 {
				d[base+q] = pg.ver[bi]
			}
		}
	} else if lvl == LevelFill {
		// A fill always supplies the latest version: a dirty remote
		// copy sources it, otherwise memory (kept current by
		// write-backs) does.
		d[base+int(cpu)] = pg.ver[bi]
	} else if d[base+int(cpu)] != pg.ver[bi] {
		k.report(pg.provenance(bi, &CheckError{
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
		pg.ver[bi]++
		pg.writer[bi], pg.wcycle[bi], pg.wroutine[bi] = cpu, now, k.routine(cpu)
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
		k.report(pg.provenance(bi, &CheckError{
			Kind: Shadow, Cycle: now, CPU: cpu, Addr: a,
			Routine: k.routine(cpu),
			Detail:  "instruction fetch hit a copy that should have been flushed",
		}))
	} else if ic[i] != pg.ver[bi] {
		k.report(pg.provenance(bi, &CheckError{
			Kind: Shadow, Cycle: now, CPU: cpu, Addr: a,
			Routine: k.routine(cpu),
			Detail: fmt.Sprintf("instruction fetch observed stale code (copy version %d, memory version %d)",
				ic[i], pg.ver[bi]),
		}))
	}
	ic[i], ep[i] = pg.ver[bi], k.iEpochNow[cpu]
}

// OnIFlush records a full instruction-cache flush of one CPU (cpu >= 0)
// or of every CPU (cpu < 0, the machine's code-frame-reallocation flush).
func (k *Checker) OnIFlush(cpu int) {
	if cpu < 0 {
		for q := range k.iEpochNow {
			k.iEpochNow[q]++
		}
		return
	}
	k.iEpochNow[cpu]++
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
	return pg.provenance(bi, &CheckError{
		Kind: kind, Cycle: now, CPU: cpu, Addr: a,
		Routine: k.routine(cpu), Detail: detail,
	})
}
