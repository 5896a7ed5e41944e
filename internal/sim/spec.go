package sim

import (
	"repro/internal/arch"
	"repro/internal/bus"
)

// specSnap is a checkpoint of everything a speculated user-mode virtual
// step can mutate outside the caches (the caches are undo-logged in the
// bus.Spec journal): the CPU clock and accounting, the micro-TLB, the
// process's reference-generator state and PRNG, and marks into the op
// log / journal. Restoring one (plus truncating to its marks) puts the
// CPU exactly at the step's entry state.
type specSnap struct {
	now     arch.Cycles
	time    [3]arch.Cycles
	stall   [3]arch.Cycles
	l2stall [3]arch.Cycles

	codeTLB, dataTLB microTLB

	codePos  int
	loopLeft int
	dataPos  int
	hotBase  int
	rng      uint64

	pendingCompute arch.Cycles
	quantumUsed    arch.Cycles

	opsMark int
	jMark   int
}

// specCPU is one CPU's speculation segment: the per-step checkpoints,
// the deferred bus ops (in bs), and the consume cursor the commit phase
// advances.
type specCPU struct {
	c  *CPU
	bs *bus.Spec

	// cps[k] is the entry state of virtual step k; the ops of step k are
	// bs.Ops[cps[k].opsMark : cps[k+1].opsMark] (opsTotal for the last).
	cps      []specSnap
	opsTotal int
	cursor   int

	// final marks the last checkpoint as a partial burst: the step
	// stopped mid-burst at a non-private site, and the commit phase must
	// finish it serially against the original deadline.
	final         bool
	finalDeadline arch.Cycles

	// stopped is set by a stop site during runUserUntil; canceled marks
	// a cancellation observed on the worker (the run will be abandoned).
	stopped  bool
	canceled bool

	group       specSnap
	groupActive bool
}

func (sp *specCPU) reset() {
	sp.bs.Reset()
	sp.cps = sp.cps[:0]
	sp.opsTotal = 0
	sp.cursor = 0
	sp.final = false
	sp.stopped = false
	sp.canceled = false
	sp.groupActive = false
}

// takeSnap checkpoints the CPU at a step (or reference-group) boundary.
func (c *CPU) takeSnap(sp *specCPU, s *specSnap) {
	s.now = c.now
	s.time = c.Time
	s.stall = c.Stall
	s.l2stall = c.L2Stall
	s.codeTLB, s.dataTLB = c.codeTLB, c.dataTLB
	pr := c.cur
	fp := &pr.FP
	s.codePos, s.loopLeft, s.dataPos, s.hotBase = fp.CodePos, fp.LoopLeft, fp.DataPos, fp.HotBase
	s.rng = fp.Rng.State()
	s.pendingCompute = pr.PendingCompute
	s.quantumUsed = pr.QuantumUsed
	s.opsMark, s.jMark = sp.bs.Mark()
}

// restoreSnap rewinds the CPU (not the caches — the caller truncates the
// bus.Spec to the snap's marks for that).
func (c *CPU) restoreSnap(s *specSnap) {
	c.now = s.now
	c.Time = s.time
	c.Stall = s.stall
	c.L2Stall = s.l2stall
	c.codeTLB, c.dataTLB = s.codeTLB, s.dataTLB
	pr := c.cur
	fp := &pr.FP
	fp.CodePos, fp.LoopLeft, fp.DataPos, fp.HotBase = s.codePos, s.loopLeft, s.dataPos, s.hotBase
	fp.Rng.Restore(s.rng)
	pr.PendingCompute = s.pendingCompute
	pr.QuantumUsed = s.quantumUsed
}

// markGroup checkpoints the entry of one genRefs reference group.
func (sp *specCPU) markGroup(c *CPU) {
	c.takeSnap(sp, &sp.group)
	sp.groupActive = true
}

// rollbackGroup rewinds a speculation stop that happened mid-group to the
// group entry, so the serial resume redraws the exact same references.
func (sp *specCPU) rollbackGroup(c *CPU) {
	if !sp.groupActive {
		return
	}
	sp.bs.TruncateTo(sp.group.opsMark, sp.group.jMark)
	c.restoreSnap(&sp.group)
	sp.groupActive = false
}
