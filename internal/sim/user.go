package sim

import (
	"repro/internal/arch"
	"repro/internal/kernel"
	"repro/internal/klock"
)

// User-mode execution: each step runs a bounded burst of the current
// process's reference stream. Instruction fetch walks the code pages in a
// loop-structured pattern (loops re-run with high probability, then jump);
// data references walk a hot window of the data pages with occasional
// jumps and window shifts. Every page access translates through the TLB,
// faulting (cheap or expensive) exactly as on the real machine.

const blocksPerPage = arch.PageSize / arch.BlockSize

// runUser executes up to userBurst cycles of the current process.
func (s *Simulator) runUser(c *CPU) {
	deadline := c.now + userBurst
	if c.nextClockTick < deadline {
		deadline = c.nextClockTick
	}
	pr := c.cur
	for c.now < deadline && c.cur == pr {
		if pr.PendingCompute <= 0 {
			if s.nextAction(c, pr) {
				return // control transferred (syscall, block, exit)
			}
			continue
		}
		before := c.now
		s.genRefs(c, pr)
		dt := c.now - before
		pr.PendingCompute -= dt
		pr.QuantumUsed += dt
	}
}

// nextAction advances the process's behavior state machine. It returns
// true when the action transferred control away from user mode.
func (s *Simulator) nextAction(c *CPU, pr *kernel.Proc) bool {
	// A user-lock action in progress?
	if la := pr.PendingAction; la != nil {
		if pr.UserLockHeld {
			// Critical section finished: release.
			la.Lock.Release(c.id, c.now)
			c.adv(klock.SyncOpCycles)
			pr.UserLockHeld = false
			pr.PendingAction = nil
			return false
		}
		// (Re)try the acquire: spin up to 20 times, then sginap
		// (Section 4.1: "issued by the synchronization library after
		// 20 unsuccessful attempts").
		maxWait := arch.Cycles(20 * klock.SpinGapCycles)
		at, ok, _ := la.Lock.TryAcquire(c.id, c.now, maxWait)
		if wait := at - c.now; wait > 0 {
			c.adv(wait)
		}
		c.adv(klock.SyncOpCycles)
		if !ok {
			s.doSyscall(c, kernel.SyscallReq{Kind: kernel.SysSginap})
			return true
		}
		pr.UserLockHeld = true
		pr.PendingCompute = la.Hold
		return false
	}
	a := pr.Behavior.Next(s.K, pr)
	switch a.Kind {
	case kernel.ActCompute:
		if a.Cycles <= 0 {
			a.Cycles = 1
		}
		pr.PendingCompute = a.Cycles
		return false
	case kernel.ActSyscall:
		s.doSyscall(c, a.Req)
		return true
	case kernel.ActUserLock:
		act := a
		pr.PendingAction = &act
		return false
	case kernel.ActExit:
		s.doExit(c)
		return true
	default:
		panic("sim: unknown action kind")
	}
}

// genRefs generates one instruction block fetch plus its accompanying data
// references for the current process.
func (s *Simulator) genRefs(c *CPU, pr *kernel.Proc) {
	fp := &pr.FP
	rng := &fp.Rng
	if len(fp.CodeVPages) > 0 {
		total := len(fp.CodeVPages) * blocksPerPage
		if fp.LoopLeft <= 0 {
			if rng.Intn(100) < 90 {
				// Re-run the loop body.
				fp.CodePos -= fp.CodeLoopBlocks
				if fp.CodePos < 0 {
					fp.CodePos += total
				}
			} else {
				fp.CodePos = rng.Intn(total)
			}
			fp.LoopLeft = fp.CodeLoopBlocks
		}
		pos := fp.CodePos
		if pos >= total {
			// Rare: CodePos drifts past the end between jumps. The
			// common case avoids the hardware divide.
			pos %= total
		}
		vp := fp.CodeVPages[pos/blocksPerPage]
		fr := c.codeTLB.fr
		if !c.codeTLB.hit(pr.PID, vp, false) {
			var ok bool
			if fr, ok = s.translate(c, pr, vp, &c.codeTLB, false); !ok {
				return
			}
		}
		pa := arch.FrameAddr(fr) + arch.PAddr((pos%blocksPerPage)*arch.BlockSize)
		c.fetch(pa)
		fp.CodePos++
		fp.LoopLeft--
	} else {
		c.adv(arch.InstrPerBlock)
	}

	all := fp.AllData
	if all == nil {
		all = append(append([]uint32{}, fp.DataVPages...), fp.SharedVPages...)
		fp.AllData = all
	}
	if len(all) == 0 {
		return
	}
	hot := fp.DataHotPages
	if hot > len(all) {
		hot = len(all)
	}
	window := hot * blocksPerPage
	for i := 0; i < fp.DataRefsPerBlock; i++ {
		r := rng.Intn(4096)
		if r < 1 {
			// Shift the hot window.
			fp.HotBase = rng.Intn(len(all) - hot + 1)
		} else if r < 96 {
			// Jump within the window.
			fp.DataPos = rng.Intn(window)
		} else {
			fp.DataPos++
		}
		pos := fp.DataPos
		if pos >= window {
			// Rare: DataPos drifts past the window between jumps (and
			// the window itself can shrink when AllData is rebuilt).
			pos %= window
		}
		vp := all[fp.HotBase+pos/blocksPerPage]
		write := rng.Intn(100) < fp.WritePct
		fr := c.dataTLB.fr
		if !c.dataTLB.hit(pr.PID, vp, write) {
			var ok bool
			if fr, ok = s.translate(c, pr, vp, &c.dataTLB, write); !ok {
				return
			}
		}
		pa := arch.FrameAddr(fr) + arch.PAddr((pos%blocksPerPage)*arch.BlockSize)
		c.dataRef(pa, write)
	}
}

// translate resolves a user virtual page through the TLB, taking UTLB
// faults (cheap) or page faults (expensive OS invocations) as needed. ok
// is false only if the process lost the CPU during the fault. genRefs calls
// it when e, the micro-TLB entry of the reference's kind, missed, and the
// result refills e: code and data each keep their own entry, so a fetch and
// a load on different pages do not evict each other.
func (s *Simulator) translate(c *CPU, pr *kernel.Proc, vp uint32, e *microTLB, write bool) (uint32, bool) {
	for attempt := 0; attempt < 3; attempt++ {
		if fr, hit := c.tlb.Lookup(pr.PID, vp); hit {
			if write && s.K.IsCOW(pr, vp) {
				s.pageFault(c, pr, vp, true)
				if c.cur != pr {
					return 0, false
				}
				continue
			}
			// A store got past the COW check above, so its entry is
			// store-validated until the next flush.
			*e = microTLB{pid: pr.PID, vp: vp, fr: fr, ok: true, wr: write}
			return fr, true
		}
		if s.K.IsMapped(pr, vp) && !(write && s.K.IsCOW(pr, vp)) {
			// Cheap UTLB refill: brief kernel excursion, no OS
			// invocation.
			prevMode := c.mode
			c.mode = arch.ModeKernel
			s.K.UTLBFault(c, pr, vp)
			c.mode = prevMode
			continue
		}
		s.pageFault(c, pr, vp, write)
		if c.cur != pr {
			return 0, false
		}
	}
	// The translation must exist by now.
	fr, hit := c.tlb.Lookup(pr.PID, vp)
	if !hit {
		panic("sim: translation missing after fault")
	}
	return fr, true
}
