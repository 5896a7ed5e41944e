package bus

import (
	"math/bits"

	"repro/internal/arch"
	"repro/internal/cache"
)

// This file is the bus half of the conservative parallel engine (see
// internal/sim/parallel.go for the scheduler half).
//
// During a speculation phase each CPU runs privately on a worker
// goroutine: cache fills and evictions apply to its own hierarchy in
// place (undo-logged in a cache.Journal), while everything bus-visible —
// statistics, recorded transactions, presence-filter updates, snoops of
// remote caches — is deferred into an op log. The only shared state a
// speculating CPU consults is the presence filter, read-only, to predict
// whether a fill will be Shared; the prediction is validated against the
// live filter when the op replays in serial commit order, and a
// mispredicted step is rolled back and re-run serially.
//
// Speculation requires the fast path: direct-mapped caches, presence
// filter active, no checker, no jitter. The sim layer gates on that.

// specKind identifies a deferred bus operation.
type specKind uint8

const (
	// specFetch is an instruction-cache miss: a Read transaction.
	specFetch specKind = iota
	// specRead is a data read miss: Read (+WriteBack), snoops, with a
	// predicted Shared state to validate.
	specRead
	// specWriteInv is a write miss under write-invalidate: ReadEx
	// (+WriteBack) and remote invalidation. Nothing to validate — the
	// remote set is computed live at replay, exactly as serially.
	specWriteInv
	// specWriteUpd is a write miss under write-update: Update-or-Read
	// (+WriteBack) depending on the predicted Shared state.
	specWriteUpd
	// specUpgrade is a write hit on a Shared line under write-invalidate:
	// Upgrade and remote invalidation. The Shared state came from the
	// CPU's own cache, which unconsumed speculation keeps serially
	// consistent, so there is nothing to validate.
	specUpgrade
	// specUpdateHit is a write hit on a Shared line under write-update:
	// an Update broadcast refreshing remote copies.
	specUpdateHit
)

// SpecOp is one deferred bus operation.
type SpecOp struct {
	Kind  specKind
	WB    bool // the L2 fill displaced a dirty block
	HadEv bool // the L2 fill displaced a valid block
	// PredShared is the Shared prediction for specRead/specWriteUpd.
	PredShared bool
	Addr       arch.PAddr // block address
	Evict      arch.PAddr // displaced block (valid when HadEv)
	Now        arch.Cycles
}

// accSpan records the first and last speculated step (by index) that
// depended on a block.
type accSpan struct {
	first, last int32
}

// Spec is one CPU's speculation context: the op log, the cache undo
// journal, and the dependence set. The sim layer owns its lifecycle.
type Spec struct {
	sys *System
	cpu arch.CPUID
	own uint64

	Ops []SpecOp
	J   cache.Journal

	// acc is the dependence set: every block whose cache state the
	// speculation observed (probes, hits and misses alike) or displaced
	// (journaled victims), with the step span that touched it. A
	// committed remote operation on a block outside this set cannot
	// affect the speculation; one inside it truncates from the first
	// dependent unconsumed step.
	acc    map[arch.PAddr]accSpan
	accLog []arch.PAddr
	step   int32
}

// NewSpec builds a speculation context for CPU c.
func NewSpec(s *System, c arch.CPUID) *Spec {
	sp := &Spec{sys: s, cpu: c, own: 1 << uint(c), acc: make(map[arch.PAddr]accSpan)}
	sp.J.Dep = sp.note
	return sp
}

// BeginStep tags subsequent dependence-set entries with the step index.
func (sp *Spec) BeginStep(k int) { sp.step = int32(k) }

// note adds a block to the dependence set.
func (sp *Spec) note(a arch.PAddr) {
	if span, ok := sp.acc[a]; ok {
		span.last = sp.step
		sp.acc[a] = span
		return
	}
	sp.acc[a] = accSpan{first: sp.step, last: sp.step}
	sp.accLog = append(sp.accLog, a)
}

// Touched reports whether a committed operation on block a conflicts with
// any unconsumed step (>= cursor), and if so the earliest step index to
// truncate from. A block whose accesses were all consumed already is no
// conflict. After a truncation the recorded last access may overstate the
// surviving span; that errs toward truncating, never toward keeping a
// stale step.
func (sp *Spec) Touched(a arch.PAddr, cursor int) (from int, ok bool) {
	span, hit := sp.acc[a]
	if !hit || int(span.last) < cursor {
		return 0, false
	}
	from = int(span.first)
	if from < cursor {
		from = cursor
	}
	return from, true
}

// TruncAccess drops dependence-set entries first recorded at step k or
// later (their steps were truncated). Entries are appended in
// nondecreasing first-step order, so they pop off the tail.
func (sp *Spec) TruncAccess(k int) {
	for n := len(sp.accLog); n > 0; n-- {
		a := sp.accLog[n-1]
		if int(sp.acc[a].first) < k {
			sp.accLog = sp.accLog[:n]
			return
		}
		delete(sp.acc, a)
	}
	sp.accLog = sp.accLog[:0]
}

// Mark checkpoints the op log and journal positions.
func (sp *Spec) Mark() (ops, journal int) {
	return len(sp.Ops), sp.J.Len()
}

// TruncateTo rolls the caches back to a checkpoint and drops the ops
// deferred after it.
func (sp *Spec) TruncateTo(ops, journal int) {
	sp.J.TruncateTo(journal)
	sp.Ops = sp.Ops[:ops]
}

// Reset drops all speculative state without rolling back (the ops all
// committed, or the run is being abandoned).
func (sp *Spec) Reset() {
	sp.Ops = sp.Ops[:0]
	sp.J.Reset()
	clear(sp.acc)
	sp.accLog = sp.accLog[:0]
	sp.step = 0
}

// Fetch is the speculative counterpart of System.Fetch: private I-cache
// effects apply journaled, the bus transaction is deferred.
func (sp *Spec) Fetch(a arch.PAddr, now arch.Cycles) Outcome {
	s := sp.sys
	ic := s.I[sp.cpu]
	sp.note(a.Block())
	if ic.ReadHit(a) {
		return Outcome{}
	}
	sp.J.SaveI(ic, a)
	if hit, _, _ := ic.Access(a, false); hit {
		return Outcome{}
	}
	sp.Ops = append(sp.Ops, SpecOp{Kind: specFetch, Addr: a.Block(), Now: now})
	return Outcome{Missed: true, Stall: s.missStall}
}

// Read is the speculative counterpart of System.Read.
func (sp *Spec) Read(a arch.PAddr, now arch.Cycles) Outcome {
	s := sp.sys
	d := s.D[sp.cpu]
	sp.note(a.Block())
	if d.ReadHitL1(a) {
		return Outcome{}
	}
	sp.J.SaveData(d, a)
	res := d.Access(a, false)
	switch res.Result {
	case cache.DataL1Hit:
		return Outcome{}
	case cache.DataL2Hit:
		return Outcome{L2Hit: true, Stall: s.l2Stall}
	}
	// Miss: predict the Shared state from the (frozen) presence filter.
	// The own SetShared applies now — it is private state; replay
	// validates the prediction before committing the transaction.
	shared := s.pres.mask(a)&^sp.own != 0
	d.L2.SetShared(a, shared)
	sp.Ops = append(sp.Ops, SpecOp{
		Kind: specRead, Addr: a.Block(), Now: now,
		Evict: res.L2Evicted.Block, HadEv: res.L2HadEv, WB: res.WriteBack,
		PredShared: shared,
	})
	return Outcome{Missed: true, Stall: s.missStall}
}

// Write is the speculative counterpart of System.Write.
func (sp *Spec) Write(a arch.PAddr, now arch.Cycles) Outcome {
	s := sp.sys
	d := s.D[sp.cpu]
	sp.note(a.Block())
	if d.WriteHit(a) {
		return Outcome{} // no line changes: nothing to journal or defer
	}
	sp.J.SaveData(d, a)
	res := d.Access(a, true)
	switch res.Result {
	case cache.DataL1Hit, cache.DataL2Hit:
		out := Outcome{L2Hit: res.Result == cache.DataL2Hit}
		if out.L2Hit {
			out.Stall = s.l2Stall
		}
		if res.WasShared {
			if s.Proto == WriteUpdate {
				d.L2.SetShared(a, true)
				d.L2.Clean(a)
				sp.Ops = append(sp.Ops, SpecOp{Kind: specUpdateHit, Addr: a.Block(), Now: now})
			} else {
				d.L2.SetShared(a, false)
				sp.Ops = append(sp.Ops, SpecOp{Kind: specUpgrade, Addr: a.Block(), Now: now})
			}
			out.Upgraded = true
			out.Stall += s.missStall
		}
		return out
	}
	// Write miss.
	if s.Proto == WriteUpdate {
		shared := s.pres.mask(a)&^sp.own != 0
		d.L2.SetShared(a, shared)
		if shared {
			d.L2.Clean(a)
		}
		sp.Ops = append(sp.Ops, SpecOp{
			Kind: specWriteUpd, Addr: a.Block(), Now: now,
			Evict: res.L2Evicted.Block, HadEv: res.L2HadEv, WB: res.WriteBack,
			PredShared: shared,
		})
		return Outcome{Missed: true, Stall: s.missStall}
	}
	d.L2.SetShared(a, false)
	sp.Ops = append(sp.Ops, SpecOp{
		Kind: specWriteInv, Addr: a.Block(), Now: now,
		Evict: res.L2Evicted.Block, HadEv: res.L2HadEv, WB: res.WriteBack,
	})
	return Outcome{Missed: true, Stall: s.missStall}
}

// touch notifies the parallel engine that block a in CPU q's caches is
// about to be modified by another CPU's bus activity; the engine discards
// q's unconsumed speculation from its first step that depends on a, so
// speculative state never mixes with serially-earlier committed state.
// Operations on blocks the speculation never observed leave it intact.
func (s *System) touch(q arch.CPUID, a arch.PAddr) {
	if s.OnTouch != nil {
		s.OnTouch(q, a)
	}
}

// touchAll is touch for operations without a single block address (whole
// I-cache flushes): q's entire unconsumed speculation is discarded.
func (s *System) touchAll(q arch.CPUID) {
	if s.OnTouchAll != nil {
		s.OnTouchAll(q)
	}
}

// ReplayOps validates and applies one speculated step's deferred ops in
// serial order. It returns false — applying nothing — if any Shared
// prediction no longer matches the live presence filter; the caller then
// rolls the step back and re-runs it serially.
func (s *System) ReplayOps(c arch.CPUID, ops []SpecOp) bool {
	own := uint64(1) << uint(c)
	// Pass 1: validate every prediction against the live filter, with an
	// overlay for the remote-bit clears that earlier ops of this same
	// step will perform once applied.
	var clearedAddr []arch.PAddr
	var clearedMask []uint64
	clearedOf := func(a arch.PAddr) uint64 {
		for i := range clearedAddr {
			if clearedAddr[i] == a {
				return clearedMask[i]
			}
		}
		return 0
	}
	for i := range ops {
		op := &ops[i]
		switch op.Kind {
		case specRead, specWriteUpd:
			m := s.pres.mask(op.Addr) &^ clearedOf(op.Addr) &^ own
			if (m != 0) != op.PredShared {
				return false
			}
		case specWriteInv, specUpgrade:
			m := s.pres.mask(op.Addr) &^ own
			if m != 0 {
				clearedAddr = append(clearedAddr, op.Addr)
				clearedMask = append(clearedMask, m)
			}
		}
	}
	// Pass 2: apply, in exactly the serial engine's order per op.
	for i := range ops {
		s.applyOp(c, &ops[i])
	}
	return true
}

func (s *System) applyOp(c arch.CPUID, op *SpecOp) {
	switch op.Kind {
	case specFetch:
		s.Stats.Reads++
		s.record(Txn{Ticks: TicksOf(op.Now), Addr: op.Addr, CPU: c, Kind: TxnRead})
	case specRead:
		s.Stats.Reads++
		s.record(Txn{Ticks: TicksOf(op.Now), Addr: op.Addr, CPU: c, Kind: TxnRead})
		if op.WB {
			s.Stats.WriteBacks++
			s.record(Txn{Ticks: TicksOf(op.Now), Addr: op.Evict, CPU: c, Kind: TxnWriteBack})
		}
		if op.HadEv {
			s.pres.clear(op.Evict, c)
		}
		s.pres.set(op.Addr, c)
		m := s.pres.mask(op.Addr) &^ (1 << uint(c))
		for mm := m; mm != 0; mm &= mm - 1 {
			q := arch.CPUID(bits.TrailingZeros64(mm))
			s.touch(q, op.Addr)
			s.D[q].L2.SnoopRead(op.Addr)
		}
		// The own SetShared applied at spec time; pass 1 proved the
		// predicted value still holds.
	case specWriteInv:
		if op.HadEv {
			s.pres.clear(op.Evict, c)
		}
		s.pres.set(op.Addr, c)
		s.Stats.ReadExs++
		s.record(Txn{Ticks: TicksOf(op.Now), Addr: op.Addr, CPU: c, Kind: TxnReadEx})
		if op.WB {
			s.Stats.WriteBacks++
			s.record(Txn{Ticks: TicksOf(op.Now), Addr: op.Evict, CPU: c, Kind: TxnWriteBack})
		}
		s.invalidateRemote(c, op.Addr)
	case specWriteUpd:
		if op.HadEv {
			s.pres.clear(op.Evict, c)
		}
		s.pres.set(op.Addr, c)
		m := s.pres.mask(op.Addr) &^ (1 << uint(c))
		for mm := m; mm != 0; mm &= mm - 1 {
			q := arch.CPUID(bits.TrailingZeros64(mm))
			s.touch(q, op.Addr)
			s.D[q].L2.SnoopRead(op.Addr)
		}
		if m != 0 {
			s.Stats.Updates++
			s.record(Txn{Ticks: TicksOf(op.Now), Addr: op.Addr, CPU: c, Kind: TxnUpdate})
		} else {
			s.Stats.Reads++
			s.record(Txn{Ticks: TicksOf(op.Now), Addr: op.Addr, CPU: c, Kind: TxnRead})
		}
		if op.WB {
			s.Stats.WriteBacks++
			s.record(Txn{Ticks: TicksOf(op.Now), Addr: op.Evict, CPU: c, Kind: TxnWriteBack})
		}
	case specUpgrade:
		s.Stats.Upgrades++
		s.record(Txn{Ticks: TicksOf(op.Now), Addr: op.Addr, CPU: c, Kind: TxnUpgrade})
		s.invalidateRemote(c, op.Addr)
	case specUpdateHit:
		s.Stats.Updates++
		s.record(Txn{Ticks: TicksOf(op.Now), Addr: op.Addr, CPU: c, Kind: TxnUpdate})
	}
}
