// Package bus models the shared memory bus of the simulated multiprocessor:
// per-CPU caches kept coherent by a snooping invalidation protocol, with
// every bus transaction exposed to an attached recorder (the hardware
// monitor of Section 2.1).
//
// The protocol is MESI-like: read misses fill Shared or Exclusive depending
// on whether another cache holds the block; write misses issue a
// read-exclusive that invalidates remote copies; writes that hit a Shared
// block issue an upgrade. A cache holding the block dirty supplies the data
// on a remote read and reverts to Shared/clean. Instruction caches are
// read-only and kept coherent by explicit invalidation when code pages are
// reallocated (the kernel's job).
package bus

import (
	"math/bits"
	"math/rand"

	"repro/internal/arch"
	"repro/internal/cache"
	"repro/internal/check"
)

// TxnKind is the type of a bus transaction as seen by the monitor.
type TxnKind uint8

const (
	// TxnRead is a cache fill for a read (instruction fetch or data
	// load) miss.
	TxnRead TxnKind = iota
	// TxnReadEx is a cache fill for a write miss, invalidating remote
	// copies.
	TxnReadEx
	// TxnUpgrade invalidates remote copies of a block already held
	// Shared, on a local write hit.
	TxnUpgrade
	// TxnWriteBack writes a dirty displaced block back to memory. It
	// does not stall the CPU (the write buffer absorbs it) and the
	// postprocessor does not treat it as a miss.
	TxnWriteBack
	// TxnUncached is an uncached access that bypasses the caches: the
	// instrumentation's escape reads (odd addresses) and genuine
	// uncached OS accesses such as device-register reads (even
	// addresses).
	TxnUncached
	// TxnUpdate is a write broadcast of the write-update protocol
	// ablation: remote copies are refreshed in place instead of
	// invalidated.
	TxnUpdate
)

// String returns a short name for the transaction kind.
func (k TxnKind) String() string {
	switch k {
	case TxnRead:
		return "read"
	case TxnReadEx:
		return "readex"
	case TxnUpgrade:
		return "upgrade"
	case TxnWriteBack:
		return "writeback"
	case TxnUncached:
		return "uncached"
	case TxnUpdate:
		return "update"
	default:
		return "txn?"
	}
}

// Txn is one bus transaction: what the hardware monitor stores. Ticks is
// the monitor's 60 ns counter (two processor cycles per tick).
type Txn struct {
	Ticks uint64
	Addr  arch.PAddr
	CPU   arch.CPUID
	Kind  TxnKind
}

// TicksOf converts a cycle count to monitor ticks.
func TicksOf(c arch.Cycles) uint64 { return uint64(c) / 2 }

// Recorder receives every bus transaction. The hardware monitor implements
// it; a nil recorder disables tracing.
type Recorder interface {
	Record(Txn)
}

// Stats aggregates raw bus activity (independent of the monitor, which can
// be suspended or full).
type Stats struct {
	Reads      int64
	ReadExs    int64
	Upgrades   int64
	WriteBacks int64
	Uncacheds  int64
	Updates    int64
}

// Transactions returns the total number of CPU-stalling transactions
// (everything except write-backs).
func (s *Stats) Transactions() int64 {
	return s.Reads + s.ReadExs + s.Upgrades + s.Uncacheds + s.Updates
}

// Protocol selects the coherence policy for shared writes.
type Protocol uint8

const (
	// WriteInvalidate is the measured machine's protocol: a write to a
	// Shared block invalidates remote copies (Illinois/MESI style).
	WriteInvalidate Protocol = iota
	// WriteUpdate is the ablation: shared writes broadcast the new data
	// and remote copies stay valid (Firefly/Dragon style). Sharing
	// misses disappear; every shared write costs a bus transaction.
	WriteUpdate
)

// System is the coherent cache/bus complex: one instruction cache and one
// two-level data hierarchy per CPU, sharing the bus.
type System struct {
	N   int
	I   []*cache.Cache
	D   []*cache.DataHierarchy
	rec Recorder

	// Proto selects invalidate (default) or update coherence.
	Proto Protocol

	// Check, when non-nil, receives every memory reference and snoop
	// outcome for invariant validation (System implements check.BusView).
	Check *check.Checker
	// Jitter, when non-nil, returns extra latency to add to one
	// CPU-stalling bus transaction (fault injection).
	Jitter func() arch.Cycles
	// OnTouch, when non-nil, is called with a CPU id and a block address
	// immediately before bus activity initiated elsewhere modifies that
	// block in the CPU's caches (snoops, invalidations). The parallel
	// engine uses it to discard the CPU's unconsumed speculation when —
	// and only when — the speculation depends on that block.
	OnTouch func(q arch.CPUID, a arch.PAddr)
	// OnTouchAll is OnTouch without a block address (whole I-cache
	// flushes): the CPU's entire unconsumed speculation is discarded.
	OnTouchAll func(q arch.CPUID)

	// Reference selects the generic oracle paths (full snoop loops, no
	// presence filter, way-loop caches). Set via SetReference.
	Reference bool

	// M is the machine the system was built for; missStall and l2Stall
	// cache its stall costs for the hot paths.
	M         arch.Machine
	missStall arch.Cycles
	l2Stall   arch.Cycles
	// pres is the snoop presence filter (nil in reference mode or beyond
	// maxPresenceCPUs, where the full loops run instead).
	pres *presence

	Stats Stats
}

// NCPUs implements check.BusView.
func (s *System) NCPUs() int { return s.N }

// Lines implements check.BusView: every hierarchy's state of the block
// containing a, read straight from the caches — never from the presence
// filter, which is among the things the checker validates.
func (s *System) Lines(a arch.PAddr, out []check.Line) {
	for q, d := range s.D {
		out[q] = check.Line(d.LineState(a))
	}
}

// check.Line and cache.LineState share one bit layout, so Lines converts
// without decoding; a layout change in either package fails to compile here.
var _ = [1]struct{}{}[check.LineShared^check.Line(cache.StateShared)|
	check.LineL2^check.Line(cache.StateL2)|
	check.LineDirty^check.Line(cache.StateDirty)|
	check.LineL1^check.Line(cache.StateL1)]

// jitter draws injected extra latency for one stalling transaction.
func (s *System) jitter() arch.Cycles {
	if s.Jitter == nil {
		return 0
	}
	return s.Jitter()
}

// NewSystem builds the cache complex of machine m (the 4D/340 geometry
// when m is arch.Default()). rec may be nil.
func NewSystem(m arch.Machine, rec Recorder) *System {
	n := m.NCPU
	s := &System{
		N:         n,
		rec:       rec,
		M:         m,
		missStall: m.MissStallCycles,
		l2Stall:   m.L1MissL2HitCycles,
	}
	s.I = make([]*cache.Cache, n)
	s.D = make([]*cache.DataHierarchy, n)
	for i := 0; i < n; i++ {
		s.I[i] = cache.New("icache", m.ICacheSize, m.ICacheAssoc)
		s.D[i] = cache.NewDataHierarchy("dcache", m)
	}
	if n <= maxPresenceCPUs {
		s.pres = newPresence(m.MemFrames())
	}
	return s
}

// SetReference switches the system between the fast path (default) and the
// generic oracle: way-loop/LRU cache code, full snoop and invalidation
// broadcasts, no presence filter. Call it before any traffic — both modes
// must produce byte-identical results, which the fast-vs-reference
// determinism test proves.
func (s *System) SetReference(ref bool) {
	s.Reference = ref
	if ref {
		s.pres = nil
	} else if s.pres == nil && s.N <= maxPresenceCPUs {
		s.pres = newPresence(s.M.MemFrames())
	}
	for q := 0; q < s.N; q++ {
		s.I[q].SetGeneric(ref)
		s.D[q].SetGeneric(ref)
	}
}

// SetRecorder replaces the transaction recorder (used when the monitor is
// attached after construction).
func (s *System) SetRecorder(rec Recorder) { s.rec = rec }

func (s *System) record(t Txn) {
	if s.rec != nil {
		s.rec.Record(t)
	}
}

// Outcome describes the cost of one memory reference.
type Outcome struct {
	// Missed is true when the reference caused a monitored bus fill
	// (an instruction miss, or a data miss in both cache levels).
	Missed bool
	// L2Hit is true for data references that missed L1 but hit L2
	// (no bus transaction, short stall).
	L2Hit bool
	// Upgraded is true when a write hit required an upgrade
	// transaction.
	Upgraded bool
	// Stall is the CPU stall in cycles.
	Stall arch.Cycles
}

// Fetch performs an instruction fetch of the block containing a by CPU c at
// time now.
func (s *System) Fetch(c arch.CPUID, a arch.PAddr, now arch.Cycles) Outcome {
	// Direct-mapped hit probe: side-effect-free, so the full Access call
	// (and its return-value plumbing) is skipped on the overwhelmingly
	// common hit path. Returns false on the -reference oracle path.
	if s.I[c].ReadHit(a) {
		if s.Check != nil {
			s.Check.OnFetch(c, a.Block(), true, now)
		}
		return Outcome{}
	}
	hit, _, _ := s.I[c].Access(a, false)
	if s.Check != nil {
		s.Check.OnFetch(c, a.Block(), hit, now)
	}
	if hit {
		return Outcome{}
	}
	s.Stats.Reads++
	s.record(Txn{Ticks: TicksOf(now), Addr: a.Block(), CPU: c, Kind: TxnRead})
	return Outcome{Missed: true, Stall: s.missStall + s.jitter()}
}

// Read performs a data load of the block containing a by CPU c.
func (s *System) Read(c arch.CPUID, a arch.PAddr, now arch.Cycles) Outcome {
	// Direct-mapped L1 hit probe: side-effect-free, so the full hierarchy
	// Access call is skipped on the overwhelmingly common hit path.
	// Returns false on the -reference oracle path.
	if s.D[c].ReadHitL1(a) {
		if s.Check != nil {
			s.Check.OnData(c, a.Block(), false, check.LevelL1, now)
		}
		return Outcome{}
	}
	res := s.D[c].Access(a, false)
	switch res.Result {
	case cache.DataL1Hit:
		if s.Check != nil {
			s.Check.OnData(c, a.Block(), false, check.LevelL1, now)
		}
		return Outcome{}
	case cache.DataL2Hit:
		if s.Check != nil {
			s.Check.OnData(c, a.Block(), false, check.LevelL2, now)
		}
		return Outcome{L2Hit: true, Stall: s.l2Stall}
	}
	// Bus read: snoop remote caches.
	s.Stats.Reads++
	s.record(Txn{Ticks: TicksOf(now), Addr: a.Block(), CPU: c, Kind: TxnRead})
	if res.WriteBack {
		s.Stats.WriteBacks++
		s.record(Txn{Ticks: TicksOf(now), Addr: res.L2Evicted.Block, CPU: c, Kind: TxnWriteBack})
	}
	shared := false
	if s.pres != nil {
		// Fast path: the local L2 was just filled (possibly displacing a
		// block) — fold that into the presence filter, then snoop only
		// the CPUs whose presence bit is set.
		if res.L2HadEv {
			s.pres.clear(res.L2Evicted.Block, c)
		}
		s.pres.set(a, c)
		m := s.pres.mask(a) &^ (1 << uint(c))
		shared = m != 0
		for mm := m; mm != 0; mm &= mm - 1 {
			// A remote holder supplies the data if dirty and reverts
			// to clean Shared; memory is updated.
			q := arch.CPUID(bits.TrailingZeros64(mm))
			s.touch(q, a.Block())
			s.D[q].L2.SnoopRead(a)
		}
	} else {
		for q := 0; q < s.N; q++ {
			if arch.CPUID(q) == c {
				continue
			}
			d := s.D[q]
			if d.Resident(a) {
				shared = true
				if d.L2.Dirty(a) {
					// Remote cache supplies the data and reverts
					// to clean Shared; memory is updated.
					d.L2.Clean(a)
				}
				d.L2.SetShared(a, true)
			}
		}
	}
	s.D[c].L2.SetShared(a, shared)
	if s.Check != nil {
		s.Check.OnData(c, a.Block(), false, check.LevelFill, now)
	}
	return Outcome{Missed: true, Stall: s.missStall + s.jitter()}
}

// Write performs a data store to the block containing a by CPU c.
func (s *System) Write(c arch.CPUID, a arch.PAddr, now arch.Cycles) Outcome {
	// Store to a block both levels already hold Modified: no line changes
	// and no upgrade is due, so the full Access call is skipped. Returns
	// false on the -reference oracle path.
	if s.D[c].WriteHit(a) {
		if s.Check != nil {
			s.Check.OnData(c, a.Block(), true, check.LevelL1, now)
		}
		return Outcome{}
	}
	// The hierarchy reports the pre-access Shared state in WasShared, so
	// the upgrade decision needs no separate L2 lookup before the write.
	res := s.D[c].Access(a, true)
	wasShared := res.WasShared
	switch res.Result {
	case cache.DataL1Hit, cache.DataL2Hit:
		out := Outcome{L2Hit: res.Result == cache.DataL2Hit}
		lvl := check.LevelL1
		if out.L2Hit {
			out.Stall = s.l2Stall
			lvl = check.LevelL2
		}
		if wasShared {
			if s.Proto == WriteUpdate {
				// Broadcast the data; remote copies stay valid
				// and everyone remains Shared (memory updated,
				// so nobody is dirty).
				s.Stats.Updates++
				s.record(Txn{Ticks: TicksOf(now), Addr: a.Block(), CPU: c, Kind: TxnUpdate})
				s.D[c].L2.SetShared(a, true)
				s.D[c].L2.Clean(a)
				out.Upgraded = true
				out.Stall += s.missStall + s.jitter()
				if s.Check != nil {
					s.Check.OnData(c, a.Block(), true, lvl, now)
				}
				return out
			}
			s.Stats.Upgrades++
			s.record(Txn{Ticks: TicksOf(now), Addr: a.Block(), CPU: c, Kind: TxnUpgrade})
			s.invalidateRemote(c, a)
			s.D[c].L2.SetShared(a, false)
			out.Upgraded = true
			out.Stall += s.missStall + s.jitter()
		}
		if s.Check != nil {
			s.Check.OnData(c, a.Block(), true, lvl, now)
		}
		return out
	}
	// Write miss. The local L2 was just filled, possibly displacing a
	// block — keep the presence filter exact before any snoop consults it.
	if s.pres != nil {
		if res.L2HadEv {
			s.pres.clear(res.L2Evicted.Block, c)
		}
		s.pres.set(a, c)
	}
	if s.Proto == WriteUpdate {
		// One combined fetch-and-broadcast transaction; remote copies
		// stay valid and refreshed.
		shared := false
		if s.pres != nil {
			m := s.pres.mask(a) &^ (1 << uint(c))
			shared = m != 0
			for mm := m; mm != 0; mm &= mm - 1 {
				q := arch.CPUID(bits.TrailingZeros64(mm))
				s.touch(q, a.Block())
				s.D[q].L2.SnoopRead(a)
			}
		} else {
			for q := 0; q < s.N; q++ {
				if arch.CPUID(q) != c && s.D[q].Resident(a) {
					shared = true
					s.D[q].L2.Clean(a)
					s.D[q].L2.SetShared(a, true)
				}
			}
		}
		if shared {
			s.Stats.Updates++
			s.record(Txn{Ticks: TicksOf(now), Addr: a.Block(), CPU: c, Kind: TxnUpdate})
		} else {
			s.Stats.Reads++
			s.record(Txn{Ticks: TicksOf(now), Addr: a.Block(), CPU: c, Kind: TxnRead})
		}
		if res.WriteBack {
			s.Stats.WriteBacks++
			s.record(Txn{Ticks: TicksOf(now), Addr: res.L2Evicted.Block, CPU: c, Kind: TxnWriteBack})
		}
		s.D[c].L2.SetShared(a, shared)
		if shared {
			s.D[c].L2.Clean(a) // memory holds the broadcast data
		}
		if s.Check != nil {
			s.Check.OnData(c, a.Block(), true, check.LevelFill, now)
		}
		return Outcome{Missed: true, Stall: s.missStall + s.jitter()}
	}
	// Write miss: read-exclusive (invalidate protocol).
	s.Stats.ReadExs++
	s.record(Txn{Ticks: TicksOf(now), Addr: a.Block(), CPU: c, Kind: TxnReadEx})
	if res.WriteBack {
		s.Stats.WriteBacks++
		s.record(Txn{Ticks: TicksOf(now), Addr: res.L2Evicted.Block, CPU: c, Kind: TxnWriteBack})
	}
	s.invalidateRemote(c, a)
	s.D[c].L2.SetShared(a, false)
	if s.Check != nil {
		s.Check.OnData(c, a.Block(), true, check.LevelFill, now)
	}
	return Outcome{Missed: true, Stall: s.missStall + s.jitter()}
}

func (s *System) invalidateRemote(c arch.CPUID, a arch.PAddr) {
	if s.pres != nil {
		// Only CPUs whose presence bit is set can hold the block; clear
		// their bits along with their copies. Iteration is in ascending
		// CPU order, like the reference loop.
		m := s.pres.mask(a) &^ (1 << uint(c))
		if m == 0 {
			return
		}
		for mm := m; mm != 0; mm &= mm - 1 {
			q := arch.CPUID(bits.TrailingZeros64(mm))
			s.touch(q, a.Block())
			s.D[q].Invalidate(a)
		}
		s.pres.clearMask(a, m)
		return
	}
	for q := 0; q < s.N; q++ {
		if arch.CPUID(q) != c {
			s.D[q].Invalidate(a)
		}
	}
}

// Uncached performs an uncached access (escape reads and device-register
// accesses). It always produces a bus transaction and never touches the
// caches. stallFree suppresses the stall (used for instrumentation escapes,
// which the simulation emits at zero cost; see DESIGN.md §6).
func (s *System) Uncached(c arch.CPUID, a arch.PAddr, now arch.Cycles, stallFree bool) Outcome {
	s.Stats.Uncacheds++
	s.record(Txn{Ticks: TicksOf(now), Addr: a, CPU: c, Kind: TxnUncached})
	if stallFree {
		return Outcome{}
	}
	return Outcome{Missed: true, Stall: s.missStall + s.jitter()}
}

// Bypass performs a block transfer access that deliberately bypasses the
// caches (the Section 4.2.2 proposal for block operations): the bus is
// used (full miss latency) but no cache is filled, so the transfer does
// not wipe resident state. Writes still invalidate every cached copy to
// stay coherent. The monitor sees an uncached transaction at an even
// (block-aligned) address — the paper's Uncached class.
// blocks covers [a, a+blocks*BlockSize) with ONE bus transaction: the
// paper's proposal exploits "the spatial locality of the reference stream"
// by moving contiguous blocks per transfer rather than one word at a time.
func (s *System) Bypass(c arch.CPUID, a arch.PAddr, blocks int, write bool, now arch.Cycles) Outcome {
	if blocks < 1 {
		blocks = 1
	}
	s.Stats.Uncacheds++
	s.record(Txn{Ticks: TicksOf(now), Addr: a.Block(), CPU: c, Kind: TxnUncached})
	if write {
		for i := 0; i < blocks; i++ {
			ba := a + arch.PAddr(i*arch.BlockSize)
			if s.pres != nil {
				// Bypass writes invalidate every cached copy, the
				// writer's own included.
				m := s.pres.mask(ba)
				for mm := m; mm != 0; mm &= mm - 1 {
					q := arch.CPUID(bits.TrailingZeros64(mm))
					s.touch(q, ba.Block())
					s.D[q].Invalidate(ba)
				}
				s.pres.clearMask(ba, m)
			} else {
				for q := 0; q < s.N; q++ {
					s.D[q].Invalidate(ba)
				}
			}
		}
	}
	if s.Check != nil {
		for i := 0; i < blocks; i++ {
			ba := (a + arch.PAddr(i*arch.BlockSize)).Block()
			s.Check.OnBypass(c, ba, write, now)
		}
	}
	return Outcome{Missed: true, Stall: s.missStall + s.jitter()}
}

// InvalidateCodeFrame flushes ALL instruction caches. The machine has no
// selective I-cache invalidation: when a physical page that contained code
// is reallocated, the kernel must flush the whole I-cache on every CPU
// (the source of the Inval class, Table 2, and the reason Figure 6's
// large-cache curves saturate). It returns the number of blocks
// invalidated.
func (s *System) InvalidateCodeFrame(f uint32) int {
	n := 0
	for q := 0; q < s.N; q++ {
		s.touchAll(arch.CPUID(q))
		n += s.I[q].ResidentBlocks()
		s.I[q].InvalidateAll()
	}
	if s.Check != nil {
		s.Check.OnIFlush(-1)
	}
	return n
}

// InjectEvict forcibly evicts the block containing a from CPU c's data
// hierarchy (fault injection). A dirty victim is written back — the
// injector may displace data, never destroy it. It reports whether a
// block was actually evicted.
func (s *System) InjectEvict(c arch.CPUID, a arch.PAddr, now arch.Cycles) bool {
	d := s.D[c]
	if !d.Resident(a) {
		return false
	}
	s.touch(c, a.Block())
	dirty := d.L2.Dirty(a)
	d.Invalidate(a)
	if s.pres != nil {
		s.pres.clear(a, c)
	}
	if dirty {
		s.Stats.WriteBacks++
		s.record(Txn{Ticks: TicksOf(now), Addr: a.Block(), CPU: c, Kind: TxnWriteBack})
	}
	if s.Check != nil {
		s.Check.OnEvict(c, a.Block(), now)
	}
	return true
}

// InjectEvictRandom evicts up to burst randomly chosen resident blocks
// from CPU c's data hierarchy, drawing victims from rng. It returns how
// many blocks were evicted.
func (s *System) InjectEvictRandom(rng *rand.Rand, c arch.CPUID, burst int, now arch.Cycles) int {
	l2 := s.D[c].L2
	lines := l2.NumLines()
	n := 0
	for i := 0; i < burst; i++ {
		if b, ok := l2.LineAt(rng.Intn(lines)); ok {
			if s.InjectEvict(c, b, now) {
				n++
			}
		}
	}
	return n
}

// InjectIFlush forcibly flushes CPU c's instruction cache (fault
// injection), telling the checker so stale-fetch tracking stays exact.
// It returns the number of blocks flushed.
func (s *System) InjectIFlush(c arch.CPUID) int {
	s.touchAll(c)
	n := s.I[c].ResidentBlocks()
	s.I[c].InvalidateAll()
	if s.Check != nil {
		s.Check.OnIFlush(int(c))
	}
	return n
}
