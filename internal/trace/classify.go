// Package trace is the postprocessing pipeline of Section 2.2: it consumes
// the hardware monitor's bus-transaction trace — misses identified by
// physical address and CPU, instrumentation events encoded as odd-address
// escape reads — and reconstructs everything the paper reports.
//
// The central trick is the same one the paper uses for its cache
// re-simulations: for direct-mapped caches, the miss trace fully determines
// cache contents (each set holds the block last missed on, modulo
// invalidations, which are also visible as bus transactions or escape
// events). The classifier therefore rebuilds per-CPU mirror caches from the
// trace alone and labels every miss with the Table 2 taxonomy: Cold,
// Dispos, Dispap, Sharing, Inval, Uncached, plus the Dispossame subset and
// the application's Ap_dispos misses.
package trace

import (
	"repro/internal/arch"
	"repro/internal/bus"
	"repro/internal/kernel"
	"repro/internal/kmem"
	"repro/internal/monitor"
)

// MissClass is the Table 2 classification.
type MissClass uint8

const (
	// Cold: the processor's first access to the block.
	Cold MissClass = iota
	// DispOS: displaced by an intervening OS reference.
	DispOS
	// DispApp: displaced by an intervening application reference.
	DispApp
	// Sharing: invalidated by coherence activity (including upgrade
	// traffic on write-shared blocks).
	Sharing
	// Inval: I-cache invalidation when a code page was reallocated.
	Inval
	// Uncached: accesses that bypass the caches (device registers).
	Uncached

	// NumClasses is the number of miss classes.
	NumClasses
)

// String returns the paper's class name.
func (m MissClass) String() string {
	switch m {
	case Cold:
		return "Cold"
	case DispOS:
		return "Dispos"
	case DispApp:
		return "Dispap"
	case Sharing:
		return "Sharing"
	case Inval:
		return "Inval"
	case Uncached:
		return "Uncached"
	default:
		return "?"
	}
}

// block-state causes stored per (cpu, cache, block).
const (
	causeNever   = 0 // never resident on this CPU
	causeDispOS  = 1
	causeDispApp = 2
	causeSharing = 3
	causeInval   = 4
	causeHere    = 5 // currently resident (mirror says so)
)

const (
	noBlock  = ^uint32(0)
	instrDim = 0
	dataDim  = 1

	// blocksPerFrame is the number of cache blocks per 4 KB frame — the
	// granularity of the classifier's paged block state.
	blocksPerFrame = arch.PageSize / arch.BlockSize
)

// ClassCounts is the [os][instr][class] miss-count cube — the shape of
// Result.Counts, named so the sampling layer can snapshot and difference
// it without spelling the dimensions out.
type ClassCounts = [2][2][NumClasses]int64

// Result is everything the classifier extracts from one trace.
type Result struct {
	NCPU int

	// Counts[os][instr][class]: os=1 for OS misses, instr=1 for
	// instruction misses.
	Counts ClassCounts

	// Dispossame subsets of the OS Dispos misses.
	DispossameI int64
	DispossameD int64

	// StructSharing / StructAll: OS data misses by Table 3 structure
	// (Sharing class only, and all classes).
	StructSharing map[string]int64
	StructAll     map[string]int64

	// MigrationByGroup: Sharing misses on the migration structures
	// (kernel stack, user structure, process table) by the Table 5
	// routine group of the code executing at the miss.
	MigrationByGroup map[string]int64
	// MigrationTotal is the total migration-miss count (Sharing misses
	// on the three per-process structures).
	MigrationTotal int64
	// MigrationByStruct splits migration misses by structure family:
	// "Kernel Stack", "User Struc." (PCB+Eframe+Rest), "Process Table".
	MigrationByStruct map[string]int64

	// DisposIByRoutine: OS instruction Dispos misses per kernel
	// routine id (Figure 5).
	DisposIByRoutine map[int]int64

	// OpMisses[op][instr]: OS misses by high-level operation (Figure 9).
	OpMisses [kernel.NumOps][2]int64

	// BlockOpDMisses: OS data misses during bcopy / bclear / vhand
	// (Table 6 columns).
	BlockOpDMisses map[string]int64

	// Timeline tallies every CPU's OS, idle and application stretches
	// (Figures 1 and 3).
	Timeline Timeline

	// IdleMisses happened in the idle loop (excluded from stall shares).
	IdleMisses int64

	// Malformed counts undecodable escape sequences (should be 0).
	Malformed int
	// ReusedWithinInvocation counts OS misses on blocks already missed
	// on in the same invocation (Section 4.1's 10-25% observation).
	ReusedWithinInvocation int64
	// OSMissTotal and Total are convenience sums (OS / all misses,
	// excluding idle-loop misses).
	OSMissTotal int64
	Total       int64

	// IResim is the instruction-miss stream (fills and flush markers)
	// used to drive the Figure 6 cache re-simulations. Collected only
	// when the classifier was built with CollectIResim.
	IResim []IResimEvent

	// DResim is the data-miss stream (fills plus coherence
	// invalidations) for the data-cache sweep that tests the paper's
	// §4.2.2 claim that larger data caches cannot remove Sharing
	// misses. Collected only with CollectDResim.
	DResim []DResimEvent
}

// DResimEvent is one event of the data-cache re-simulation stream. Like
// IResimEvent it is 8 bytes: a 60M-cycle window holds millions of them.
type DResimEvent struct {
	Block uint32
	CPU   uint8
	OS    bool
	// Fill is true for a cache fill (Read/ReadEx); false for an
	// invalidation-only transaction (Upgrade). Inval is true when the
	// event invalidates the block in every other CPU's cache (ReadEx
	// and Upgrade).
	Fill  bool
	Inval bool
}

// IResimEvent is one event of the I-miss re-simulation stream: either a
// fill of Block by CPU (Flush=false) or a machine-wide I-cache flush.
type IResimEvent struct {
	Block uint32
	CPU   uint8
	OS    bool
	Flush bool
}

// IMissSink is a subscriber to a classifier's I-miss stream (see
// Classifier.SubscribeIMisses): Add receives each event Result.IResim
// would hold, in the same order, on the goroutine that feeds the
// classifier; Finish calls End once the stream is over.
type IMissSink interface {
	Add(IResimEvent)
	End()
}

// MaxResimCPUs is the largest machine whose resim streams can be
// collected or subscribed to: the events carry the CPU in one byte.
const MaxResimCPUs = 1 << 8

// resimChunk is the capacity of one chunk of a resim stream (256 KB).
const resimChunk = 32 << 10

// resimStream accumulates resim events in fixed-size chunks, so that
// growing it never re-copies the events already stored (append's
// re-copying was most of what a collecting run allocated); flat joins the
// chunks once, in Finish.
type resimStream[E any] struct {
	full [][]E
	cur  []E
}

func (s *resimStream[E]) add(e E) {
	if len(s.cur) == cap(s.cur) {
		if s.cur != nil {
			s.full = append(s.full, s.cur)
		}
		s.cur = make([]E, 0, resimChunk)
	}
	s.cur = append(s.cur, e)
}

func (s *resimStream[E]) flat() []E {
	if len(s.full) == 0 {
		return s.cur
	}
	out := make([]E, 0, len(s.full)*resimChunk+len(s.cur))
	for _, c := range s.full {
		out = append(out, c...)
	}
	return append(out, s.cur...)
}

// Migration-miss structure families (Table 4 / Table 5 row keys for
// Result.MigrationByStruct): the three per-process structures whose
// Sharing misses constitute process-migration cost.
const (
	FamilyKernelStack = kmem.AttrKernelStack
	FamilyUserStruct  = "User Struc." // PCB + Eframe + rest of u-area
	FamilyProcTable   = kmem.AttrProcTable
)

// ClassSum sums classified misses for one quadrant of the taxonomy:
// os=1 selects OS misses (0 application), instr=1 instruction misses
// (0 data). Every table that needs an I- or D-miss denominator uses
// this, so the idle-exclusion convention lives in one place.
func (r *Result) ClassSum(os, instr int) int64 {
	var n int64
	for cl := MissClass(0); cl < NumClasses; cl++ {
		n += r.Counts[os][instr][cl]
	}
	return n
}

// OSShare returns OS misses / all misses.
func (r *Result) OSShare() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.OSMissTotal) / float64(r.Total)
}

// cpuState is the per-CPU decoder state.
type cpuState struct {
	mode    arch.Mode
	opStack []kernel.OpKind
	pid     arch.PID
	routine int // current routine id, -1 unknown

	userEpoch uint32 // bumped when user execution resumes
	invID     uint32 // OS invocation counter
	// intrFromIdle remembers, per nested interrupt, whether it
	// interrupted the idle loop (its misses are OS work, not idle).
	intrFromIdle []bool

	// mirror caches: set → resident block index (noBlock if empty).
	iMirror []uint32
	dMirror []uint32
	// fill-invocation per set: the OS invocation id of the last OS
	// fill (0 for application fills), for the reuse statistic.
	iFillInv []uint32
	dFillInv []uint32

	seg segBuilder
}

func (cs *cpuState) op() kernel.OpKind {
	if len(cs.opStack) == 0 {
		return kernel.OpOtherSyscall
	}
	return cs.opStack[len(cs.opStack)-1]
}

// Migration-family indices for the dense migration tally (resolved to the
// Family* strings at Finish).
const (
	famKernelStack = iota
	famUserStruct
	famProcTable
	numFamilies
)

// Block-operation indices for the dense Table 6 tally.
const (
	blockOpBcopy = iota
	blockOpBclear
	blockOpVhand
	numBlockOps
)

// Classifier processes a trace incrementally.
type Classifier struct {
	kt     *kernel.KText
	layout *kmem.Layout
	ncpu   int

	// iSets/dSets are the mirror-cache line counts, derived from the
	// layout's machine (total lines: the mirrors model the direct-mapped
	// caches of the measured machine, set = block mod sets).
	iSets int
	dSets int

	dec  *monitor.Decoder
	cpus []*cpuState

	// pages holds the per-block cause/epoch state, one page per 4 KB
	// frame, allocated lazily on first touch (check's shadowPage layout).
	// The flat alternative — ncpu*2*nBlocks entries — costs ~80 MB of
	// zeroed memory per classifier at 4 CPUs; paging keeps it proportional
	// to the physical footprint the trace actually touches.
	pages []*blockPage

	frameCode []bool // frame → holds code

	// Interned routine IDs of the block operations, for the per-miss
	// attribution without name lookups.
	bcopyID, bclearID, vhandID int

	// Dense per-miss tallies indexed by interned IDs; Finish resolves
	// them into the string-keyed Result maps. The hot path never touches
	// a map or a string.
	structAll     [kmem.NumAttrs]int64
	structSharing [kmem.NumAttrs]int64
	migByStruct   [numFamilies]int64
	migByGroup    [kernel.NumGroups]int64
	blockOpD      [numBlockOps]int64
	disposI       []int64 // by routine ID

	// CollectIResim records the I-miss stream into Result.IResim.
	CollectIResim bool
	// CollectDResim records the data-miss stream into Result.DResim.
	CollectDResim bool
	iResim        resimStream[IResimEvent]
	dResim        resimStream[DResimEvent]
	// iSinks are the I-miss stream's subscribers besides the stored
	// stream (nil when there are none).
	iSinks []IMissSink

	res *Result
}

// NewClassifier builds a classifier for the machine the layout was
// computed for, with ncpu processors.
func NewClassifier(kt *kernel.KText, layout *kmem.Layout, ncpu int) *Classifier {
	m := layout.M
	frames := m.MemFrames()
	c := &Classifier{
		kt:        kt,
		layout:    layout,
		ncpu:      ncpu,
		iSets:     m.ICacheSize / arch.BlockSize,
		dSets:     m.DCacheL2Size / arch.BlockSize,
		dec:       monitor.NewDecoder(),
		pages:     make([]*blockPage, frames),
		frameCode: make([]bool, frames),
		bcopyID:   kt.R(kmem.RoutineBcopy).ID,
		bclearID:  kt.R(kmem.RoutineBclear).ID,
		vhandID:   kt.R(kmem.RoutineVhand).ID,
		disposI:   make([]int64, len(kt.Routines)),
		res: &Result{
			NCPU:              ncpu,
			StructSharing:     map[string]int64{},
			StructAll:         map[string]int64{},
			MigrationByGroup:  map[string]int64{},
			MigrationByStruct: map[string]int64{},
			DisposIByRoutine:  map[int]int64{},
			BlockOpDMisses:    map[string]int64{},
			Timeline:          newTimeline(),
		},
	}
	for i := 0; i < ncpu; i++ {
		cs := &cpuState{
			mode:     arch.ModeUser,
			routine:  -1,
			iMirror:  make([]uint32, c.iSets),
			dMirror:  make([]uint32, c.dSets),
			iFillInv: make([]uint32, c.iSets),
			dFillInv: make([]uint32, c.dSets),
		}
		for j := range cs.iMirror {
			cs.iMirror[j] = noBlock
		}
		for j := range cs.dMirror {
			cs.dMirror[j] = noBlock
		}
		c.cpus = append(c.cpus, cs)
	}
	// Kernel text frames hold code.
	for f := uint32(0); f < layout.KernelText.End().Frame(); f++ {
		c.frameCode[f] = true
	}
	return c
}

// blockPage holds one frame's per-(block, dim, cpu) classification state:
// the block-state cause and the user epoch of the last displacement.
type blockPage struct {
	cause []uint8
	epoch []uint32
}

// state returns the cause and epoch cells of (cpu, dim, block), allocating
// the frame's page on first touch (and growing the frame index for tests
// that fabricate blocks beyond physical memory).
func (c *Classifier) state(cpu arch.CPUID, dim int, block uint32) (cause *uint8, epoch *uint32) {
	f := int(block) / blocksPerFrame
	if f >= len(c.pages) {
		grown := make([]*blockPage, f+1)
		copy(grown, c.pages)
		c.pages = grown
	}
	pg := c.pages[f]
	if pg == nil {
		pg = &blockPage{
			cause: make([]uint8, blocksPerFrame*2*c.ncpu),
			epoch: make([]uint32, blocksPerFrame*2*c.ncpu),
		}
		c.pages[f] = pg
	}
	i := ((int(block)%blocksPerFrame)*2+dim)*c.ncpu + int(cpu)
	return &pg.cause[i], &pg.epoch[i]
}

// Feed consumes one bus transaction.
func (c *Classifier) Feed(t bus.Txn) {
	rec, ok := c.dec.Feed(t)
	if !ok {
		return
	}
	if rec.IsEvent {
		c.event(rec)
		return
	}
	c.miss(rec.Txn)
}

// Record implements bus.Recorder: attached to the bus, the classifier
// consumes each transaction the cycle it occurs — the streaming pipeline,
// with no intermediate trace buffer.
func (c *Classifier) Record(t bus.Txn) { c.Feed(t) }

var _ bus.Recorder = (*Classifier)(nil)

// SubscribeIMisses adds sink to the subscribers of the I-miss stream: from
// the next transaction on, it receives every fill and flush marker that
// CollectIResim would store. Subscribe before feeding, and only on a
// machine of at most MaxResimCPUs processors.
func (c *Classifier) SubscribeIMisses(sink IMissSink) { c.iSinks = append(c.iSinks, sink) }

// iMiss hands one event of the I-miss stream to its subscribers: the
// stored stream (CollectIResim) and each subscribed sink.
func (c *Classifier) iMiss(e IResimEvent) {
	if c.CollectIResim {
		c.iResim.add(e)
	}
	for _, s := range c.iSinks {
		s.Add(e)
	}
}

// CountsSnapshot returns a copy of the running class-count cube. Core
// snapshots it at the measured-interval boundaries of a sampling schedule
// and differences the copies: each delta is one interval's tally.
func (c *Classifier) CountsSnapshot() ClassCounts { return c.res.Counts }

// MirrorResident returns the block resident in the given mirror-cache set
// (instr selects the I- or D-mirror), for the cross-validation tests that
// compare the trace-reconstructed state against the simulator's real
// caches. ok is false for an empty set.
func (c *Classifier) MirrorResident(cpu arch.CPUID, instr bool, set int) (block uint32, ok bool) {
	cs := c.cpus[cpu]
	var m []uint32
	if instr {
		m = cs.iMirror
	} else {
		m = cs.dMirror
	}
	b := m[set]
	return b, b != noBlock
}

// Finish ends the I-miss stream for its subscribers, adds each CPU's open
// OS invocation to the Timeline, resolves the dense interned tallies into
// the string-keyed Result maps (only non-zero entries get keys, matching
// the lazy map semantics of the buffered pipeline), and returns the result.
func (c *Classifier) Finish() *Result {
	for _, s := range c.iSinks {
		s.End()
	}
	c.res.Malformed = c.dec.Malformed
	c.res.IResim, c.res.DResim = c.iResim.flat(), c.dResim.flat()
	for _, cs := range c.cpus {
		cs.seg.finish(&c.res.Timeline)
	}
	for id := kmem.AttrID(0); id < kmem.NumAttrs; id++ {
		if v := c.structAll[id]; v != 0 {
			c.res.StructAll[id.Name()] = v
		}
		if v := c.structSharing[id]; v != 0 {
			c.res.StructSharing[id.Name()] = v
		}
	}
	famNames := [numFamilies]string{FamilyKernelStack, FamilyUserStruct, FamilyProcTable}
	for fam, v := range c.migByStruct {
		if v != 0 {
			c.res.MigrationByStruct[famNames[fam]] = v
		}
	}
	for g := kernel.GroupID(0); g < kernel.NumGroups; g++ {
		if v := c.migByGroup[g]; v != 0 {
			name := g.Name()
			if name == "" {
				name = "Other"
			}
			c.res.MigrationByGroup[name] = v
		}
	}
	for id, v := range c.disposI {
		if v != 0 {
			c.res.DisposIByRoutine[id] = v
		}
	}
	opNames := [numBlockOps]string{kmem.RoutineBcopy, kmem.RoutineBclear, kmem.RoutineVhand}
	for op, v := range c.blockOpD {
		if v != 0 {
			c.res.BlockOpDMisses[opNames[op]] = v
		}
	}
	return c.res
}

// event updates decoder state from an instrumentation event.
func (c *Classifier) event(rec monitor.Record) {
	cs := c.cpus[rec.Txn.CPU]
	switch rec.Event {
	case monitor.EvTraceStart:
		// Nothing: per-CPU sync events follow.
	case monitor.EvEnterOS:
		if cs.mode == arch.ModeUser {
			cs.invID++
		}
		cs.mode = arch.ModeKernel
		cs.opStack = append(cs.opStack[:0], kernel.OpKind(rec.Args[0]))
		if rec.Args[1] != 0 {
			cs.pid = arch.PID(rec.Args[1])
		}
		cs.seg.boundary(&c.res.Timeline, segOS, cs.invID, rec.Txn.Ticks)
	case monitor.EvExitOS:
		cs.mode = arch.ModeUser
		cs.userEpoch++
		cs.opStack = cs.opStack[:0]
		cs.seg.boundary(&c.res.Timeline, segApp, 0, rec.Txn.Ticks)
	case monitor.EvEnterIdle:
		cs.mode = arch.ModeIdle
		cs.intrFromIdle = cs.intrFromIdle[:0]
		cs.seg.boundary(&c.res.Timeline, segIdle, cs.invID, rec.Txn.Ticks)
	case monitor.EvExitIdle:
		cs.mode = arch.ModeKernel
		cs.intrFromIdle = cs.intrFromIdle[:0]
		cs.seg.boundary(&c.res.Timeline, segOS, cs.invID, rec.Txn.Ticks)
	case monitor.EvEnterIntr:
		cs.opStack = append(cs.opStack, kernel.OpInterrupt)
		// An interrupt taken in the idle loop executes kernel work;
		// its misses must not be dropped as idle misses.
		cs.intrFromIdle = append(cs.intrFromIdle, cs.mode == arch.ModeIdle)
		if cs.mode == arch.ModeIdle {
			cs.mode = arch.ModeKernel
		}
	case monitor.EvExitIntr:
		if len(cs.opStack) > 0 {
			cs.opStack = cs.opStack[:len(cs.opStack)-1]
		}
		if n := len(cs.intrFromIdle); n > 0 {
			if cs.intrFromIdle[n-1] {
				cs.mode = arch.ModeIdle
			}
			cs.intrFromIdle = cs.intrFromIdle[:n-1]
		}
	case monitor.EvRunProc:
		cs.pid = arch.PID(rec.Args[0])
	case monitor.EvRoutineEnter:
		cs.routine = int(rec.Args[0])
	case monitor.EvRoutineExit:
		cs.routine = -1
	case monitor.EvUTLB:
		cs.seg.nUTLB++
	case monitor.EvICacheInval:
		c.icacheInval(rec.Args[0])
	case monitor.EvPageAlloc:
		frame := rec.Args[0]
		if int(frame) < len(c.frameCode) {
			c.frameCode[frame] = rec.Args[1] == uint32(kmem.FrameCode)
		}
	case monitor.EvPageFree:
		// Frame kind persists until reallocation.
	case monitor.EvBlockOp:
		// Sizes are reported by the kernel log (Table 7); the escape
		// exists so a pure-trace consumer could recover them too.
	case monitor.EvTLBChange:
		// Virtual-to-physical tracking is not needed: user code frames
		// are identified by the page-allocation events.
	}
}

// icacheInval models the machine's code-page-reallocation flush: the
// whole I-cache of every CPU is invalidated, so every resident I-mirror
// block gets the Inval cause.
func (c *Classifier) icacheInval(frame uint32) {
	_ = frame // the flush is total; the frame only identifies the cause
	if c.CollectIResim || c.iSinks != nil {
		c.iMiss(IResimEvent{Flush: true})
	}
	for q := 0; q < c.ncpu; q++ {
		cs := c.cpus[q]
		for set, b := range cs.iMirror {
			if b != noBlock {
				cs.iMirror[set] = noBlock
				ocause, _ := c.state(arch.CPUID(q), instrDim, b)
				*ocause = causeInval
			}
		}
	}
}

// isInstr decides whether a read fill is an instruction fetch: kernel text
// and user code frames hold instructions; everything else is data.
func (c *Classifier) isInstr(a arch.PAddr) bool {
	return c.frameCode[a.Frame()]
}

// miss classifies one monitored bus transaction.
func (c *Classifier) miss(t bus.Txn) {
	cs := c.cpus[t.CPU]
	switch t.Kind {
	case bus.TxnWriteBack:
		return // not a miss
	case bus.TxnUncached:
		// A genuine uncached device access (even address).
		c.tally(cs, t, false, Uncached, false)
		return
	case bus.TxnUpgrade:
		// Write hit on a Shared block: coherence traffic, counted as
		// a Sharing miss; invalidates remote copies; no fill.
		c.invalidateRemote(t)
		if c.CollectDResim && cs.mode != arch.ModeIdle {
			c.dResim.add(DResimEvent{
				Block: uint32(t.Addr) >> arch.BlockShift,
				CPU:   uint8(t.CPU), OS: c.osMode(cs, t.Addr), Inval: true,
			})
		}
		c.tally(cs, t, false, Sharing, false)
		return
	}
	// TxnRead / TxnReadEx / TxnUpdate: a fill (TxnUpdate is the
	// write-update ablation's fetch-and-broadcast: a fill that does NOT
	// invalidate remote copies).
	block := uint32(t.Addr) >> arch.BlockShift
	instr := t.Kind == bus.TxnRead && c.isInstr(t.Addr)
	if !instr && c.CollectDResim {
		c.dResim.add(DResimEvent{
			Block: block, CPU: uint8(t.CPU),
			OS:    cs.mode != arch.ModeIdle && c.osMode(cs, t.Addr),
			Fill:  true,
			Inval: t.Kind == bus.TxnReadEx,
		})
	}
	if instr && (c.CollectIResim || c.iSinks != nil) {
		// Idle-loop fills warm the simulated caches but are excluded
		// from the OS miss counts (OS=false), matching the idle
		// exclusion of every other statistic.
		c.iMiss(IResimEvent{
			Block: block, CPU: uint8(t.CPU),
			OS: cs.mode != arch.ModeIdle && c.osMode(cs, t.Addr),
		})
	}
	dim := dataDim
	if instr {
		dim = instrDim
	}
	cause, epoch := c.state(t.CPU, dim, block)
	var class MissClass
	sameInv := false
	switch *cause {
	case causeNever:
		class = Cold
	case causeHere:
		// Refill of a block the mirror thinks is resident (a ReadEx
		// racing our bookkeeping): coherence traffic.
		class = Sharing
	case causeDispOS:
		class = DispOS
		// Dispossame: the application was not invoked between the
		// displacing OS reference and this miss.
		sameInv = *epoch == cs.userEpoch
	case causeDispApp:
		class = DispApp
	case causeSharing:
		class = Sharing
	case causeInval:
		class = Inval
	}
	// Install in the mirror, displacing the previous occupant.
	var mirror, fillInv []uint32
	var sets int
	if instr {
		mirror, fillInv, sets = cs.iMirror, cs.iFillInv, c.iSets
	} else {
		mirror, fillInv, sets = cs.dMirror, cs.dFillInv, c.dSets
	}
	set := int(block) % sets
	// The displacing reference is an OS reference if the CPU is inside
	// an OS window OR the fill itself targets kernel space (the UTLB
	// handler runs outside OS windows).
	displacerOS := c.osMode(cs, t.Addr)
	if old := mirror[set]; old != noBlock && old != block {
		ocause, oepoch := c.state(t.CPU, dim, old)
		if displacerOS {
			*ocause = causeDispOS
			// Section 4.1: 10-25% of OS misses replace blocks
			// already missed on within the same invocation.
			if fillInv[set] == cs.invID {
				c.res.ReusedWithinInvocation++
			}
		} else {
			*ocause = causeDispApp
		}
		*oepoch = cs.userEpoch
	}
	mirror[set] = block
	if displacerOS {
		fillInv[set] = cs.invID
	} else {
		fillInv[set] = 0
	}
	*cause = causeHere
	// Data writes invalidate remote copies (not under write-update).
	if t.Kind == bus.TxnReadEx {
		c.invalidateRemote(t)
	}
	if t.Kind == bus.TxnUpdate {
		// Sharing-induced bus traffic by definition.
		class = Sharing
		sameInv = false
	}
	c.tally(cs, t, instr, class, sameInv)
}

// invalidateRemote marks the block invalid (Sharing cause) in every other
// CPU's data mirror.
func (c *Classifier) invalidateRemote(t bus.Txn) {
	block := uint32(t.Addr) >> arch.BlockShift
	set := int(block) % c.dSets
	for q := 0; q < c.ncpu; q++ {
		if arch.CPUID(q) == t.CPU {
			continue
		}
		cs := c.cpus[q]
		if cs.dMirror[set] == block {
			cs.dMirror[set] = noBlock
			ocause, _ := c.state(arch.CPUID(q), dataDim, block)
			*ocause = causeSharing
		}
	}
}

// osMode reports whether a reference by this CPU counts as an OS
// reference: kernel-mode windows, the idle loop, or any access to kernel
// physical space (the UTLB handler runs outside OS invocations).
func (c *Classifier) osMode(cs *cpuState, a arch.PAddr) bool {
	if cs.mode != arch.ModeUser {
		return true
	}
	return a < c.layout.KernelEnd
}

// tally records one classified miss. sameInv marks a Dispos fill whose
// displacer ran in the same OS invocation (the Dispossame subset); it is
// false for non-fill events (uncached accesses, upgrades).
func (c *Classifier) tally(cs *cpuState, t bus.Txn, instr bool, class MissClass, sameInv bool) {
	os := c.osMode(cs, t.Addr)
	if cs.mode == arch.ModeIdle {
		c.res.IdleMisses++
		return
	}
	c.res.Total++
	oi, ii := 0, 0
	if os {
		oi = 1
	}
	if instr {
		ii = 1
	}
	c.res.Counts[oi][ii][class]++
	// Timeline miss accounting.
	if cs.mode == arch.ModeUser && os {
		// UTLB handler misses during an application stretch.
		cs.seg.nUTLBMiss++
	} else if instr {
		cs.seg.cur.IMiss++
	} else {
		cs.seg.cur.DMiss++
	}
	if !os {
		return
	}
	c.res.OSMissTotal++
	// Operation attribution (Figure 9). UTLB-handler misses outside OS
	// windows belong to the cheap-TLB category.
	op := cs.op()
	if cs.mode == arch.ModeUser {
		op = kernel.OpCheapTLB
	}
	c.res.OpMisses[op][ii]++
	if class == DispOS && sameInv {
		if instr {
			c.res.DispossameI++
		} else {
			c.res.DispossameD++
		}
	}
	if instr {
		if class == DispOS {
			if r := c.kt.At(t.Addr); r != nil {
				c.disposI[r.ID]++
			}
		}
		return
	}
	// Data-structure attribution, entirely on interned IDs: the executing
	// routine is compared by ID, the structure resolved to an AttrID.
	rid := cs.routine
	bop := kmem.BlockOpNone
	switch rid {
	case c.bcopyID:
		bop = kmem.BlockOpBcopy
	case c.bclearID:
		bop = kmem.BlockOpBclear
	}
	structID := c.layout.AttributeID(t.Addr, bop)
	c.structAll[structID]++
	if class == Sharing {
		c.structSharing[structID]++
		// Migration misses: Sharing misses on per-process state.
		fam := -1
		switch structID {
		case kmem.AttrIDKernelStack:
			fam = famKernelStack
		case kmem.AttrIDPCB, kmem.AttrIDEframe, kmem.AttrIDRestUser:
			fam = famUserStruct
		case kmem.AttrIDProcTable:
			fam = famProcTable
		}
		if fam >= 0 {
			c.res.MigrationTotal++
			c.migByStruct[fam]++
			group := kernel.GroupIDNone
			if rid >= 0 && rid < len(c.kt.Routines) {
				group = c.kt.ByID(rid).GroupID
			}
			c.migByGroup[group]++
		}
	}
	// Block-operation attribution (Table 6).
	switch rid {
	case c.bcopyID:
		c.blockOpD[blockOpBcopy]++
	case c.bclearID:
		c.blockOpD[blockOpBclear]++
	case c.vhandID:
		c.blockOpD[blockOpVhand]++
	}
}
