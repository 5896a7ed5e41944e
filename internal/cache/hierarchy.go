package cache

import "repro/internal/arch"

// DataHierarchy models the two-level data cache of one CPU: a 64 KB
// first-level and a 256 KB second-level cache, both direct-mapped with
// 16-byte blocks, maintaining inclusion (every L1 block is also in L2).
//
// Only L2 misses reach the bus and are therefore visible to the hardware
// monitor; an L1 miss that hits in L2 stalls the CPU for about 15 cycles
// without a bus transaction — the blind spot Section 3.1 discusses.
type DataHierarchy struct {
	L1 *Cache
	L2 *Cache

	// dm is true when both levels are direct-mapped and the generic
	// oracle path is not forced: Access may then use the combined
	// single-index fast path below.
	dm bool
}

// NewDataHierarchy builds the data hierarchy of machine m (the 4D/340's
// 64 KB + 256 KB direct-mapped pair on the default machine). The combined
// direct-mapped fast path engages whenever both levels have a single way.
func NewDataHierarchy(name string, m arch.Machine) *DataHierarchy {
	h := &DataHierarchy{
		L1: New(name+".L1", m.DCacheL1Size, m.DCacheL1Assoc),
		L2: New(name+".L2", m.DCacheL2Size, m.DCacheL2Assoc),
	}
	h.dm = h.L1.dm && h.L2.dm
	return h
}

// SetGeneric forces both levels onto the generic access path and disables
// the combined fast path (the -reference oracle). Call before any traffic.
func (h *DataHierarchy) SetGeneric(g bool) {
	h.L1.SetGeneric(g)
	h.L2.SetGeneric(g)
	h.dm = h.L1.dm && h.L2.dm
}

// DataResult reports where a data reference was satisfied.
type DataResult uint8

const (
	// DataL1Hit means the reference hit in the first-level cache.
	DataL1Hit DataResult = iota
	// DataL2Hit means it missed L1 but hit L2 (≈15-cycle stall, no bus).
	DataL2Hit
	// DataMiss means it missed both levels (bus transaction, ≈35 cycles).
	DataMiss
)

// String returns a short name for the result.
func (r DataResult) String() string {
	switch r {
	case DataL1Hit:
		return "l1hit"
	case DataL2Hit:
		return "l2hit"
	default:
		return "miss"
	}
}

// DataAccess is the outcome of one data reference through the hierarchy.
type DataAccess struct {
	Result DataResult
	// L2Evicted is set when an L2 fill displaced a valid block; the
	// displaced block is also removed from L1 to preserve inclusion.
	L2Evicted Eviction
	L2HadEv   bool
	// WriteBack is true when the displaced L2 block was dirty and must
	// be written back on the bus.
	WriteBack bool
	// WasShared reports, for a write, whether the L2 copy was in the
	// coherence Shared state immediately before the access (false on a
	// miss — a non-resident line is never Shared). The bus uses it for
	// the upgrade/update decision without a second L2 lookup.
	WasShared bool
}

// ReadHitL1 reports whether a data load hits the first-level cache on the
// direct-mapped fast path, touching no state (a direct-mapped read hit has
// no side effects). It always returns false when the generic oracle path
// is in force: callers then fall through to the full Access path. Small by
// design so it inlines into the bus and sim hot paths.
func (h *DataHierarchy) ReadHitL1(a arch.PAddr) bool {
	return h.dm && holds(h.L1.line[h.L1.SetOf(a)], a.Block())
}

// WriteHit is ReadHitL1's counterpart for stores: it reports whether a
// store to the block containing a hits L1 with both levels already holding
// the block Modified (valid, dirty, not Shared). Such a store changes no
// line and needs no upgrade, so callers may skip Access when it returns
// true. False on the generic oracle path, like ReadHitL1.
func (h *DataHierarchy) WriteHit(a arch.PAddr) bool {
	m := uint32(a.Block()) | lineValid | lineDirty
	return h.dm && h.L1.line[h.L1.SetOf(a)] == m && h.L2.line[h.L2.SetOf(a)] == m
}

// Access performs a data load or store at physical address a, reporting the
// level of the hit and carrying L2 eviction/write-back information so the
// bus can emit write-back transactions.
//
// The body is the direct-mapped specialization: the block and both set
// indices are computed once and each level costs one line-word load. It is
// state-for-state identical to the generic path (LRU stamps and the access
// clock are unobservable with a single way).
func (h *DataHierarchy) Access(a arch.PAddr, write bool) DataAccess {
	if !h.dm {
		return h.accessGeneric(a, write)
	}
	b := a.Block()
	l1, l2 := h.L1, h.L2
	i1, i2 := l1.SetOf(a), l2.SetOf(a)
	if w1 := l1.line[i1]; holds(w1, b) {
		if write {
			l1.line[i1] = w1 | lineDirty
			// Keep the L2 copy's dirtiness in sync so write-backs are
			// not lost when the L1 copy is silently displaced later.
			if w2 := l2.line[i2]; holds(w2, b) {
				l2.line[i2] = w2 | lineDirty
				return DataAccess{Result: DataL1Hit, WasShared: w2&lineShared != 0}
			}
		}
		return DataAccess{Result: DataL1Hit}
	}
	// L1 miss: install the block (the displaced copy needs no write-back;
	// L2 carries the dirtiness).
	l1.install(i1, fillWord(b, write))
	// Probe L2.
	if w2 := l2.line[i2]; holds(w2, b) {
		if write {
			l2.line[i2] = w2 | lineDirty
			return DataAccess{Result: DataL2Hit, WasShared: w2&lineShared != 0}
		}
		return DataAccess{Result: DataL2Hit}
	}
	res := DataAccess{Result: DataMiss}
	res.L2Evicted, res.L2HadEv = evictionOf(l2.install(i2, fillWord(b, write)))
	if res.L2HadEv {
		res.WriteBack = res.L2Evicted.Dirty
		// Inclusion: the block displaced from L2 must leave L1.
		l1.Invalidate(res.L2Evicted.Block)
	}
	return res
}

// accessGeneric is Access through the two caches' own Access methods, for
// set-associative levels and the -reference oracle.
func (h *DataHierarchy) accessGeneric(a arch.PAddr, write bool) DataAccess {
	// Observe the coherence Shared state before the access can change the
	// line (write hits never touch the shared bit, so this equals the
	// pre-access state on every hit path; misses report false).
	wasShared := false
	if write {
		wasShared = h.L2.Shared(a)
	}
	if hit, _, _ := h.L1.Access(a, write); hit {
		// Keep the L2 copy's dirtiness in sync so write-backs are not
		// lost when the L1 copy is silently displaced later.
		if write {
			h.l2MarkDirty(a)
		}
		return DataAccess{Result: DataL1Hit, WasShared: wasShared}
	}
	// L1 missed and was filled by the probe above. Probe L2.
	hit, ev2, had2 := h.L2.Access(a, write)
	if hit {
		return DataAccess{Result: DataL2Hit, WasShared: wasShared}
	}
	res := DataAccess{Result: DataMiss}
	if had2 {
		res.L2Evicted = ev2
		res.L2HadEv = true
		res.WriteBack = ev2.Dirty
		// Inclusion: the block displaced from L2 must leave L1.
		h.L1.Invalidate(ev2.Block)
	}
	return res
}

// l2MarkDirty marks the L2 copy of a dirty if resident.
func (h *DataHierarchy) l2MarkDirty(a arch.PAddr) {
	if h.L2.Lookup(a) {
		h.L2.Access(a, true) // write hit: marks dirty, keeps residency
	}
}

// Invalidate removes the block containing a from both levels (snooping
// coherence on a remote write). It reports whether the L2 copy was resident
// and whether it was dirty (requiring a flush in a real machine).
func (h *DataHierarchy) Invalidate(a arch.PAddr) (wasResident, wasDirty bool) {
	h.L1.Invalidate(a)
	return h.L2.Invalidate(a)
}

// Resident reports whether the block is resident at the L2 (coherence)
// level.
func (h *DataHierarchy) Resident(a arch.PAddr) bool { return h.L2.Lookup(a) }

// LineState is one hierarchy's state of one block, packed: the coherence
// (L2) level's valid, dirty and shared bits as the line word holds them,
// plus first-level residency. Zero means the block is in neither level.
type LineState uint8

const (
	StateShared LineState = lineShared
	StateL2     LineState = lineValid
	StateDirty  LineState = lineDirty
	StateL1     LineState = 1 << 3
)

// LineState reads the state of the block containing a without changing
// anything, LRU stamps included. Each level's line word is taken once — a
// direct index when both levels have one way, the way loop otherwise,
// whichever access path SetGeneric selected — so the bits are one
// consistent observation of the line.
func (h *DataHierarchy) LineState(a arch.PAddr) LineState {
	b := a.Block()
	l1, l2 := h.L1, h.L2
	var w1, w2 uint32
	if l1.assoc == 1 && l2.assoc == 1 {
		w1, w2 = l1.line[l1.SetOf(b)], l2.line[l2.SetOf(b)]
	} else {
		w1, w2 = l1.way(b), l2.way(b)
	}
	var st LineState
	if holds(w2, b) {
		st = LineState(w2 & lineFlags)
	}
	if holds(w1, b) {
		st |= StateL1
	}
	return st
}

// InvalidateAll empties both levels.
func (h *DataHierarchy) InvalidateAll() {
	h.L1.InvalidateAll()
	h.L2.InvalidateAll()
}

// StateHash folds both levels' contents into a running fingerprint (see
// Cache.StateHash).
func (h *DataHierarchy) StateHash(v uint64) uint64 {
	return h.L2.StateHash(h.L1.StateHash(v))
}
