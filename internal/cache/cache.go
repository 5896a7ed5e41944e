// Package cache implements the physically-addressed cache models of the
// simulated machine: single caches of arbitrary size and associativity with
// 16-byte blocks, and the two-level data-cache hierarchy of the 4D/340
// (64 KB first level, 256 KB second level, both direct-mapped).
//
// Caches here are functional models: they track which blocks are resident
// and report hits, misses and evictions. Timing, coherence traffic and miss
// classification are layered on top by the bus, sim and trace packages.
package cache

import (
	"fmt"

	"repro/internal/arch"
)

// Cache is a set-associative, physically-indexed, physically-tagged cache
// with arch.BlockSize-byte blocks. Associativity 1 models the direct-mapped
// caches of the measured machine; higher associativities are used by the
// Figure 6 re-simulations. Replacement is LRU within a set.
type Cache struct {
	size  int
	assoc int
	sets  int

	// line holds one packed word per cache line: the block address in the
	// high bits and lineShared/lineValid/lineDirty in the low bits a
	// 16-byte block never uses. Zero is an invalid line, so a hit probe
	// is one load and one compare.
	line []uint32
	// lru is the per-line last-touch stamp of the way-loop path; nil for
	// a direct-mapped cache until SetGeneric asks for that path.
	lru   []uint64
	clock uint64

	// dm selects the direct-mapped specialization: assoc==1 and the
	// generic way-loop/LRU path (the -reference oracle) not forced.
	// State layout is identical either way.
	dm bool

	// residents counts valid lines, so ResidentBlocks needs no line scan;
	// every fill and invalidate maintains it.
	residents int
}

// Line-word flag bits. The order makes StateHash's per-line word
// block<<3 | flags, the value it has always folded.
const (
	lineShared = 1 << iota // coherence Shared state (data L2 only)
	lineValid
	lineDirty
	lineFlags = arch.BlockSize - 1
)

// A block address must leave the three flag bits free.
const _ = uint(arch.BlockShift - 3)

// holds reports whether line word w is a valid copy of block b, in any
// dirty/shared state.
func holds(w uint32, b arch.PAddr) bool {
	return w&^(lineDirty|lineShared) == uint32(b)|lineValid
}

// lineBlock returns the block address held in a valid line word.
func lineBlock(w uint32) arch.PAddr { return arch.PAddr(w &^ lineFlags) }

// fillWord is the line word of a freshly filled block: valid, not
// Shared, dirty iff the fill was a write.
func fillWord(b arch.PAddr, write bool) uint32 {
	if write {
		return uint32(b) | lineValid | lineDirty
	}
	return uint32(b) | lineValid
}

// New returns a cache of the given total size in bytes and associativity.
// size must be a multiple of assoc*arch.BlockSize and the resulting number
// of sets must be a power of two (true for all configurations in the paper);
// name labels the panic that reports a geometry breaking those rules.
func New(name string, size, assoc int) *Cache {
	if size <= 0 || assoc <= 0 {
		panic(fmt.Sprintf("cache %s: invalid size %d or assoc %d", name, size, assoc))
	}
	lines := size / arch.BlockSize
	if lines%assoc != 0 {
		panic(fmt.Sprintf("cache %s: %d lines not divisible by assoc %d", name, lines, assoc))
	}
	sets := lines / assoc
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache %s: %d sets is not a power of two", name, sets))
	}
	c := &Cache{
		size:  size,
		assoc: assoc,
		sets:  sets,
		line:  make([]uint32, lines),
		dm:    assoc == 1,
	}
	if !c.dm {
		c.lru = make([]uint64, lines)
	}
	return c
}

// SetGeneric forces the generic set-associative access path even for
// direct-mapped caches (the -reference oracle). Call it before any traffic;
// both paths keep the same state layout, so results are identical either
// way — that identity is exactly what the oracle exists to prove.
func (c *Cache) SetGeneric(g bool) {
	c.dm = c.assoc == 1 && !g
	if g && c.lru == nil {
		c.lru = make([]uint64, len(c.line))
	}
}

// Size returns the total capacity in bytes.
func (c *Cache) Size() int { return c.size }

// Assoc returns the associativity.
func (c *Cache) Assoc() int { return c.assoc }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// SetOf returns the set index a physical address maps to.
func (c *Cache) SetOf(a arch.PAddr) int {
	return int(uint32(a)>>arch.BlockShift) & (c.sets - 1)
}

// Lookup reports whether the block containing a is resident, without
// changing any state.
func (c *Cache) Lookup(a arch.PAddr) bool {
	_, ok := c.find(a)
	return ok
}

func (c *Cache) find(a arch.PAddr) (idx int, ok bool) {
	b := a.Block()
	// Direct-mapped: the set IS the line, so the way loop runs once (a
	// pure strength reduction, safe on the -reference oracle path too).
	base := c.SetOf(a) * c.assoc
	for i := base; i < base+c.assoc; i++ {
		if holds(c.line[i], b) {
			return i, true
		}
	}
	return 0, false
}

// way returns the line word of the way holding block b, or zero when no
// way of its set does.
func (c *Cache) way(b arch.PAddr) uint32 {
	if i, ok := c.find(b); ok {
		return c.line[i]
	}
	return 0
}

// Eviction describes a block displaced by a fill.
type Eviction struct {
	Block arch.PAddr
	Dirty bool
}

// install puts word w in line i, which a miss chose as its victim, keeping
// the resident counter exact, and returns the word it displaced.
func (c *Cache) install(i int, w uint32) (old uint32) {
	old = c.line[i]
	if old == 0 {
		c.residents++
	}
	c.line[i] = w
	return old
}

// evictionOf describes the block a displaced line word held (ok=false for
// an empty line).
func evictionOf(old uint32) (evicted Eviction, ok bool) {
	return Eviction{Block: lineBlock(old), Dirty: old&lineDirty != 0}, old != 0
}

// ReadHit reports whether a load of the block containing a hits on the
// direct-mapped fast path, touching no state. A direct-mapped read hit has
// no side effects, so callers may skip Access entirely when it returns
// true. It always returns false when the generic oracle path is in force
// (or assoc > 1): callers then fall through to the full Access path.
// Small by design so it inlines into the bus and sim hot paths.
func (c *Cache) ReadHit(a arch.PAddr) bool {
	return c.dm && holds(c.line[c.SetOf(a)], a.Block())
}

// Access touches the block containing a. write marks the block dirty.
// It returns hit=true on a hit. On a miss the block is filled and, if a
// valid block was displaced, evicted describes it (ok=false when the set had
// an empty way).
func (c *Cache) Access(a arch.PAddr, write bool) (hit bool, evicted Eviction, ok bool) {
	if c.dm {
		// Direct-mapped fast path: one index computation, no clock tick
		// and no LRU stamp (neither is observable with a single way).
		b := a.Block()
		i := c.SetOf(a)
		if w := c.line[i]; holds(w, b) {
			if write {
				c.line[i] = w | lineDirty
			}
			return true, Eviction{}, false
		}
		evicted, ok = evictionOf(c.install(i, fillWord(b, write)))
		return false, evicted, ok
	}
	c.clock++
	if i, found := c.find(a); found {
		c.lru[i] = c.clock
		if write {
			c.line[i] |= lineDirty
		}
		return true, Eviction{}, false
	}
	// Miss: prefer an invalid way, else the least recently used.
	base := c.SetOf(a) * c.assoc
	victim := base
	for i := base; i < base+c.assoc; i++ {
		if c.line[i] == 0 {
			victim = i
			break
		}
		if c.lru[i] < c.lru[victim] {
			victim = i
		}
	}
	c.lru[victim] = c.clock
	evicted, ok = evictionOf(c.install(victim, fillWord(a.Block(), write)))
	return false, evicted, ok
}

// Peek returns the resident block in the (only) way of the set that a maps
// to for direct-mapped caches; for set-associative caches it returns the
// most-recently-used resident block in the set. ok is false if the relevant
// way is empty. It is used by tests and by the mirror-cache reconstruction.
func (c *Cache) Peek(a arch.PAddr) (block arch.PAddr, ok bool) {
	base := c.SetOf(a) * c.assoc
	if c.assoc == 1 {
		return lineBlock(c.line[base]), c.line[base] != 0
	}
	var best uint64
	for i := base; i < base+c.assoc; i++ {
		if c.line[i] != 0 && c.lru[i] >= best {
			best = c.lru[i]
			block = lineBlock(c.line[i])
			ok = true
		}
	}
	return block, ok
}

// Invalidate removes the block containing a if resident, returning whether
// it was resident and whether it was dirty.
func (c *Cache) Invalidate(a arch.PAddr) (wasResident, wasDirty bool) {
	if i, found := c.find(a); found {
		wasDirty = c.line[i]&lineDirty != 0
		c.line[i] = 0
		c.residents--
		return true, wasDirty
	}
	return false, false
}

// InvalidateAll empties the cache.
func (c *Cache) InvalidateAll() {
	clear(c.line)
	c.residents = 0
}

// NumLines returns the total number of lines, valid or not.
func (c *Cache) NumLines() int { return len(c.line) }

// LineAt returns the block resident in line i (ok=false for an invalid
// line or out-of-range index). The fault injector uses it to pick random
// eviction victims.
func (c *Cache) LineAt(i int) (block arch.PAddr, ok bool) {
	if i < 0 || i >= len(c.line) || c.line[i] == 0 {
		return 0, false
	}
	return lineBlock(c.line[i]), true
}

// ResidentBlocks returns the number of valid lines (used by tests and the
// monitor's perturbation accounting). It reads the maintained counter —
// O(1), not a line scan.
func (c *Cache) ResidentBlocks() int { return c.residents }

// fnv64 constants for the StateHash fingerprints.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// HashMix folds one 64-bit word into a running FNV-1a hash, byte by
// byte. Exported so sibling state holders (the TLB) can join the same
// fingerprint chain.
func HashMix(h, v uint64) uint64 { return fnvMix(h, v) }

// fnvMix folds one 64-bit word into a running FNV-1a hash, byte by byte.
func fnvMix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

// StateHash folds the cache's architectural contents — per-line validity,
// block, dirty bit and shared bit — into a running FNV-1a fingerprint. LRU
// stamps are excluded: they are an implementation detail of the
// replacement policy, and two runs that took the same trajectory have
// identical stamps anyway. The sampled-simulation tests use the
// fingerprint to prove that a sampled run ends in exactly the cache state
// of a full-detail run.
func (c *Cache) StateHash(h uint64) uint64 {
	for _, w := range c.line {
		h = fnvMix(h, uint64(w&^lineFlags)<<3|uint64(w&lineFlags))
	}
	return h
}

// HashSeed returns the canonical FNV-1a starting value for a StateHash
// chain.
func HashSeed() uint64 { return fnvOffset }
