package cache

import "repro/internal/arch"

// Journal is an undo log for speculative cache accesses. The parallel
// simulation engine lets a CPU run ahead through its private caches and
// may later discard a suffix of that run; the journal records each line's
// pre-access state so TruncateTo can restore the caches exactly,
// including the resident counters.
//
// It supports only the direct-mapped fast path (the only configuration
// the parallel engine accepts): every save computes the single line an
// address can occupy. LRU stamps and the access clock are unobservable
// with one way, so they need no journaling.
type Journal struct {
	saves []lineSave
	// Dep, when set, receives the block address of every valid line the
	// journal saves — the lines whose state the speculation observes or
	// displaces. The parallel engine uses it to build the segment's
	// dependence set: a committed remote operation on one of these
	// blocks must truncate the speculation, anything else can't affect
	// it.
	Dep func(arch.PAddr)
}

type lineSave struct {
	c    *Cache
	idx  int32
	word uint32 // the whole pre-access line word
}

// Len returns the number of saves, for checkpointing.
func (j *Journal) Len() int { return len(j.saves) }

// Reset drops all saves without restoring (the speculation committed or
// the whole run was abandoned).
func (j *Journal) Reset() { j.saves = j.saves[:0] }

func (j *Journal) save(c *Cache, idx int) {
	w := c.line[idx]
	j.saves = append(j.saves, lineSave{c: c, idx: int32(idx), word: w})
	if w != 0 && j.Dep != nil {
		j.Dep(lineBlock(w))
	}
}

// SaveI records the pre-state of the one instruction-cache line a fetch
// of a can modify.
func (j *Journal) SaveI(c *Cache, a arch.PAddr) {
	j.save(c, c.SetOf(a))
}

// SaveData records the pre-state of every line a data access of a can
// modify: the L1 and L2 lines a maps to and, when the L2 fill would
// displace a victim, the L1 line that victim occupies (inclusion
// invalidates it).
func (j *Journal) SaveData(h *DataHierarchy, a arch.PAddr) {
	l1, l2 := h.L1, h.L2
	i1 := l1.SetOf(a)
	i2 := l2.SetOf(a)
	j.save(l1, i1)
	j.save(l2, i2)
	if w := l2.line[i2]; w != 0 && !holds(w, a.Block()) {
		// The fill will evict this block; inclusion removes it from L1.
		if vi := l1.SetOf(lineBlock(w)); vi != i1 {
			j.save(l1, vi)
		}
	}
}

// TruncateTo restores every line saved after checkpoint n (in reverse
// order, so repeated saves of one line end at the oldest state) and
// drops those saves.
func (j *Journal) TruncateTo(n int) {
	for i := len(j.saves) - 1; i >= n; i-- {
		s := &j.saves[i]
		c := s.c
		if w := c.line[s.idx]; w != 0 {
			c.residents--
		}
		if s.word != 0 {
			c.residents++
		}
		c.line[s.idx] = s.word
	}
	j.saves = j.saves[:n]
}
