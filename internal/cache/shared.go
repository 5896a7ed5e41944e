package cache

// Coherence-state helpers. The bus package implements a MESI-like
// invalidation protocol on top of the valid, dirty and shared bits of the
// packed line word:
//
//	Invalid    = !valid
//	Shared     = valid && shared
//	Exclusive  = valid && !shared && !dirty
//	Modified   = valid && !shared && dirty
//
// The shared bit only matters at the coherence level (the second-level data
// cache); instruction caches never use it.

import "repro/internal/arch"

// SetShared sets the coherence shared bit of the resident block containing
// a. It is a no-op if the block is not resident.
func (c *Cache) SetShared(a arch.PAddr, shared bool) {
	if i, ok := c.find(a); ok {
		if shared {
			c.line[i] |= lineShared
		} else {
			c.line[i] &^= lineShared
		}
	}
}

// Shared reports the coherence shared bit of the block containing a
// (false if not resident).
func (c *Cache) Shared(a arch.PAddr) bool {
	i, ok := c.find(a)
	return ok && c.line[i]&lineShared != 0
}

// SnoopRead services a remote read snoop at the coherence level in one
// lookup: if the block is resident, the copy reverts to clean Shared (a
// dirty copy supplies the data and memory is updated) and SnoopRead reports
// true. It is exactly the Resident→Clean-if-Dirty→SetShared(true) sequence
// of the bus's snoop loop, without the three separate finds.
func (c *Cache) SnoopRead(a arch.PAddr) bool {
	i, ok := c.find(a)
	if ok {
		c.line[i] = c.line[i]&^lineDirty | lineShared
	}
	return ok
}

// Dirty reports whether the block containing a is resident and dirty.
func (c *Cache) Dirty(a arch.PAddr) bool {
	i, ok := c.find(a)
	return ok && c.line[i]&lineDirty != 0
}

// Clean clears the dirty bit of the block containing a (after a snoop
// supplies the data to another CPU and memory is updated).
func (c *Cache) Clean(a arch.PAddr) {
	if i, ok := c.find(a); ok {
		c.line[i] &^= lineDirty
	}
}
