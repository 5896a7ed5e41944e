package cache

import (
	"testing"

	"repro/internal/arch"
)

// cacheState is a deep copy of every piece of Cache state the journal is
// responsible for restoring.
type cacheState struct {
	line      []uint32
	residents int
}

func captureState(c *Cache) cacheState {
	return cacheState{
		line:      append([]uint32(nil), c.line...),
		residents: c.residents,
	}
}

func checkState(t *testing.T, c *Cache, want cacheState) {
	t.Helper()
	for i, w := range want.line {
		// The packed word is the line's whole state: block, valid, dirty
		// and shared restore together or not at all.
		if c.line[i] != w {
			t.Errorf("%s line %d: word %#x, want %#x", c.name, i, c.line[i], w)
		}
	}
	if c.residents != want.residents {
		t.Errorf("%s residents %d, want %d", c.name, c.residents, want.residents)
	}
}

func blockAddr(i int) arch.PAddr { return arch.PAddr(i << arch.BlockShift) }

// TestJournalRestoresICache drives a journaled access sequence over a
// direct-mapped I-cache — fills, conflict evictions, repeated saves of
// the same line — and verifies TruncateTo restores the exact pre-state,
// including the resident counter.
func TestJournalRestoresICache(t *testing.T) {
	c := New("i", 256, 1) // 16 sets
	// Pre-state: a handful of resident lines, one of them about to be
	// displaced by a conflicting fill.
	for _, i := range []int{1, 3, 5, 7} {
		c.Access(blockAddr(i), false)
	}
	want := captureState(c)

	j := &Journal{}
	// Conflict with line 3 (16 sets apart), miss on an empty set, a hit,
	// and two saves of one line (truncation must restore the oldest).
	seq := []int{3 + 16, 2, 5, 3 + 32, 3}
	for _, i := range seq {
		a := blockAddr(i)
		j.SaveI(c, a)
		c.Access(a, false)
	}
	if j.Len() != len(seq) {
		t.Fatalf("journal holds %d saves, want %d", j.Len(), len(seq))
	}
	j.TruncateTo(0)
	checkState(t, c, want)
	if j.Len() != 0 {
		t.Errorf("journal holds %d saves after full truncation", j.Len())
	}
}

// TestJournalPartialTruncate keeps a committed prefix: only the saves
// past the checkpoint roll back.
func TestJournalPartialTruncate(t *testing.T) {
	c := New("i", 256, 1)
	c.Access(blockAddr(4), false)

	j := &Journal{}
	j.SaveI(c, blockAddr(9))
	c.Access(blockAddr(9), false)
	mark := j.Len()
	committed := captureState(c)

	j.SaveI(c, blockAddr(9+16)) // displaces 9
	c.Access(blockAddr(9+16), false)
	j.SaveI(c, blockAddr(4))
	c.Access(blockAddr(4), true)

	j.TruncateTo(mark)
	checkState(t, c, committed)
	if j.Len() != mark {
		t.Errorf("journal holds %d saves, want %d", j.Len(), mark)
	}
}

// TestJournalRestoresDataHierarchy exercises SaveData's victim logic: an
// L2 fill that displaces a victim must also journal the L1 line the
// inclusion invalidation clears, and TruncateTo must restore dirty and
// shared bits across both levels.
func TestJournalRestoresDataHierarchy(t *testing.T) {
	h := NewDataHierarchy("d", arch.Default())
	l2Sets := h.L2.Sets()
	a := blockAddr(6)
	conflict := blockAddr(6 + l2Sets) // same L2 set, different tag

	h.Access(a, true) // resident and dirty in both levels
	h.L2.SetShared(a, true)
	wantL1, wantL2 := captureState(h.L1), captureState(h.L2)

	j := &Journal{}
	j.SaveData(h, conflict)
	h.Access(conflict, false) // displaces a from L2, inclusion clears L1

	if h.L2.Lookup(a) {
		t.Fatal("conflict fill did not displace the victim — test geometry is wrong")
	}
	j.TruncateTo(0)
	checkState(t, h.L1, wantL1)
	checkState(t, h.L2, wantL2)
	if !h.L2.Shared(a) {
		t.Error("restored victim lost its shared bit")
	}
	if !h.L2.Dirty(a) {
		t.Error("restored victim lost its dirty bit")
	}
}

// TestJournalDepCallback: the dependence-set hook must see the block
// address of every valid line a speculation's accesses observe or
// displace — and nothing for invalid lines.
func TestJournalDepCallback(t *testing.T) {
	c := New("i", 256, 1)
	var dep []arch.PAddr
	j := &Journal{Dep: func(a arch.PAddr) { dep = append(dep, a) }}

	a := blockAddr(2)
	j.SaveI(c, a) // line invalid: no dependence
	c.Access(a, false)
	if len(dep) != 0 {
		t.Fatalf("invalid line reported a dependence: %v", dep)
	}

	j.SaveI(c, a) // hit on the just-filled line
	c.Access(a, false)
	victim := blockAddr(2 + 16)
	j.SaveI(c, victim) // conflict: the save sees a, the resident victim
	c.Access(victim, false)

	want := []arch.PAddr{a.Block(), a.Block()}
	if len(dep) != len(want) {
		t.Fatalf("dependence set %v, want %v", dep, want)
	}
	for i := range want {
		if dep[i] != want[i] {
			t.Fatalf("dependence set %v, want %v", dep, want)
		}
	}
}
