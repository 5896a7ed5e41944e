package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/arch"
)

func TestDirectMappedBasics(t *testing.T) {
	c := New("i", 64, 1) // 4 sets of 16 B
	if c.Sets() != 4 {
		t.Fatalf("Sets() = %d, want 4", c.Sets())
	}
	// Cold miss.
	hit, _, hadEv := c.Access(0x100, false)
	if hit || hadEv {
		t.Errorf("first access: hit=%v hadEv=%v, want miss without eviction", hit, hadEv)
	}
	// Re-access hits.
	if hit, _, _ := c.Access(0x10F, false); !hit {
		t.Error("same-block access should hit")
	}
	// Conflicting block (same set: addresses 64 bytes apart with 4 sets).
	hit, ev, hadEv := c.Access(0x100+64, false)
	if hit {
		t.Error("conflicting access should miss")
	}
	if !hadEv || ev.Block != 0x100 {
		t.Errorf("eviction = %+v (had=%v), want block 0x100", ev, hadEv)
	}
	// Original is gone.
	if c.Lookup(0x100) {
		t.Error("0x100 should have been displaced")
	}
}

func TestDirtyEviction(t *testing.T) {
	c := New("d", 64, 1)
	c.Access(0x200, true) // write miss, fills dirty
	_, ev, hadEv := c.Access(0x200+64, false)
	if !hadEv || !ev.Dirty {
		t.Errorf("displacing a written block: ev=%+v had=%v, want dirty eviction", ev, hadEv)
	}
	// Clean block eviction is not dirty.
	c2 := New("d2", 64, 1)
	c2.Access(0x200, false)
	_, ev2, _ := c2.Access(0x200+64, false)
	if ev2.Dirty {
		t.Error("clean block evicted as dirty")
	}
}

func TestSetAssociativeLRU(t *testing.T) {
	c := New("a", 2*64, 2) // 4 sets, 2-way
	// Three blocks mapping to the same set (stride = sets*blocksize = 64).
	a0, a1, a2 := arch.PAddr(0x000), arch.PAddr(0x040), arch.PAddr(0x080)
	c.Access(a0, false)
	c.Access(a1, false)
	c.Access(a0, false) // a0 now MRU; a1 is LRU
	_, ev, hadEv := c.Access(a2, false)
	if !hadEv || ev.Block != a1 {
		t.Errorf("LRU eviction = %+v (had=%v), want a1=%#x", ev, hadEv, a1)
	}
	if !c.Lookup(a0) || !c.Lookup(a2) || c.Lookup(a1) {
		t.Error("residency after LRU eviction wrong")
	}
}

func TestInvalidate(t *testing.T) {
	c := New("i", 128, 1)
	c.Access(0x300, true)
	was, dirty := c.Invalidate(0x300)
	if !was || !dirty {
		t.Errorf("Invalidate = (%v,%v), want resident dirty", was, dirty)
	}
	if was, _ := c.Invalidate(0x300); was {
		t.Error("double invalidate reported resident")
	}
	if c.Lookup(0x300) {
		t.Error("block resident after invalidate")
	}
}

func TestResidentBlocksAndInvalidateAll(t *testing.T) {
	c := New("x", 256, 1)
	for i := 0; i < 5; i++ {
		c.Access(arch.PAddr(i*arch.BlockSize), false)
	}
	if n := c.ResidentBlocks(); n != 5 {
		t.Errorf("ResidentBlocks = %d, want 5", n)
	}
	c.InvalidateAll()
	if n := c.ResidentBlocks(); n != 0 {
		t.Errorf("ResidentBlocks after InvalidateAll = %d, want 0", n)
	}
}

// Property: in a direct-mapped cache, the resident block in a set is always
// the block of the last access mapping to that set. This is the invariant
// the trace package's mirror-cache reconstruction relies on.
func TestDirectMappedMirrorInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New("m", 1024, 1)
		last := make(map[int]arch.PAddr)
		for i := 0; i < 500; i++ {
			a := arch.PAddr(rng.Intn(1 << 14))
			c.Access(a, rng.Intn(2) == 0)
			last[c.SetOf(a)] = a.Block()
		}
		for set, want := range last {
			got, ok := c.Peek(arch.PAddr(set << arch.BlockShift))
			if !ok || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: number of resident blocks never exceeds capacity, and every
// resident block is found by Lookup at its own address.
func TestCapacityProperty(t *testing.T) {
	f := func(seed int64, assocSel uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		assoc := 1 << (assocSel % 3) // 1, 2, 4
		c := New("p", 512*assoc, assoc)
		for i := 0; i < 300; i++ {
			a := arch.PAddr(rng.Intn(1 << 13))
			c.Access(a, false)
			if !c.Lookup(a) {
				return false
			}
		}
		return c.ResidentBlocks() <= c.Size()/arch.BlockSize
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestNewPanicsOnBadGeometry(t *testing.T) {
	cases := []struct {
		size, assoc int
	}{
		{0, 1}, {64, 0}, {48, 1} /* 3 sets */, {64, 3},
	}
	for _, tc := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(size=%d, assoc=%d) did not panic", tc.size, tc.assoc)
				}
			}()
			New("bad", tc.size, tc.assoc)
		}()
	}
}

func TestHierarchyLevels(t *testing.T) {
	h := NewDataHierarchy("cpu0", arch.Default())
	a := arch.PAddr(0x1000)
	if r := h.Access(a, false); r.Result != DataMiss {
		t.Errorf("first access = %v, want miss", r.Result)
	}
	if r := h.Access(a, false); r.Result != DataL1Hit {
		t.Errorf("second access = %v, want l1hit", r.Result)
	}
	// Displace from L1 (64 KB direct-mapped → stride 64 KB conflicts)
	// but not from L2 (256 KB → different set behaviour).
	conflict := a + arch.PAddr(arch.DCacheL1Size)
	if r := h.Access(conflict, false); r.Result != DataMiss {
		t.Errorf("conflict fill = %v, want miss", r.Result)
	}
	// a is out of L1 now but still in L2.
	if r := h.Access(a, false); r.Result != DataL2Hit {
		t.Errorf("refetch = %v, want l2hit", r.Result)
	}
}

func TestHierarchyInclusionOnL2Eviction(t *testing.T) {
	h := NewDataHierarchy("cpu0", arch.Default())
	a := arch.PAddr(0x2000)
	h.Access(a, false)
	// Evict a from L2: same L2 set → stride 256 KB.
	b := a + arch.PAddr(arch.DCacheL2Size)
	r := h.Access(b, false)
	if r.Result != DataMiss || !r.L2HadEv || r.L2Evicted.Block != a.Block() {
		t.Fatalf("expected L2 eviction of %#x, got %+v", a, r)
	}
	// Inclusion: a must be gone from L1 too, so the next access is a
	// full miss, not an L1 hit on a stale line.
	if res := h.Access(a, false); res.Result != DataMiss {
		t.Errorf("after inclusion eviction, access = %v, want miss", res.Result)
	}
}

func TestHierarchyWriteBackPropagation(t *testing.T) {
	h := NewDataHierarchy("cpu0", arch.Default())
	a := arch.PAddr(0x3000)
	h.Access(a, false) // clean fill
	h.Access(a, true)  // L1 write hit — must mark L2 dirty too
	b := a + arch.PAddr(arch.DCacheL2Size)
	r := h.Access(b, false)
	if !r.L2HadEv || !r.WriteBack {
		t.Errorf("L2 eviction of written block: %+v, want WriteBack=true", r)
	}
}

func TestHierarchyInvalidate(t *testing.T) {
	h := NewDataHierarchy("cpu0", arch.Default())
	a := arch.PAddr(0x4000)
	h.Access(a, true)
	was, dirty := h.Invalidate(a)
	if !was || !dirty {
		t.Errorf("Invalidate = (%v,%v), want resident dirty", was, dirty)
	}
	if h.Resident(a) {
		t.Error("block resident after coherence invalidation")
	}
	if r := h.Access(a, false); r.Result != DataMiss {
		t.Errorf("post-invalidation access = %v, want miss", r.Result)
	}
}

// Property: the two-level hierarchy agrees with a flat reference model on
// bus visibility — a reference misses the bus iff it is absent from the
// L2-sized reference cache (inclusion makes L1 irrelevant to bus traffic).
func TestHierarchyBusVisibilityMatchesFlatL2(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := NewDataHierarchy("h", arch.Default())
		ref := New("ref", arch.DCacheL2Size, 1)
		for i := 0; i < 3000; i++ {
			a := arch.PAddr(rng.Intn(1 << 22))
			w := rng.Intn(3) == 0
			got := h.Access(a, w)
			refHit, _, _ := ref.Access(a, w)
			if (got.Result == DataMiss) == refHit {
				return false // bus visibility disagrees
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestDataResultString(t *testing.T) {
	if DataL1Hit.String() != "l1hit" || DataL2Hit.String() != "l2hit" || DataMiss.String() != "miss" {
		t.Error("DataResult strings wrong")
	}
}

func TestPeekOnAssociativeCache(t *testing.T) {
	c := New("a", 2*64, 2)
	if _, ok := c.Peek(0); ok {
		t.Error("empty set peeked a block")
	}
	c.Access(0x000, false)
	c.Access(0x040, false) // same set, second way
	got, ok := c.Peek(0x000)
	if !ok || got != 0x040 {
		t.Errorf("Peek = %#x,%v want MRU 0x40", got, ok)
	}
}

func TestSharedBitLifecycle(t *testing.T) {
	c := New("s", 128, 1)
	// SetShared on a non-resident block is a no-op; Shared is false.
	c.SetShared(0x100, true)
	if c.Shared(0x100) {
		t.Error("shared bit set on absent block")
	}
	c.Access(0x100, false)
	c.SetShared(0x100, true)
	if !c.Shared(0x100) {
		t.Error("shared bit lost")
	}
	// A fill into the same set clears the new line's shared bit.
	c.Access(0x100+128, false)
	if c.Shared(0x100 + 128) {
		t.Error("fresh fill born shared")
	}
	// Dirty/Clean lifecycle.
	c.Access(0x200, true)
	if !c.Dirty(0x200) {
		t.Error("written block not dirty")
	}
	c.Clean(0x200)
	if c.Dirty(0x200) {
		t.Error("Clean did not clear dirty")
	}
	if c.Dirty(0xF00) {
		t.Error("absent block dirty")
	}
}

// TestQuickMirrorDeterminism is the property the whole trace pipeline
// rests on (Section 2.2): a direct-mapped cache's contents are fully
// determined by its miss stream — each set holds exactly the block last
// MISSED on, so a mirror replaying only the misses matches the cache.
func TestQuickMirrorDeterminism(t *testing.T) {
	f := func(refs []uint16) bool {
		c := New("dm", 64*16, 1) // 64 sets of 16B blocks
		mirror := map[int]arch.PAddr{}
		for _, r := range refs {
			a := arch.PAddr(r) * arch.BlockSize
			hit, _, _ := c.Access(a, false)
			if !hit {
				mirror[c.SetOf(a)] = a.Block()
			}
		}
		for set, want := range mirror {
			got, ok := c.Peek(arch.PAddr(set) * arch.BlockSize)
			_ = got
			if !ok {
				return false
			}
			if !c.Lookup(want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickInvalidateRemoves: after invalidating any block, it is no
// longer resident, and re-access misses exactly once.
func TestQuickInvalidateRemoves(t *testing.T) {
	f := func(blocks []uint16) bool {
		c := New("x", 32*16, 2)
		for _, b := range blocks {
			a := arch.PAddr(b) * arch.BlockSize
			c.Access(a, true)
			c.Invalidate(a)
			if c.Lookup(a) {
				return false
			}
			if hit, _, _ := c.Access(a, false); hit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
