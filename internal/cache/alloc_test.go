package cache

import (
	"math/rand"
	"testing"

	"repro/internal/arch"
)

// TestDMAccessNoAllocs guards the direct-mapped fast path: hits, fills and
// conflict evictions must never allocate.
func TestDMAccessNoAllocs(t *testing.T) {
	h := NewDataHierarchy("d", arch.Default())
	addrs := []arch.PAddr{
		0x0, 0x40, 0x1000,
		arch.DCacheL1Size, // L1 conflict with 0x0
		arch.DCacheL2Size, // L2 conflict with 0x0
		arch.DCacheL2Size + 0x40,
	}
	i := 0
	avg := testing.AllocsPerRun(500, func() {
		a := addrs[i%len(addrs)]
		h.Access(a, i%3 == 0)
		i++
	})
	if avg != 0 {
		t.Errorf("DM hierarchy access allocates %.1f times per op, want 0", avg)
	}

	c := New("i", arch.ICacheSize, 1)
	j := 0
	avg = testing.AllocsPerRun(500, func() {
		a := addrs[j%len(addrs)]
		if !c.ReadHit(a) {
			c.Access(a, false)
		}
		j++
	})
	if avg != 0 {
		t.Errorf("DM single-cache access allocates %.1f times per op, want 0", avg)
	}

	// Two blocks aliasing one line: after the first fill every access is a
	// miss that displaces a valid block, i.e. the whole of install.
	e := New("e", 64*arch.BlockSize, 1)
	k, evictions := 0, 0
	avg = testing.AllocsPerRun(500, func() {
		if _, _, ok := e.Access(arch.PAddr(k%2*64*arch.BlockSize), k%3 == 0); ok {
			evictions++
		}
		k++
	})
	if avg != 0 || evictions < 500 {
		t.Errorf("miss with eviction: %.1f allocs per op over %d evictions, want 0 over at least 500", avg, evictions)
	}
}

// TestGenericMatchesFastCache drives identical random access/invalidate
// streams through a fast direct-mapped cache and a generic-path twin and
// requires identical observable state at every step — the same identity
// the -reference oracle proves end-to-end, pinned here at the unit level.
func TestGenericMatchesFastCache(t *testing.T) {
	fast := New("fast", 64*arch.BlockSize, 1)
	ref := New("ref", 64*arch.BlockSize, 1)
	ref.SetGeneric(true)
	rng := rand.New(rand.NewSource(7))
	pool := make([]arch.PAddr, 0, 24)
	for i := 0; i < 24; i++ {
		// Collide heavily: 64 lines, addresses spread over 3 aliasing ways.
		pool = append(pool, arch.PAddr(rng.Intn(3*64))*arch.BlockSize)
	}
	for step := 0; step < 3000; step++ {
		a := pool[rng.Intn(len(pool))]
		switch rng.Intn(10) {
		case 0:
			r1, d1 := fast.Invalidate(a)
			r2, d2 := ref.Invalidate(a)
			if r1 != r2 || d1 != d2 {
				t.Fatalf("step %d: Invalidate(%#x) = (%v,%v) fast vs (%v,%v) generic", step, uint64(a), r1, d1, r2, d2)
			}
		default:
			write := rng.Intn(3) == 0
			h1, ev1, ok1 := fast.Access(a, write)
			h2, ev2, ok2 := ref.Access(a, write)
			if h1 != h2 || ok1 != ok2 || ev1 != ev2 {
				t.Fatalf("step %d: Access(%#x,%v) = (%v,%+v,%v) fast vs (%v,%+v,%v) generic",
					step, uint64(a), write, h1, ev1, ok1, h2, ev2, ok2)
			}
		}
		if h1, h2 := fast.StateHash(HashSeed()), ref.StateHash(HashSeed()); h1 != h2 {
			t.Fatalf("step %d: StateHash %#x fast vs %#x generic", step, h1, h2)
		}
		if fast.ResidentBlocks() != ref.ResidentBlocks() {
			t.Fatalf("step %d: ResidentBlocks %d fast vs %d generic", step, fast.ResidentBlocks(), ref.ResidentBlocks())
		}
		for _, a := range pool {
			if fast.Lookup(a) != ref.Lookup(a) || fast.Dirty(a) != ref.Dirty(a) {
				t.Fatalf("step %d: state of %#x diverges (resident %v/%v dirty %v/%v)",
					step, uint64(a), fast.Lookup(a), ref.Lookup(a), fast.Dirty(a), ref.Dirty(a))
			}
		}
	}
}

// TestStateFreeProbes is the hit filter's contract. The probes ReadHit,
// ReadHitL1 and WriteHit claim that the access they were asked about would
// hit and change nothing; callers then skip the access. Over a random stream
// of accesses, shared-bit changes, snoops and invalidations on a tiny
// hierarchy, every true probe is followed by the real Access, which must
// hit L1, report WasShared false and leave StateHash unchanged — and the
// probes must not be shy either: an Access that did all that was predicted.
// On the generic oracle path they must answer false.
func TestStateFreeProbes(t *testing.T) {
	m := arch.Default()
	m.DCacheL1Size, m.DCacheL2Size = 16*arch.BlockSize, 64*arch.BlockSize
	h := NewDataHierarchy("d", m)
	ic := New("i", 16*arch.BlockSize, 1)
	gen := NewDataHierarchy("g", m)
	gen.SetGeneric(true)
	if h.L1.lru != nil || ic.lru != nil || gen.L1.lru == nil || New("a", 16*arch.BlockSize, 2).lru == nil {
		t.Error("LRU stamps must exist exactly for set-associative and generic-path caches")
	}
	rng := rand.New(rand.NewSource(12))
	hash := func() uint64 { return ic.StateHash(h.StateHash(HashSeed())) }
	probed := [3]int{}
	for step := 0; step < 200_000; step++ {
		a := arch.PAddr(rng.Intn(3*64)) * arch.BlockSize // 3 blocks alias per L2 line
		switch op := rng.Intn(16); op {
		case 0:
			h.L2.SetShared(a, rng.Intn(2) == 0)
		case 1:
			h.L2.SnoopRead(a)
		case 2:
			h.Invalidate(a)
		case 3:
			ic.Invalidate(a)
		case 4, 5, 6:
			said, before := ic.ReadHit(a), hash()
			hit, _, _ := ic.Access(a, false)
			if unchanged := hit && hash() == before; said != unchanged {
				t.Fatalf("step %d: ReadHit(%#x) = %v, but Access hit=%v, state unchanged=%v", step, a, said, hit, hash() == before)
			}
			if said {
				probed[0]++
			}
		default:
			write := op&1 == 0
			said := h.ReadHitL1(a)
			if write {
				said = h.WriteHit(a)
			}
			before := hash()
			res := h.Access(a, write)
			gen.Access(a, write)
			unchanged := res.Result == DataL1Hit && !res.WasShared && hash() == before
			if said != unchanged {
				t.Fatalf("step %d: probe(%#x, write=%v) = %v, but Access = %+v, state unchanged=%v",
					step, a, write, said, res, hash() == before)
			}
			if said {
				probed[1+op&1]++
			}
			if gen.ReadHitL1(a) || gen.WriteHit(a) || gen.L1.ReadHit(a) {
				t.Fatalf("step %d: a probe answered true on the generic path", step)
			}
		}
	}
	for i, n := range probed {
		if n < 1000 {
			t.Errorf("probe %d answered true only %d times: the stream does not exercise it", i, n)
		}
	}
}
