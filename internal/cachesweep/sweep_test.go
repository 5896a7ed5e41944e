package cachesweep

import (
	"reflect"
	"testing"

	"repro/internal/trace"
)

func ev(block uint32, cpu int, os bool) trace.IResimEvent {
	return trace.IResimEvent{Block: block, CPU: uint8(cpu), OS: os}
}

func TestBaselineIsRelativeOne(t *testing.T) {
	// A stream that misses everywhere in a 64 KB DM cache: conflicting
	// blocks 4096 apart (same set for 4096-set cache).
	var stream []trace.IResimEvent
	for i := 0; i < 100; i++ {
		stream = append(stream, ev(uint32(i%2)*4096, 0, true))
	}
	pts := Sweep(stream, 1, []Config{{Size: 64 << 10, Assoc: 1}})
	if pts[0].Relative != 1.0 {
		t.Errorf("64KB DM relative = %v, want 1.0 (every input is a miss again)", pts[0].Relative)
	}
}

func TestAssociativityRemovesConflicts(t *testing.T) {
	// Two blocks that conflict in DM but coexist in 2-way.
	var stream []trace.IResimEvent
	for i := 0; i < 100; i++ {
		stream = append(stream, ev(uint32(i%2)*4096, 0, true))
	}
	pts := Sweep(stream, 1, []Config{
		{Size: 64 << 10, Assoc: 1},
		{Size: 128 << 10, Assoc: 2},
	})
	if pts[0].OSMisses != 100 {
		t.Errorf("DM misses = %d, want 100", pts[0].OSMisses)
	}
	if pts[1].OSMisses != 2 { // two cold fills only
		t.Errorf("2-way misses = %d, want 2", pts[1].OSMisses)
	}
}

func TestLargerCacheRemovesCapacityConflicts(t *testing.T) {
	// Blocks 4096 apart conflict at 64 KB (4096 sets) but not at 128 KB.
	var stream []trace.IResimEvent
	for i := 0; i < 50; i++ {
		stream = append(stream, ev(0, 0, true), ev(4096, 0, true))
	}
	pts := Sweep(stream, 1, []Config{
		{Size: 64 << 10, Assoc: 1},
		{Size: 128 << 10, Assoc: 1},
	})
	if pts[1].OSMisses >= pts[0].OSMisses {
		t.Errorf("bigger cache did not help: %d vs %d", pts[1].OSMisses, pts[0].OSMisses)
	}
}

func TestFlushForcesRefetch(t *testing.T) {
	stream := []trace.IResimEvent{
		ev(1, 0, true),
		{Flush: true},
		ev(1, 0, true), // would hit without the flush
	}
	pts := Sweep(stream, 1, []Config{{Size: 1 << 20, Assoc: 1}})
	if pts[0].OSMisses != 2 {
		t.Errorf("misses = %d, want 2 (flush forces refetch)", pts[0].OSMisses)
	}
	n, rel := InvalBound(stream, 1)
	if n != 2 || rel != 1.0 {
		t.Errorf("InvalBound = (%d, %v), want (2, 1.0)", n, rel)
	}
}

// TestPerCPUCachesIndependent: each CPU has its own caches, so one block on
// two CPUs is two cold misses, and a flush marker empties all of them — at
// every size, either associativity and in the infinite cache. Checked on the
// one-pass Figure6 and on the per-configuration reference alike.
func TestPerCPUCachesIndependent(t *testing.T) {
	stream := []trace.IResimEvent{
		ev(5, 0, true), ev(5, 1, true), // cold on each CPU
		ev(5, 0, true), ev(5, 1, true), // both hit their own copy
		{Flush: true},
		ev(5, 0, true), ev(5, 1, true), // refetched on each CPU
	}
	const want = 4
	res := Figure6(stream, 2)
	dm, tw := Figure6Configs()
	for _, p := range append(res.DirectMapped, res.TwoWay...) {
		if p.OSMisses != want {
			t.Errorf("Figure6 %dKB %d-way: %d misses, want %d", p.Size>>10, p.Assoc, p.OSMisses, want)
		}
	}
	if res.InvalBoundMisses != want {
		t.Errorf("Figure6 infinite cache: %d misses, want %d", res.InvalBoundMisses, want)
	}
	for _, cfg := range append(dm, tw...) {
		if n := Simulate(stream, 2, cfg); n != want {
			t.Errorf("Simulate %dKB %d-way: %d misses, want %d", cfg.Size>>10, cfg.Assoc, n, want)
		}
	}
	if n, _ := InvalBound(stream, 2); n != want {
		t.Errorf("InvalBound: %d misses, want %d", n, want)
	}
}

func TestOnlyOSMissesCounted(t *testing.T) {
	// Application misses warm the simulated cache but are not plotted.
	stream := []trace.IResimEvent{
		ev(7, 0, false), // app fill
		ev(7, 0, true),  // OS access hits thanks to the app fill
		ev(9, 0, true),  // OS cold miss
	}
	pts := Sweep(stream, 1, []Config{{Size: 1 << 20, Assoc: 1}})
	if pts[0].OSMisses != 1 {
		t.Errorf("OS misses = %d, want 1", pts[0].OSMisses)
	}
}

func TestFigure6ShapeMonotone(t *testing.T) {
	// Synthetic stream with conflicts at several scales.
	var stream []trace.IResimEvent
	for r := 0; r < 30; r++ {
		for i := uint32(0); i < 24; i++ {
			stream = append(stream, ev(i*4096/16*16+i, 0, true))
		}
	}
	res := Figure6(stream, 1)
	if len(res.DirectMapped) != 5 || len(res.TwoWay) != 4 {
		t.Fatalf("sweep sizes: dm=%d tw=%d", len(res.DirectMapped), len(res.TwoWay))
	}
	for i := 1; i < len(res.DirectMapped); i++ {
		if res.DirectMapped[i].Relative > res.DirectMapped[i-1].Relative+1e-9 {
			t.Errorf("DM curve not monotone: %+v", res.DirectMapped)
		}
	}
	// The inval bound is a floor.
	last := res.DirectMapped[len(res.DirectMapped)-1].Relative
	if res.InvalBoundRel > last+1e-9 {
		t.Errorf("inval bound %v above largest-cache point %v", res.InvalBoundRel, last)
	}
}

func dev(block uint32, cpu int, os, fill, inval bool) trace.DResimEvent {
	return trace.DResimEvent{Block: block, CPU: uint8(cpu), OS: os, Fill: fill, Inval: inval}
}

func TestDSweepSharingFloor(t *testing.T) {
	// Two CPUs ping-pong writes to one block: every re-fill is a
	// sharing miss that NO cache size can remove.
	var stream []trace.DResimEvent
	for i := 0; i < 50; i++ {
		stream = append(stream, dev(7, i%2, true, true, true))
	}
	pts := DSweep(stream, 2, []Config{
		{Size: 256 << 10, Assoc: 1},
		{Size: 4 << 20, Assoc: 4},
	})
	// Every fill misses regardless of capacity: 2 cold + 48 sharing.
	for _, p := range pts {
		if p.OSMisses != 50 {
			t.Errorf("size %d: OS misses = %d, want 50 (sharing floor)", p.Size, p.OSMisses)
		}
		if p.OSSharing != 48 {
			t.Errorf("size %d: sharing = %d, want 48", p.Size, p.OSSharing)
		}
	}
}

func TestDSweepCapacityMissesShrink(t *testing.T) {
	// One CPU cycles through a working set bigger than 256KB but
	// smaller than 1MB: the bigger cache removes those misses.
	var stream []trace.DResimEvent
	blocks := (512 << 10) / 16
	for round := 0; round < 3; round++ {
		for b := 0; b < blocks; b += 16 {
			stream = append(stream, dev(uint32(b), 0, true, true, false))
		}
	}
	pts := DSweep(stream, 1, []Config{
		{Size: 256 << 10, Assoc: 1},
		{Size: 1 << 20, Assoc: 1},
	})
	if pts[1].OSMisses >= pts[0].OSMisses {
		t.Errorf("1MB (%d) should beat 256KB (%d)", pts[1].OSMisses, pts[0].OSMisses)
	}
	if pts[1].OSSharing != 0 {
		t.Errorf("no sharing expected, got %d", pts[1].OSSharing)
	}
}

func TestDSweepUpgradeInvalidatesWithoutFill(t *testing.T) {
	stream := []trace.DResimEvent{
		dev(3, 0, true, true, false), // CPU0 reads
		dev(3, 1, true, true, false), // CPU1 reads (both shared)
		dev(3, 1, true, false, true), // CPU1 upgrades: invalidate CPU0
		dev(3, 0, true, true, false), // CPU0 re-reads: sharing miss
	}
	pts := DSweep(stream, 2, []Config{{Size: 1 << 20, Assoc: 1}})
	if pts[0].OSMisses != 3 {
		t.Errorf("misses = %d, want 3 (two cold + one sharing)", pts[0].OSMisses)
	}
	if pts[0].OSSharing != 1 {
		t.Errorf("sharing = %d, want 1", pts[0].OSSharing)
	}
}

// TestSweeperHoldsArraysOnlyWhileFed: a new Sweeper holds no tag arrays, a
// CPU gets its own at its first event, End drops them all, and the result
// is the same before and after End.
func TestSweeperHoldsArraysOnlyWhileFed(t *testing.T) {
	s := NewSweeper(4)
	for i, c := range s.cpus {
		if c.dm != nil || c.tw != nil || c.seen != nil {
			t.Fatalf("a new Sweeper holds CPU %d's arrays", i)
		}
	}
	s.Add(ev(7, 2, true))
	s.Add(trace.IResimEvent{Flush: true})
	s.Add(ev(7, 2, true))
	s.Add(ev(1<<20, 2, false))
	for i, c := range s.cpus {
		if fed := i == 2; (c.dm != nil) != fed {
			t.Errorf("CPU %d holds tag arrays %t, want %t", i, c.dm != nil, fed)
		}
	}
	before := s.Result()
	s.End()
	if s.cpus != nil {
		t.Error("End left the tag arrays in place")
	}
	if after := s.Result(); !reflect.DeepEqual(before, after) {
		t.Errorf("End changed the result: %+v, then %+v", before, after)
	}
	if before.DirectMapped[0].OSMisses != 2 || before.InvalBoundMisses != 2 {
		t.Errorf("64KB misses %d and infinite-cache misses %d, want 2 and 2 (one flush between two fills)",
			before.DirectMapped[0].OSMisses, before.InvalBoundMisses)
	}
}
