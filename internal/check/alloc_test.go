package check_test

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/check"
)

// flatView is a minimal BusView: CPU 0 always holds the block clean and
// exclusive. It keeps the allocation measurement about the checker itself,
// not the cache complex behind it.
type flatView struct{ n int }

func (v flatView) NCPUs() int { return v.n }
func (v flatView) Lines(a arch.PAddr, out []check.Line) {
	clear(out)
	out[0] = check.LineL2
}

// TestShadowUpdateZeroAlloc pins the checker's allocation contract: after a
// page's first touch (which allocates its shadow page and copy tables),
// every subsequent data reference and instruction fetch must update the
// shadow state without allocating. The checker runs on the same per-event
// hot path as the streaming classifier.
func TestShadowUpdateZeroAlloc(t *testing.T) {
	k := check.New(flatView{4}, arch.MemFrames)
	const a = arch.PAddr(0x4000)
	const code = arch.PAddr(0x8000)
	// Warm up: first touch allocates the shadow pages and copy tables.
	k.OnData(0, a, true, check.LevelFill, 1)
	k.OnFetch(0, code, false, 1)
	avg := testing.AllocsPerRun(1000, func() {
		k.OnData(0, a, true, check.LevelL1, 2)
		k.OnData(0, a, false, check.LevelL1, 3)
		k.OnFetch(0, code, true, 4)
	})
	if avg != 0 {
		t.Errorf("shadow update allocates %.1f objects per event in steady state; want 0", avg)
	}
	if k.Violations != 0 {
		t.Fatalf("legal sequence tripped the checker: %v", k.Errors()[0])
	}
}
