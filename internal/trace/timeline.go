package trace

import (
	"repro/internal/arch"
	"repro/internal/metrics"
)

// segKind classifies a stretch of one CPU's timeline.
type segKind uint8

const (
	// segOS is kernel execution inside an OS invocation.
	segOS segKind = iota
	// segApp is application execution (UTLB fault spikes included).
	segApp
	// segIdle is the OS idle loop.
	segIdle
)

// Stretch tallies one kind of timeline stretch: how many there were, and
// their cycles and misses summed.
type Stretch struct {
	N      int64
	Cycles arch.Cycles
	IMiss  int64
	DMiss  int64
}

// Per returns v averaged over the stretches (0 when there are none).
func (s Stretch) Per(v int64) float64 {
	if s.N == 0 {
		return 0
	}
	return float64(v) / float64(s.N)
}

func (s *Stretch) add(o Stretch) {
	s.N += o.N
	s.Cycles += o.Cycles
	s.IMiss += o.IMiss
	s.DMiss += o.DMiss
}

// Timeline tallies the monitor's segmentation of every CPU's timeline
// (Figures 1 and 3). An OS invocation interrupted by the idle loop is one
// OS entry whose cycles and misses leave the idle pieces out ("OS" versus
// "OS in the Idle Loop"); each CPU's trailing stretch, truncated by the
// end of the trace, is dropped.
type Timeline struct {
	OS, Idle, App Stretch
	// AppUTLBs and AppUTLBMisses count the cheap-fault spikes inside
	// application stretches and the misses they caused.
	AppUTLBs, AppUTLBMisses int64
	// Figure 3's distributions: misses and cycles per OS invocation
	// (idle excluded) and per application stretch.
	OSIMiss, OSDMiss, OSCycles *metrics.Histogram
	AppMiss, AppCycles         *metrics.Histogram
}

func newTimeline() Timeline {
	miss := func() *metrics.Histogram { return metrics.NewHistogram(10, 50, 100, 200, 400, 800) }
	cycles := func() *metrics.Histogram { return metrics.NewHistogram(1000, 5000, 10000, 25000, 50000, 100000) }
	return Timeline{OSIMiss: miss(), OSDMiss: miss(), OSCycles: cycles(), AppMiss: miss(), AppCycles: cycles()}
}

// segBuilder folds one CPU's stretches into the Timeline as they close.
// OS pieces with one invID are one invocation, and invID never decreases
// on a CPU, so the open invocation is complete once an OS piece with a
// new id closes, or at finish.
type segBuilder struct {
	started   bool
	kind      segKind
	invID     uint32
	startTick uint64
	cur       Stretch // the open stretch's misses
	nUTLB     int64   // the open stretch's UTLB faults
	nUTLBMiss int64   // and their misses

	inv   Stretch // the open OS invocation, summed over its N pieces
	invOf uint32
}

// boundary closes the current stretch at tick into tl and opens a new one.
func (b *segBuilder) boundary(tl *Timeline, kind segKind, invID uint32, tick uint64) {
	if b.started {
		s := b.cur
		s.N = 1
		s.Cycles = arch.Cycles(2 * (tick - b.startTick)) // 60 ns ticks
		switch b.kind {
		case segOS:
			if b.inv.N > 0 && b.invOf != b.invID {
				b.finish(tl)
			}
			b.invOf = b.invID
			b.inv.add(s)
		case segIdle:
			tl.Idle.add(s)
		case segApp:
			tl.App.add(s)
			tl.AppUTLBs += b.nUTLB
			tl.AppUTLBMisses += b.nUTLBMiss
			tl.AppMiss.Add(float64(s.IMiss + s.DMiss))
			tl.AppCycles.Add(float64(s.Cycles))
		}
	}
	b.started = true
	b.kind = kind
	b.invID = invID
	b.startTick = tick
	b.cur, b.nUTLB, b.nUTLBMiss = Stretch{}, 0, 0
}

// finish adds the open OS invocation, if any, to tl as one invocation.
func (b *segBuilder) finish(tl *Timeline) {
	if b.inv.N == 0 {
		return
	}
	b.inv.N = 1
	tl.OS.add(b.inv)
	tl.OSIMiss.Add(float64(b.inv.IMiss))
	tl.OSDMiss.Add(float64(b.inv.DMiss))
	tl.OSCycles.Add(float64(b.inv.Cycles))
	b.inv = Stretch{}
}
