// Package cachesweep reproduces the paper's Figure 6 methodology: "we use
// the references that miss in the caches of the real machine to simulate
// larger caches". The instruction-miss stream reconstructed by the trace
// package drives simulations of bigger and set-associative I-caches; the
// result is the OS instruction miss rate of each configuration relative to
// the measured machine's 64 KB direct-mapped cache.
//
// Because the input already excludes references that hit the real 64 KB
// cache, a two-way 64 KB cache cannot be simulated (the paper notes the
// same restriction).
//
// Sweeper computes every configuration in one pass over the stream through
// tag-only arrays (DESIGN.md §11), online as a run classifies its misses or
// over a stored stream (Figure6). Simulate, Sweep and InvalBound replay the
// stream through the full cache.Cache model one configuration at a time;
// they are the reference the one-pass sweep is tested against.
package cachesweep

import (
	"repro/internal/arch"
	"repro/internal/cache"
	"repro/internal/trace"
)

// Config is one simulated I-cache configuration.
type Config struct {
	Size  int
	Assoc int
}

// Point is the sweep result for one configuration.
type Point struct {
	Config
	// OSMisses is the number of OS instruction misses this
	// configuration would take on the miss stream.
	OSMisses int64
	// Relative is OSMisses / baseline OS misses (1.0 for the measured
	// 64 KB direct-mapped cache, by construction).
	Relative float64
}

// Figure6Sizes are the cache sizes of the paper's sweep.
var Figure6Sizes = []int{64 << 10, 128 << 10, 256 << 10, 512 << 10, 1 << 20}

// Baseline counts the OS misses of the measured machine in the stream —
// the denominator every sweep point is normalized by.
func Baseline(stream []trace.IResimEvent) int64 {
	n := int64(0)
	for _, e := range stream {
		if !e.Flush && e.OS {
			n++
		}
	}
	return n
}

// relative is misses normalized by the baseline (0 for an empty baseline).
func relative(misses, baseline int64) float64 {
	if baseline == 0 {
		return 0
	}
	return float64(misses) / float64(baseline)
}

// Sweep simulates the configurations against the miss stream and returns
// one point per config. A flush event invalidates every simulated cache
// (the machine's code-page-reallocation flush).
func Sweep(stream []trace.IResimEvent, ncpu int, configs []Config) []Point {
	baseline := Baseline(stream)
	out := make([]Point, 0, len(configs))
	for _, cfg := range configs {
		misses := Simulate(stream, ncpu, cfg)
		out = append(out, Point{Config: cfg, OSMisses: misses, Relative: relative(misses, baseline)})
	}
	return out
}

// Simulate replays the miss stream against one I-cache configuration and
// returns the OS misses it would take. Each call builds its own caches, so
// independent configurations can be simulated concurrently.
func Simulate(stream []trace.IResimEvent, ncpu int, cfg Config) int64 {
	caches := make([]*cache.Cache, ncpu)
	for i := range caches {
		caches[i] = cache.New("sweep", cfg.Size, cfg.Assoc)
	}
	var misses int64
	for _, e := range stream {
		if e.Flush {
			for _, c := range caches {
				c.InvalidateAll()
			}
			continue
		}
		a := arch.PAddr(e.Block) << arch.BlockShift
		hit, _, _ := caches[e.CPU].Access(a, false)
		if !hit && e.OS {
			misses++
		}
	}
	return misses
}

// InvalBound simulates an infinite cache with flushes: the remaining
// misses are cold misses plus flush-forced refetches — the dashed lower
// bound of Figure 6 ("the effect of the misses caused by invalidations").
func InvalBound(stream []trace.IResimEvent, ncpu int) (osMisses int64, rel float64) {
	resident := make([]map[uint32]bool, ncpu)
	for i := range resident {
		resident[i] = make(map[uint32]bool)
	}
	baseline := int64(0)
	for _, e := range stream {
		if e.Flush {
			for i := range resident {
				resident[i] = make(map[uint32]bool)
			}
			continue
		}
		if e.OS {
			baseline++
		}
		if !resident[e.CPU][e.Block] {
			resident[e.CPU][e.Block] = true
			if e.OS {
				osMisses++
			}
		}
	}
	return osMisses, relative(osMisses, baseline)
}

// Figure6Result is the paper's full sweep: direct-mapped and two-way
// caches at each size (skipping the impossible 64 KB two-way), plus the
// invalidation bound.
type Figure6Result struct {
	DirectMapped []Point
	TwoWay       []Point
	// InvalBoundRel is the dashed curve's floor (relative miss rate of
	// an infinite cache that still suffers flushes and cold misses).
	InvalBoundRel    float64
	InvalBoundMisses int64
}

// Figure6Configs returns the direct-mapped and two-way configuration
// lists of the paper's sweep (the impossible 64 KB two-way excluded).
func Figure6Configs() (dm, tw []Config) {
	for _, sz := range Figure6Sizes {
		dm = append(dm, Config{Size: sz, Assoc: 1})
		if sz > 64<<10 {
			tw = append(tw, Config{Size: sz, Assoc: 2})
		}
	}
	return dm, tw
}

// sweepCPU is one CPU's simulated I-caches, tags only: an entry is block+1
// and 0 is an empty way (Block is a 16-byte block number of a 32-bit
// physical address, so the +1 cannot wrap). Nothing else a cache.Cache
// keeps — dirty bits, LRU stamps, resident counts, evictions — is read by
// the figure.
type sweepCPU struct {
	dm   [][]uint32 // per direct-mapped size, smallest first: one tag per set
	tw   [][]uint32 // per two-way size: two tags per set, most recent first
	seen []uint64   // the infinite cache: one bit per block, grown on demand
}

func newSweepCPU(dm, tw []Config) sweepCPU {
	var c sweepCPU
	for _, cfg := range dm {
		c.dm = append(c.dm, make([]uint32, cfg.Size/arch.BlockSize))
	}
	for _, cfg := range tw {
		c.tw = append(c.tw, make([]uint32, cfg.Size/arch.BlockSize))
	}
	return c
}

// flush empties every cache of the CPU, the infinite one included.
func (c *sweepCPU) flush() {
	for _, t := range c.dm {
		clear(t)
	}
	for _, t := range c.tw {
		clear(t)
	}
	clear(c.seen)
}

// Sweeper is Figure 6 computed online: every event is fed to all of its
// CPU's direct-mapped sizes, two-way sizes and the infinite cache before
// the next is read. After the stream, Result equals {Sweep(dm), Sweep(tw),
// InvalBound} of it exactly (DESIGN.md §11 has the argument;
// TestFigure6OnePassMatchesReference the evidence). A run attaches one to
// its classifier's I-miss stream (trace.IMissSink), so no stream is
// stored; a CPU's tag arrays, about 1 MB, are allocated at its first
// event and dropped by End.
type Sweeper struct {
	dm, tw         []Config
	cpus           []sweepCPU
	dmMiss, twMiss []int64
	infMiss        int64
	baseline       int64
}

// NewSweeper returns the sweep of an ncpu-processor machine's stream.
func NewSweeper(ncpu int) *Sweeper {
	dm, tw := Figure6Configs()
	return &Sweeper{dm: dm, tw: tw, cpus: make([]sweepCPU, ncpu),
		dmMiss: make([]int64, len(dm)), twMiss: make([]int64, len(tw))}
}

// Figure6 computes the whole figure from a classified trace's stored
// stream: the Sweeper fed the stream in one pass.
func Figure6(stream []trace.IResimEvent, ncpu int) Figure6Result {
	s := NewSweeper(ncpu)
	for _, e := range stream {
		s.Add(e)
	}
	return s.Result()
}

// Add feeds one event of the stream.
func (s *Sweeper) Add(e trace.IResimEvent) {
	if e.Flush {
		for i := range s.cpus {
			s.cpus[i].flush()
		}
		return
	}
	var os int64
	if e.OS {
		os = 1
	}
	s.baseline += os
	c, tag := &s.cpus[e.CPU], e.Block+1
	if c.dm == nil {
		*c = newSweepCPU(s.dm, s.tw)
	}
	// Smallest first, stopping at the first hit: the sizes share one
	// stream, index by bit selection and are only ever emptied together,
	// so a block resident at one size is resident at every larger one,
	// and a direct-mapped hit changes no state.
	for k, t := range c.dm {
		set := e.Block & uint32(len(t)-1)
		if t[set] == tag {
			break
		}
		t[set] = tag
		s.dmMiss[k] += os
	}
	// A most-recent-first pair is cache.Cache's "invalid way first, else
	// LRU" when ways are only ever invalidated all at once: the second
	// entry is the empty way if there is one, else the LRU.
	for k, t := range c.tw {
		set := 2 * (e.Block & uint32(len(t)/2-1))
		if t[set] == tag {
			continue
		}
		if t[set+1] != tag {
			s.twMiss[k] += os
		}
		t[set], t[set+1] = tag, t[set]
	}
	w, bit := int(e.Block/64), uint64(1)<<(e.Block%64)
	if w >= len(c.seen) {
		// A block past the bitmap has never been seen: grow it with
		// zeros, which leaves every earlier answer as it was.
		c.seen = append(c.seen, make([]uint64, w+1-len(c.seen))...)
	}
	if c.seen[w]&bit == 0 {
		c.seen[w] |= bit
		s.infMiss += os
	}
}

// End implements trace.IMissSink: the stream is over, so the tag arrays
// are dropped. The counts Result reads are kept.
func (s *Sweeper) End() { s.cpus = nil }

var _ trace.IMissSink = (*Sweeper)(nil)

// Result is the figure of the stream fed so far.
func (s *Sweeper) Result() Figure6Result {
	res := Figure6Result{InvalBoundMisses: s.infMiss, InvalBoundRel: relative(s.infMiss, s.baseline)}
	for k, cfg := range s.dm {
		res.DirectMapped = append(res.DirectMapped, Point{Config: cfg, OSMisses: s.dmMiss[k], Relative: relative(s.dmMiss[k], s.baseline)})
	}
	for k, cfg := range s.tw {
		res.TwoWay = append(res.TwoWay, Point{Config: cfg, OSMisses: s.twMiss[k], Relative: relative(s.twMiss[k], s.baseline)})
	}
	return res
}

// ---- Data-cache sweep (§4.2.2: "Larger data caches cannot eliminate
// Sharing misses. Consequently ... larger data caches can only moderately
// increase the data cache performance of the OS.") ----

// DPoint is one data-cache configuration's result.
type DPoint struct {
	Config
	// OSMisses is what the configuration would still take.
	OSMisses int64
	// OSSharing is the subset caused by coherence invalidations — the
	// floor no capacity can remove.
	OSSharing int64
	Relative  float64
}

// DSweep replays the data-miss stream (fills plus coherence
// invalidations) against bigger/associative coherence-level caches.
func DSweep(stream []trace.DResimEvent, ncpu int, configs []Config) []DPoint {
	var baseline int64
	for _, e := range stream {
		if e.Fill && e.OS {
			baseline++
		}
	}
	out := make([]DPoint, 0, len(configs))
	for _, cfg := range configs {
		caches := make([]*cache.Cache, ncpu)
		invalidated := make([]map[uint32]bool, ncpu)
		for i := range caches {
			caches[i] = cache.New("dsweep", cfg.Size, cfg.Assoc)
			invalidated[i] = make(map[uint32]bool)
		}
		p := DPoint{Config: cfg}
		for _, e := range stream {
			a := arch.PAddr(e.Block) << arch.BlockShift
			if e.Fill {
				hit, _, _ := caches[e.CPU].Access(a, e.Inval)
				if !hit && e.OS {
					p.OSMisses++
					if invalidated[e.CPU][e.Block] {
						p.OSSharing++
					}
				}
				delete(invalidated[e.CPU], e.Block)
			}
			if e.Inval {
				for q := 0; q < ncpu; q++ {
					if q == int(e.CPU) {
						continue
					}
					if was, _ := caches[q].Invalidate(a); was {
						invalidated[q][e.Block] = true
					}
				}
			}
		}
		p.Relative = relative(p.OSMisses, baseline)
		out = append(out, p)
	}
	return out
}
