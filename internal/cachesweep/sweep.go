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

// Sweep simulates the configurations against the miss stream and returns
// one point per config. A flush event invalidates every simulated cache
// (the machine's code-page-reallocation flush).
func Sweep(stream []trace.IResimEvent, ncpu int, configs []Config) []Point {
	baseline := Baseline(stream)
	out := make([]Point, 0, len(configs))
	for _, cfg := range configs {
		misses := Simulate(stream, ncpu, cfg)
		p := Point{Config: cfg, OSMisses: misses}
		if baseline > 0 {
			p.Relative = float64(misses) / float64(baseline)
		}
		out = append(out, p)
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
func InvalBound(stream []trace.IResimEvent, ncpu int) (osMisses int64, relative float64) {
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
	if baseline > 0 {
		relative = float64(osMisses) / float64(baseline)
	}
	return osMisses, relative
}

// Figure6 runs the paper's full sweep: direct-mapped and two-way caches at
// each size (skipping the impossible 64 KB two-way), plus the
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

// Figure6 computes the whole figure from a classified trace.
func Figure6(stream []trace.IResimEvent, ncpu int) Figure6Result {
	dm, tw := Figure6Configs()
	res := Figure6Result{
		DirectMapped: Sweep(stream, ncpu, dm),
		TwoWay:       Sweep(stream, ncpu, tw),
	}
	res.InvalBoundMisses, res.InvalBoundRel = InvalBound(stream, ncpu)
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
		if baseline > 0 {
			p.Relative = float64(p.OSMisses) / float64(baseline)
		}
		out = append(out, p)
	}
	return out
}
