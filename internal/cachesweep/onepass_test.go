package cachesweep_test

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cachesweep"
	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/workload"
)

// reference is Figure 6 computed one configuration at a time through the
// full cache.Cache model — what cachesweep.Figure6 did before it became one
// pass, and what it must keep equalling.
func reference(stream []trace.IResimEvent, ncpu int) cachesweep.Figure6Result {
	dm, tw := cachesweep.Figure6Configs()
	res := cachesweep.Figure6Result{
		DirectMapped: cachesweep.Sweep(stream, ncpu, dm),
		TwoWay:       cachesweep.Sweep(stream, ncpu, tw),
	}
	res.InvalBoundMisses, res.InvalBoundRel = cachesweep.InvalBound(stream, ncpu)
	return res
}

// randomStream builds a seeded I-miss stream shaped to stress the sweep: 1–8
// CPUs, a block span of 2⁸–2²¹, a family of blocks 4096·k apart (they share a
// set at every size up to 4096·k sets, so they conflict in direct-mapped and
// overflow two-way sets), a small hot pool that mostly hits, uniform noise,
// and a flush marker about every 2000 events.
func randomStream(seed int64) (stream []trace.IResimEvent, ncpu int) {
	rng := rand.New(rand.NewSource(seed))
	ncpu = 1 + rng.Intn(8)
	span := uint32(1) << (8 + rng.Intn(14))
	base := rng.Uint32() % span
	hot := make([]uint32, 1+rng.Intn(32))
	for i := range hot {
		hot[i] = rng.Uint32() % span
	}
	stream = make([]trace.IResimEvent, 2000+rng.Intn(6000))
	for i := range stream {
		if rng.Intn(2000) == 0 {
			stream[i] = trace.IResimEvent{Flush: true}
			continue
		}
		var b uint32
		switch rng.Intn(4) {
		case 0:
			b = rng.Uint32() % span
		case 1, 2:
			b = (base + 4096*uint32(rng.Intn(16))) % span
		default:
			b = hot[rng.Intn(len(hot))]
		}
		stream[i] = trace.IResimEvent{Block: b, CPU: uint8(rng.Intn(ncpu)), OS: rng.Intn(3) != 0}
	}
	return stream, ncpu
}

// randomSeeds is how many seeded streams the differential test walks; every
// tenth is FuzzFigure6's corpus.
const randomSeeds = 300

// checkOnePass returns the one-pass result once it equals the reference.
func checkOnePass(t *testing.T, stream []trace.IResimEvent, ncpu int) cachesweep.Figure6Result {
	t.Helper()
	got, want := cachesweep.Figure6(stream, ncpu), reference(stream, ncpu)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("one-pass Figure6 differs from the per-configuration reference (%d events, %d CPUs):\n got %+v\nwant %+v",
			len(stream), ncpu, got, want)
	}
	return got
}

// TestFigure6OnePassMatchesReference is the differential oracle of the
// one-pass sweep: equal to {Sweep(dm), Sweep(tw), InvalBound} on the real
// I-miss streams of all three workloads at two seeds, and on seeded random
// streams that carry what the real ones at this window do not — flush
// markers, up to 8 CPUs, dense set conflicts.
func TestFigure6OnePassMatchesReference(t *testing.T) {
	for _, kind := range []workload.Kind{workload.Pmake, workload.Multpgm, workload.Oracle} {
		for _, seed := range []int64{1, 23} {
			ch := core.Run(core.Config{Workload: kind, Window: 3_000_000, Seed: seed, CollectIResim: true})
			if len(ch.Trace.IResim) == 0 {
				t.Fatalf("%v seed %d: empty I-miss stream", kind, seed)
			}
			res := checkOnePass(t, ch.Trace.IResim, ch.Cfg.NCPU)
			// The 64 KB direct-mapped point is the measured machine: every
			// event of the stream misses there again.
			if got := res.DirectMapped[0].Relative; got != 1 {
				t.Errorf("%v seed %d: 64KB direct-mapped relative rate %v, want 1", kind, seed, got)
			}
		}
	}
	flushes, conflicts := 0, false
	for seed := int64(0); seed < randomSeeds; seed++ {
		stream, ncpu := randomStream(seed)
		res := checkOnePass(t, stream, ncpu)
		for _, e := range stream {
			if e.Flush {
				flushes++
			}
		}
		conflicts = conflicts || res.TwoWay[0].OSMisses < res.DirectMapped[1].OSMisses
	}
	if flushes < randomSeeds {
		t.Errorf("only %d flush markers over %d random streams: the flush path is barely exercised", flushes, randomSeeds)
	}
	if !conflicts {
		t.Error("no random stream had two-way beat direct-mapped at 128KB: the generator makes no set conflicts")
	}
}

// FuzzFigure6 lets the fuzzer pick the generator seed.
func FuzzFigure6(f *testing.F) {
	for seed := int64(0); seed < randomSeeds; seed += 10 {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		stream, ncpu := randomStream(seed)
		checkOnePass(t, stream, ncpu)
	})
}

// TestSweeperSinkMatchesStoredStream: a Sweeper subscribed to a run's
// I-miss stream ends with the figure of the stream the same run stores, on
// every workload at two seeds.
func TestSweeperSinkMatchesStoredStream(t *testing.T) {
	for _, kind := range []workload.Kind{workload.Pmake, workload.Multpgm, workload.Oracle} {
		for _, seed := range []int64{1, 23} {
			cfg := core.Config{Workload: kind, Window: 2_000_000, Seed: seed, CollectIResim: true}
			n := cfg.Canonical().NCPU
			sweep := cachesweep.NewSweeper(n)
			ch, err := core.RunMonitored(context.Background(), cfg, nil, sweep)
			if err != nil {
				t.Fatal(err)
			}
			if len(ch.Trace.IResim) == 0 {
				t.Fatalf("%v seed %d: empty I-miss stream", kind, seed)
			}
			if got, want := sweep.Result(), cachesweep.Figure6(ch.Trace.IResim, n); !reflect.DeepEqual(got, want) {
				t.Errorf("%v seed %d: online sweep\n%+v\nstored stream's\n%+v", kind, seed, got, want)
			}
		}
	}
}
