package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"time"

	"repro/internal/arch"
	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/cachesweep"
	"repro/internal/core"
	"repro/internal/klock"
	"repro/internal/kmem"
	"repro/internal/machineflag"
	"repro/internal/monitor"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/sample"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/tlb"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The traced run: the harness calls each layer's public functions itself,
// with a span around every call, and turns the spans and the layers' own
// counters into the per-layer metrics. One part is the workload's: the
// differential chain runs on the simulator configurations that workload's
// op runs. The rest is the same for every workload and differs only by
// --seed: the speculation and sampling comparisons, the seeded synthetic
// streams driven straight into tlb/cache/bus, the post-processing layers,
// and the service layers in process.

// layerRun collects one traced run.
type layerRun struct {
	tr      *Tracer
	env     *runEnv
	m       map[string]Metric
	checks  int
	fails   []string
	counted map[string]float64 // exact counts, compared with golden.json
}

func (l *layerRun) set(name string, v float64, unit string) { l.m[name] = Metric{v, unit} }

// count records a metric that must repeat exactly for the same seed.
func (l *layerRun) count(name string, v float64, unit string) {
	l.set(name, v, unit)
	l.counted[name] = v
}

func (l *layerRun) check(ok bool, format string, args ...any) {
	l.checks++
	if !ok {
		l.fails = append(l.fails, fmt.Sprintf(format, args...))
	}
}

// chainConfigs returns the simulator configurations one op of the
// workload runs, on the run's first simulator seed, with every mode flag
// cleared: the chain sets those itself, one at a time.
func chainConfigs(name string, env *runEnv) ([]core.Config, error) {
	z, s0 := env.size, simSeed(env.seed, 0)
	three := func(c core.Config) []core.Config {
		var out []core.Config
		for _, k := range []workload.Kind{workload.Pmake, workload.Multpgm, workload.Oracle} {
			c.Workload = k
			out = append(out, c)
		}
		return out
	}
	switch name {
	case "char3-all":
		return three(core.Config{Seed: s0, Window: arch.Cycles(z.window(winChar3All))}), nil
	case "char3-check":
		return three(core.Config{Seed: s0, Window: arch.Cycles(z.window(winChar3Check))}), nil
	case "long-sampled":
		return three(core.Config{Seed: s0, Window: arch.Cycles(z.window(winSampled))}), nil
	case "par-4d380":
		m, err := machineflag.Preset("4d380")
		return three(core.Config{Machine: m, Seed: s0, Window: arch.Cycles(z.window(winPar4d380))}), err
	case "fig11-scaling":
		var out []core.Config
		for _, n := range fig11CPUs {
			out = append(out, core.Config{Workload: workload.Multpgm, NCPU: n, Seed: s0,
				Window: arch.Cycles(z.window(winFig11))})
		}
		return out, nil
	case "svc-hit", "svc-miss":
		w := newSvcWorkload(name, env)
		reqs := w.hot
		if !w.hit {
			for i := 0; i < 6; i++ {
				reqs = append(reqs, w.missRequest(i))
			}
		}
		var out []core.Config
		for _, r := range reqs {
			c, err := r.Config()
			if err != nil {
				return nil, err
			}
			out = append(out, c)
		}
		return out, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// variant is one step of the differential chain. Each adds one layer to
// the previous, so the difference of two steps' sim.Run spans is that
// layer's cost with everything else held equal.
type variant int

const (
	vCore  variant = iota // T0: NoTrace — sim + kernel + klock + cache + bus only
	vCount                // T1: streaming with a counting no-op recorder
	vFull                 // T2: the real trace.Classifier inline (what core.Run does)
	vCheck                // T3: T2 + the invariant checker
	vResim                // T4: T2 + I-miss stream collection
	numVariants
)

var variantNames = [numVariants]string{"T0.core", "T1.record", "T2.classify", "T3.check", "T4.resim"}

// countRecorder is the T1 recorder: it receives every transaction the bus
// constructs and fans out, and does nothing but count them by kind.
type countRecorder struct{ byKind [8]int64 }

func (c *countRecorder) Record(t bus.Txn) { c.byKind[t.Kind&7]++ }

func (c *countRecorder) total() (n int64) {
	for _, v := range c.byKind {
		n += v
	}
	return n
}

// pipeOut is one pipeline run, as the spans saw it.
type pipeOut struct {
	ch                       *core.Characterization
	setup, run, finish, rend time.Duration
	total                    time.Duration // the whole pipeline span
	report                   string
	events                   int64
	allocBytes, allocs       uint64
}

// runPipeline is the same public composition core.RunMonitored performs
// (sim.New → workload.Setup → Simulator.RunCancelable → Classifier.Finish
// → report.Single), with each call in a span. The traced run checks that
// it renders byte-identically to core.Run.
func runPipeline(tr *Tracer, cfg core.Config, v variant) pipeOut {
	switch v {
	case vCore:
		cfg.NoTrace = true
	case vCheck:
		cfg.Check = true
	case vResim:
		cfg.CollectIResim = true
	}
	cfg = cfg.Canonical()
	var out pipeOut
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	tr.NextOp()
	out.total = tr.Do("pipeline."+variantNames[v], func() {
		var s *sim.Simulator
		out.setup = tr.Do("sim.New", func() {
			s = sim.New(sim.Config{
				Machine: cfg.Machine, NCPU: cfg.NCPU, Seed: cfg.Seed,
				Window: cfg.Window, Warmup: cfg.Warmup,
				NoTrace: cfg.NoTrace, Streaming: !cfg.NoTrace, Check: cfg.Check,
			})
		})
		var cl *trace.Classifier
		var cnt *countRecorder
		switch v {
		case vCore:
		case vCount:
			cnt = &countRecorder{}
			s.Stream = cnt
		default:
			tr.Do("trace.NewClassifier", func() {
				cl = trace.NewClassifier(s.K.T, s.K.L, cfg.NCPU)
				cl.CollectIResim = cfg.CollectIResim
			})
			s.Stream = cl
		}
		out.setup += tr.Do("workload.Setup", func() { workload.Setup(s.Kernel(), cfg.Workload) })
		out.run = tr.Do("sim.Run", func() { s.RunCancelable() })
		out.ch = &core.Characterization{
			Cfg: cfg, Sim: s,
			Ops:         s.K.Counters().Sub(s.BaseCounters),
			CheckErrors: s.CheckErrors(),
		}
		if cl != nil {
			out.finish = tr.Do("trace.Finish", func() { out.ch.Trace = cl.Finish() })
		}
		if cnt != nil {
			out.events = cnt.total()
		} else {
			out.rend = tr.Do("report.Single", func() { out.report = report.Single(out.ch) })
		}
	})
	runtime.ReadMemStats(&m1)
	out.allocBytes, out.allocs = m1.TotalAlloc-m0.TotalAlloc, m1.Mallocs-m0.Mallocs
	return out
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// chain runs the five variants plus plain core.Run on each configuration.
func (l *layerRun) chain(cfgs []core.Config) {
	var t [numVariants]time.Duration
	var setup, finish, rend, untraced, traced time.Duration
	var events, checks, violations, simCycles int64
	var allocMB, resimAllocMB, allocs float64
	var ctxsw, migrations, diskReqs, kops, txns, writebacks, acquires, runqAcq, runqFailed int64
	for _, cfg := range cfgs {
		var outs [numVariants]pipeOut
		for v := vCore; v < numVariants; v++ {
			outs[v] = runPipeline(l.tr, cfg, v)
			t[v] += outs[v].run
		}
		// The same config through core.Run, no spans: the reference for
		// both the composition check and the tracing overhead.
		runtime.GC()
		var plain *core.Characterization
		t0 := time.Now()
		plain = core.Run(cfg)
		untraced += time.Since(t0)
		full := outs[vFull]
		traced += full.total - full.rend // core.Run renders nothing
		l.check(report.Single(plain) == full.report,
			"%s/ncpu%d: harness pipeline renders differently from core.Run", cfg.Workload, full.ch.Cfg.NCPU)

		c := full.ch.Cfg
		simCycles += int64(c.Window+c.Warmup) * int64(c.NCPU)
		setup += full.setup
		finish += full.finish
		rend += full.rend
		events += outs[vCount].events
		chk := outs[vCheck].ch.Sim.Chk
		checks += chk.Checks
		violations += chk.Violations
		allocMB += float64(full.allocBytes) / (1 << 20)
		allocs += float64(full.allocs)
		resimAllocMB += float64(outs[vResim].allocBytes) / (1 << 20)

		k := outs[vCore].ch
		ctxsw += k.Ops.CtxSwitches
		migrations += k.Ops.Migrations
		diskReqs += k.Ops.DiskRequests
		for _, n := range k.Ops.OpCounts {
			kops += n
		}
		txns += k.Sim.Bus.Stats.Transactions()
		writebacks += k.Sim.Bus.Stats.WriteBacks
		rq := k.Sim.K.Locks.FamilyStats(klock.Runqlk)
		runqAcq += rq.Acquires
		runqFailed += rq.Failed
		acquires += k.Sim.K.Locks.TotalAcquires()
	}
	n := float64(len(cfgs))
	l.set("sim.core_s", t[vCore].Seconds(), "s")
	l.set("sim.ns_per_cycle", float64(t[vCore].Nanoseconds())/float64(simCycles), "ns")
	l.set("sim.new_ms", ms(setup)/n, "ms")
	l.set("bus.record_overhead_s", (t[vCount] - t[vCore]).Seconds(), "s")
	l.set("trace.self_s", (t[vFull] - t[vCount]).Seconds(), "s")
	l.set("trace.finish_ms", ms(finish), "ms")
	l.count("trace.events", float64(events), "count")
	l.set("check.self_s", (t[vCheck] - t[vFull]).Seconds(), "s")
	l.count("check.checks", float64(checks), "count")
	l.set("check.ns_per_check", float64((t[vCheck]-t[vFull]).Nanoseconds())/float64(checks), "ns")
	l.count("check.violations", float64(violations), "count")
	l.check(violations == 0, "invariant checker found %d violations", violations)
	l.set("core.resim_collect_s", (t[vResim] - t[vFull]).Seconds(), "s")
	l.set("core.alloc_mb", allocMB, "MB")
	l.set("core.allocs", allocs, "count")
	l.set("core.resim_alloc_mb", resimAllocMB, "MB")
	l.set("report.single_ms", ms(rend)/n, "ms")
	l.set("bench.trace_overhead_pct", 100*(traced.Seconds()-untraced.Seconds())/untraced.Seconds(), "%")

	l.count("kernel.ctxsw", float64(ctxsw), "count")
	l.count("kernel.migrations", float64(migrations), "count")
	l.count("kernel.disk_reqs", float64(diskReqs), "count")
	l.count("kernel.ops", float64(kops), "count")
	l.count("bus.txns", float64(txns), "count")
	l.count("bus.writebacks", float64(writebacks), "count")
	l.count("klock.acquires", float64(acquires), "count")
	l.count("klock.failed_ratio", ratio(float64(runqFailed), float64(runqAcq)), "ratio")
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// speculation compares the conservative parallel engine with the serial
// scheduler on the configuration it was built for.
func (l *layerRun) speculation() {
	m, _ := machineflag.Preset("4d380")
	cfg := core.Config{Workload: workload.Pmake, Machine: m, Seed: simSeed(l.env.seed, 0),
		Window: arch.Cycles(l.env.size.window(4_000_000))}
	var serial, par *core.Characterization
	runtime.GC()
	t1 := l.tr.Do("sim.spec.workers1", func() { serial = core.Run(cfg) })
	cfg.SimWorkers = min(2, l.env.nproc)
	runtime.GC()
	t2 := l.tr.Do("sim.spec.workers2", func() { par = core.Run(cfg) })
	l.check(report.Single(serial) == report.Single(par), "speculation engine output differs from serial")
	st := par.Sim.SpecStats()
	l.set("sim.spec_slowdown_x", t2.Seconds()/t1.Seconds(), "x")
	l.count("sim.spec_phases", float64(st.Phases), "count")
	l.count("sim.spec_committed_per_phase", ratio(float64(st.CommittedSteps), float64(st.Phases)), "count")
	l.count("sim.spec_waste_ratio", ratio(float64(st.TruncatedSteps+st.Mispredicts), float64(st.SpecSteps)), "ratio")
}

// sampling compares a sampled run with the full run of the same window.
func (l *layerRun) sampling() {
	win := l.env.size.window(winSampled)
	sched, err := sample.Parse(sampleSchedule(win))
	l.check(err == nil, "sample schedule: %v", err)
	cfg := core.Config{Workload: workload.Pmake, Seed: simSeed(l.env.seed, 0), Window: arch.Cycles(win)}
	var full, sampled *core.Characterization
	runtime.GC()
	tf := l.tr.Do("sim.sample.full", func() { full = core.Run(cfg) })
	cfg.Sample = sched
	runtime.GC()
	ts := l.tr.Do("sim.sample.sampled", func() { sampled = core.Run(cfg) })
	l.check(sampled.Ops == full.Ops, "sampled run's kernel counters differ from the full run's (trajectory not exact)")
	est := sampled.Sampled
	total, _ := est.TotalAll()
	var worst float64
	for os := 0; os < 2; os++ {
		for instr := 0; instr < 2; instr++ {
			for cl := 0; cl < sample.NumClasses; cl++ {
				e, _ := est.ClassTotal(os, instr, cl)
				d := 100 * math.Abs(e-float64(full.Trace.Counts[os][instr][cl])) / float64(full.Trace.Total)
				worst = math.Max(worst, d)
			}
		}
	}
	l.set("sim.ff_ratio", ts.Seconds()/tf.Seconds(), "x")
	l.count("sample.intervals", float64(est.Samples), "count")
	l.count("sample.err_pct", 100*math.Abs(total-float64(full.Trace.Total))/float64(full.Trace.Total), "%")
	l.count("sample.max_class_err_pct", worst, "%")
}

// directBase is where the synthetic streams live: 16 MB into the default
// machine's 32 MB of physical memory, clear of the kernel's frames.
const directBase arch.PAddr = 16 << 20

// directCalls is the length of each direct-drive loop.
const directCalls = 2_000_000

// blocks returns a seeded stream of block addresses drawn uniformly from
// a footprint of the given size; its length is a power of two so loops
// can index it with a mask.
func blocks(rng *rand.Rand, footprint int) []arch.PAddr {
	out := make([]arch.PAddr, 1<<16)
	n := footprint / arch.BlockSize
	for i := range out {
		out[i] = directBase + arch.PAddr(rng.Intn(n)*arch.BlockSize)
	}
	return out
}

// sweepBlocks returns the blocks of a footprint in address order.
func sweepBlocks(footprint int) []arch.PAddr {
	out := make([]arch.PAddr, footprint/arch.BlockSize)
	for i := range out {
		out[i] = directBase + arch.PAddr(i*arch.BlockSize)
	}
	return out
}

// perCall times n calls of fn(i) and returns nanoseconds per call. The
// closure call is part of every figure alike (about a nanosecond).
func (l *layerRun) perCall(span string, n int, fn func(i int)) float64 {
	d := l.tr.Do(span, func() {
		for i := 0; i < n; i++ {
			fn(i)
		}
	})
	return float64(d.Nanoseconds()) / float64(n)
}

// directDrive feeds seeded synthetic streams straight into tlb, cache and
// bus. Footprints are relative to the default machine: 64 KB L1, 256 KB
// L2, 64 KB I-cache, 64-entry TLB.
func (l *layerRun) directDrive() {
	rng := rand.New(rand.NewSource(l.env.seed))
	m := arch.Default()
	n := int(l.env.size.pick(directCalls, directCalls/20))
	mask := 1<<16 - 1

	// TLB: a 32-page set always hits; pages never inserted always miss;
	// inserts cycle through 256 pages so each displaces an entry; the hit
	// ratio is that of uniform lookups over 256 pages with insert-on-miss.
	t := tlb.New(m.TLBEntries)
	for p := uint32(0); p < 32; p++ {
		t.Insert(1, p, 5000+p)
	}
	l.set("tlb.lookup_hit_ns", l.perCall("tlb.Lookup.hit", n, func(i int) { t.Lookup(1, uint32(i&31)) }), "ns")
	l.set("tlb.lookup_miss_ns", l.perCall("tlb.Lookup.miss", n, func(i int) { t.Lookup(2, uint32(i&255)) }), "ns")
	l.set("tlb.insert_ns", l.perCall("tlb.Insert", n, func(i int) { t.Insert(3, uint32(i&255), 6000+uint32(i&255)) }), "ns")
	t = tlb.New(m.TLBEntries)
	pages := make([]uint32, 1<<16)
	for i := range pages {
		pages[i] = uint32(rng.Intn(256))
	}
	for i := 0; i < n; i++ {
		p := pages[i&mask]
		if _, hit := t.Lookup(1, p); !hit {
			t.Insert(1, p, 5000+p)
		}
	}
	l.count("tlb.hit_ratio", ratio(float64(t.Hits), float64(t.Hits+t.Misses)), "ratio")

	// Data hierarchy: sequential sweeps over 32 KB (fits L1), 192 KB
	// (three times L1, inside L2: every access misses L1 and hits L2) and
	// 1 MB (four times L2: every access misses both).
	h := cache.NewDataHierarchy("bench", m)
	for _, c := range []struct {
		name      string
		footprint int
	}{{"cache.dm_l1hit_ns", 32 << 10}, {"cache.dm_l2hit_ns", 192 << 10}, {"cache.dm_miss_ns", 1 << 20}} {
		seq := sweepBlocks(c.footprint)
		for _, a := range seq { // warm
			h.Access(a, false)
		}
		l.set(c.name, l.perCall(c.name, n, func(i int) { h.Access(seq[i%len(seq)], false) }), "ns")
	}
	// Hit ratios of a uniform stream over 384 KB (6× L1, 1.5× L2).
	h = cache.NewDataHierarchy("bench", m)
	var res [3]int64
	for i, a := range blocks(rng, 384<<10) {
		res[h.Access(a, i&3 == 0).Result]++
	}
	l.count("cache.l1_hit_ratio", ratio(float64(res[cache.DataL1Hit]), float64(res[0]+res[1]+res[2])), "ratio")
	l.count("cache.l2_hit_ratio", ratio(float64(res[cache.DataL2Hit]), float64(res[1]+res[2])), "ratio")

	// I-cache: uniform block fetches over the kernel text image, which
	// kmem lays out as 13 I-cache-sized banks.
	ic := cache.New("bench.icache", m.ICacheSize, m.ICacheAssoc)
	text := blocks(rng, kmem.KernelTextSize)
	l.set("cache.icache_access_ns", l.perCall("cache.Access.icache", n, func(i int) { ic.Access(text[i&mask], false) }), "ns")

	// Bus, 4 CPUs, no recorder.
	sys := bus.NewSystem(m, nil)
	var now arch.Cycles
	small := sweepBlocks(32 << 10)
	big := sweepBlocks(1 << 20)
	for _, a := range small {
		sys.Read(0, a, now)
		sys.Fetch(0, a, now)
	}
	l.set("bus.read_hit_ns", l.perCall("bus.Read.hit", n, func(i int) { now++; sys.Read(0, small[i%len(small)], now) }), "ns")
	l.set("bus.fetch_hit_ns", l.perCall("bus.Fetch.hit", n, func(i int) { now++; sys.Fetch(0, small[i%len(small)], now) }), "ns")
	for _, a := range small {
		sys.Write(0, a, now)
	}
	l.set("bus.write_hit_ns", l.perCall("bus.Write.hit", n, func(i int) { now++; sys.Write(0, small[i%len(small)], now) }), "ns")
	sys.SetRecorder(&monitor.Discard{})
	l.set("bus.write_hit_rec_ns", l.perCall("bus.Write.hit.rec", n, func(i int) { now++; sys.Write(0, small[i%len(small)], now) }), "ns")
	sys.SetRecorder(nil)
	l.set("bus.read_miss_ns", l.perCall("bus.Read.miss", n/4, func(i int) { now++; sys.Read(1, big[i%len(big)], now) }), "ns")
	// Two CPUs ping-pong one block: every write finds the other's copy
	// through the presence filter, invalidates it and refills.
	pp := directBase + 8<<20
	l.set("bus.write_shared_ns", l.perCall("bus.Write.shared", n/4, func(i int) { now++; sys.Write(arch.CPUID(2+i&1), pp, now) }), "ns")
	// Transactions per thousand references of a mixed stream: four CPUs,
	// one write in four, uniform over 512 KB (twice L2).
	sys = bus.NewSystem(m, nil)
	mixed := blocks(rng, 512<<10)
	for i, a := range mixed {
		if c := arch.CPUID(i & 3); i&12 == 0 {
			sys.Write(c, a, arch.Cycles(i))
		} else {
			sys.Read(c, a, arch.Cycles(i))
		}
	}
	l.count("bus.txns_per_kref", 1000*ratio(float64(sys.Stats.Transactions()), float64(len(mixed))), "count")
	// 16 CPUs take turns missing over 1 MB, so every fill snoops copies
	// the other fifteen left behind.
	m16 := m
	m16.NCPU = 16
	sys16 := bus.NewSystem(m16, nil)
	l.set("bus.read_miss_16cpu_ns", l.perCall("bus.Read.miss.16cpu", n/4, func(i int) {
		now++
		sys16.Read(arch.CPUID(i&15), big[(i>>4)%len(big)], now)
	}), "ns")
}

// postprocess times the layers that run after (or beside) the simulation:
// classifier replay, lock replay, cache sweeps and report rendering.
func (l *layerRun) postprocess() {
	s0 := simSeed(l.env.seed, 0)
	win := arch.Cycles(l.env.size.window(4_000_000))

	// A buffered Pmake run materializes the transaction trace and the
	// lock logs that the replays below consume.
	buf := core.Run(core.Config{Workload: workload.Pmake, Seed: s0, Window: win, Buffered: true})
	txns := buf.Sim.Mon.Trace()
	cl := trace.NewClassifier(buf.Sim.K.T, buf.Sim.K.L, buf.Cfg.NCPU)
	d := l.tr.Do("trace.Feed", func() {
		for _, t := range txns {
			cl.Feed(t)
		}
	})
	l.check(cl.Finish().Total == buf.Trace.Total, "replaying the buffered trace gives a different miss total")
	l.set("trace.feed_ns", float64(d.Nanoseconds())/float64(len(txns)), "ns")
	l.count("trace.replay_txns", float64(len(txns)), "count")

	log := buf.Sim.K.Locks.Get(klock.Runqlk).Log()
	const replays = 200
	var busOps int64 // keeps the pure replay from being optimised away
	d = l.tr.Do("klock.ReplayCached", func() {
		for i := 0; i < replays; i++ {
			busOps += klock.ReplayCached(log)
		}
	})
	l.check(busOps > 0, "replaying the %d-event Runqlk log produced no bus accesses", len(log))
	l.set("klock.replay_ms", ms(d)/replays, "ms")

	// The three-workload set with both resim streams collected.
	set := report.RunSetParallel(core.Config{Seed: s0, Window: win, CollectIResim: true, CollectDResim: true},
		runner.Options{Parallelism: 1})
	pm := set.Pmake
	l.set("cachesweep.figure6_ms", ms(l.tr.Do("cachesweep.Figure6", func() {
		cachesweep.Figure6(pm.Trace.IResim, pm.Cfg.NCPU)
	})), "ms")
	l.set("cachesweep.dsweep_ms", ms(l.tr.Do("cachesweep.DSweep", func() {
		cachesweep.DSweep(pm.Trace.DResim, pm.Cfg.NCPU, core.DefaultDSweepConfigs())
	})), "ms")
	var all string
	l.set("report.all_ms", ms(l.tr.Do("report.All", func() {
		all = report.All(set) + report.Figure6(set)
	})), "ms")
	pts, cells, err := parseTable1(all)
	l.check(err == nil && cells == 21, "Table 1 of report.All: %d cells, %v", cells, err)
	l.count("report.paper_err_pts", pts, "points")
}

// runnerLayer measures what the worker pool adds to and saves on a batch.
func (l *layerRun) runnerLayer() {
	var cfgs []core.Config
	for _, n := range fig11CPUs {
		cfgs = append(cfgs, core.Config{Workload: workload.Multpgm, NCPU: n, Seed: simSeed(l.env.seed, 0),
			Window: arch.Cycles(l.env.size.pick(1_000_000, 250_000)), NoTrace: true})
	}
	direct := l.tr.Do("runner.direct", func() {
		for _, c := range cfgs {
			core.Run(c)
		}
	})
	serial := l.tr.Do("runner.Experiments.p1", func() { runner.Experiments(cfgs, runner.Options{Parallelism: 1}) })
	batch := l.tr.Do("runner.Experiments.pN", func() { runner.Experiments(cfgs, runner.Options{Parallelism: l.env.nproc}) })
	l.set("runner.batch_speedup_x", direct.Seconds()/batch.Seconds(), "x")
	l.set("runner.overhead_ms", ms(serial-direct), "ms")
}

// serviceLayer drives the service layers in process: hashing, the result
// store alone, Server.Submit without HTTP, and the same hit over HTTP on
// a loopback listener — the difference is what HTTP + JSON cost.
func (l *layerRun) serviceLayer() error {
	n := int(l.env.size.pick(20000, 1000))
	win := l.env.size.pick(1_000_000, 250_000)
	cfg := core.Config{Workload: workload.Pmake, Seed: simSeed(l.env.seed, 0), Window: arch.Cycles(win)}
	l.set("core.hash_us", l.perCall("core.Config.Hash", n, func(int) { cfg.Hash() })/1e3, "us")

	st := service.NewStore(8, 4096)
	hash := cfg.Hash()
	e, _ := st.Begin(hash)
	st.Complete(hash, e, service.Outcome{Report: "r"})
	l.set("service.store_hit_ns", l.perCall("service.Store.hit", 10*n, func(int) {
		st.Begin(hash)
		st.RecordLatency(hash, time.Microsecond)
	}), "ns")
	// Distinct keys into a 64-entry store: every Begin leads, every
	// Complete past the first few evicts.
	st = service.NewStore(8, 64)
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("%08x%056x", uint32(i)*2654435761, i)
	}
	l.set("service.store_miss_ns", l.perCall("service.Store.miss", n, func(i int) {
		e, _ := st.Begin(keys[i])
		st.Complete(keys[i], e, service.Outcome{Report: "r"})
	}), "ns")
	l.check(st.Evictions() > 0, "store miss loop evicted nothing")

	srv := service.New(service.Options{Workers: min(2, l.env.nproc), CacheEntries: 16, DrainFinish: true})
	defer srv.Drain()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = httpSrv.Serve(ln)
	}()
	defer func() {
		_ = httpSrv.Close()
		<-served
	}()

	req := service.Request{Workload: "Pmake", Seed: cfg.Seed, Window: win}
	job, err := srv.Submit(req)
	if err != nil {
		return err
	}
	<-job.Done()
	want := report.Single(core.Run(cfg))
	l.check(job.Snapshot().Report == want, "in-process service report differs from report.Single(core.Run(cfg))")
	l.set("service.submit_hit_us", l.perCall("service.Server.Submit.hit", n, func(int) {
		if j, err := srv.Submit(req); err == nil {
			<-j.Done()
		}
	})/1e3, "us")

	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}}
	defer hc.CloseIdleConnections()
	cl := &service.Client{Base: "http://" + ln.Addr().String(), HTTP: hc}
	lat := make([]float64, n/4)
	bad := 0
	l.tr.Do("service.http.hit", func() {
		for i := range lat {
			t0 := time.Now()
			st, err := cl.Submit(context.Background(), req)
			lat[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
			if err != nil || st.Report != want {
				bad++
			}
		}
	})
	l.check(bad == 0, "%d of %d HTTP hits failed or returned a different report", bad, len(lat))
	l.set("service.http_hit_p50_us", median(lat), "us")
	l.set("service.http_overhead_us", median(lat)-l.m["service.submit_hit_us"].Value, "us")

	// Distinct configs through the same server: more than its 16-entry
	// store holds, so the daemon-side counters below have evictions.
	misses := int(l.env.size.pick(24, 12))
	l.tr.Do("service.http.miss", func() {
		for i := 0; i < misses; i++ {
			r := service.Request{Workload: svcKinds[i%3], Seed: l.env.seed*1_000_000 + int64(i) + 1, Window: win}
			if st, err := cl.Submit(context.Background(), r); err != nil || st.State != service.StateDone {
				bad++
			}
		}
	})
	l.check(bad == 0, "%d distinct submissions failed", bad)
	met := srv.Metrics()
	g := met.Global
	l.set("service.cache_hit_ratio", ratio(float64(g.Hits), float64(g.Hits+g.Misses)), "ratio")
	l.set("service.evictions", float64(g.Evictions), "count")
	l.set("service.sheds", float64(srv.Stats().Shed), "count")
	l.set("service.workers_live", float64(met.Workers.Live), "count")
	l.set("service.server_p99_ms", g.P99MS, "ms")
	return nil
}

// runLayers is the whole traced run of one workload.
func runLayers(name string, env *runEnv) (*layerRun, error) {
	l := &layerRun{tr: newTracer(), env: env, m: map[string]Metric{}, counted: map[string]float64{}}
	cfgs, err := chainConfigs(name, env)
	if err != nil {
		return nil, err
	}
	l.chain(cfgs)
	l.speculation()
	l.sampling()
	l.directDrive()
	l.postprocess()
	l.runnerLayer()
	if err := l.serviceLayer(); err != nil {
		return nil, err
	}
	if g := env.goldenFor(); g != nil {
		for k, want := range g.Layers {
			if got, ok := l.counted[k]; ok && got != want {
				l.fails = append(l.fails, fmt.Sprintf("%s = %v, golden says %v", k, got, want))
			}
		}
	}
	return l, nil
}
