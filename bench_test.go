// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation. Each benchmark regenerates its experiment end to end —
// machine, kernel, workload, monitor, postprocessing — and reports the
// headline quantities as benchmark metrics next to the paper's published
// value (suffix _paper), so `go test -bench=.` doubles as the
// reproduction run.
package repro

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/klock"
	"repro/internal/kmem"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/trace"
	"repro/internal/workload"
)

// runPair fans a pair of independent configurations (an ablation and its
// baseline) across the worker pool.
func runPair(b *testing.B, a, c core.Config) (*core.Characterization, *core.Characterization) {
	b.Helper()
	var res []runner.Result
	for i := 0; i < b.N; i++ {
		res, _ = runner.Experiments([]core.Config{a, c}, runner.Options{})
	}
	return res[0].Ch, res[1].Ch
}

// benchWindow keeps one pipeline iteration around 300 ms of wall time.
const benchWindow = 4_000_000

func run(b *testing.B, kind workload.Kind, iresim bool) *core.Characterization {
	b.Helper()
	var ch *core.Characterization
	for i := 0; i < b.N; i++ {
		ch = core.Run(core.Config{
			Workload:      kind,
			Window:        benchWindow,
			Seed:          1,
			CollectIResim: iresim,
		})
	}
	return ch
}

// ---- Table 1: workload characteristics ----

func benchTable1(b *testing.B, kind workload.Kind, paper [4]float64) {
	ch := run(b, kind, false)
	_, sys, idle := ch.TimeSplit()
	all, osOnly, osInd := ch.StallPct()
	b.ReportMetric(sys, "sys%")
	b.ReportMetric(idle, "idle%")
	b.ReportMetric(all, "stall_all%")
	b.ReportMetric(osOnly, "stall_os%")
	b.ReportMetric(osInd, "stall_os_ind%")
	b.ReportMetric(paper[2], "stall_os%_paper")
	b.ReportMetric(paper[3], "stall_os_ind%_paper")
}

func BenchmarkTable1_Pmake(b *testing.B) {
	benchTable1(b, workload.Pmake, [4]float64{31.1, 19.5, 21.0, 25.8})
}
func BenchmarkTable1_Multpgm(b *testing.B) {
	benchTable1(b, workload.Multpgm, [4]float64{46.7, 0.1, 21.5, 24.9})
}
func BenchmarkTable1_Oracle(b *testing.B) {
	benchTable1(b, workload.Oracle, [4]float64{29.4, 8.2, 16.6, 26.8})
}

// ---- Figure 1: the repeating execution pattern ----

func benchFigure1(b *testing.B, kind workload.Kind, paperMS float64) {
	ch := run(b, kind, false)
	st := ch.Invocations()
	b.ReportMetric(st.OSAvgCycles, "os_cycles/inv")
	b.ReportMetric(st.OSAvgIMiss, "os_imiss/inv")
	b.ReportMetric(st.OSAvgDMiss, "os_dmiss/inv")
	b.ReportMetric(st.MsBetweenInvocations, "ms_between_inv")
	b.ReportMetric(paperMS, "ms_between_inv_paper")
	b.ReportMetric(st.UTLBMissPerFault, "utlb_miss/fault")
}

func BenchmarkFigure1_Pmake(b *testing.B)   { benchFigure1(b, workload.Pmake, 1.9) }
func BenchmarkFigure1_Multpgm(b *testing.B) { benchFigure1(b, workload.Multpgm, 0.4) }
func BenchmarkFigure1_Oracle(b *testing.B)  { benchFigure1(b, workload.Oracle, 0.7) }

// ---- Figure 2: OS operation mix in Multpgm ----

func BenchmarkFigure2_Multpgm(b *testing.B) {
	ch := run(b, workload.Multpgm, false)
	var tot int64
	for op := kernel.OpKind(0); op < kernel.NumOps; op++ {
		if op != kernel.OpCheapTLB {
			tot += ch.Ops.OpCounts[op]
		}
	}
	b.ReportMetric(metrics.PctOf(ch.Ops.OpCounts[kernel.OpSginap], tot), "sginap%")
	b.ReportMetric(50, "sginap%_paper")
	b.ReportMetric(metrics.PctOf(ch.Ops.OpCounts[kernel.OpIOSyscall], tot), "io%")
	b.ReportMetric(20, "io%_paper")
	b.ReportMetric(metrics.PctOf(ch.Ops.OpCounts[kernel.OpExpensiveTLB], tot), "tlb%")
	b.ReportMetric(20, "tlb%_paper")
}

// ---- Figure 3: per-invocation distributions (Pmake) ----

func BenchmarkFigure3_Pmake(b *testing.B) {
	ch := run(b, workload.Pmake, false)
	var n, small int64
	for _, segs := range ch.Trace.Segments {
		for _, s := range segs {
			if s.Kind == trace.SegOS {
				n++
				if s.IMiss < 10 {
					small++
				}
			}
		}
	}
	b.ReportMetric(float64(n), "os_segments")
	b.ReportMetric(metrics.PctOf(small, n), "segs_under_10_imiss%")
}

// ---- Figures 4 & 7: miss classification ----

func benchClassification(b *testing.B, kind workload.Kind) {
	ch := run(b, kind, false)
	os := ch.Trace.OSMissTotal
	osI := ch.Trace.ClassSum(1, 1)
	b.ReportMetric(metrics.PctOf(osI, os), "imiss%_of_os")
	b.ReportMetric(metrics.PctOf(ch.Trace.Counts[1][1][trace.DispOS], os), "i_dispos%")
	b.ReportMetric(metrics.PctOf(ch.Trace.Counts[1][1][trace.DispApp], os), "i_dispap%")
	b.ReportMetric(metrics.PctOf(ch.Trace.Counts[1][0][trace.Sharing], os), "d_sharing%")
	b.ReportMetric(metrics.PctOf(ch.Trace.DispossameI, ch.Trace.Counts[1][1][trace.DispOS]),
		"dispossame%_of_dispos")
}

func BenchmarkFigure4_Pmake(b *testing.B)   { benchClassification(b, workload.Pmake) }
func BenchmarkFigure4_Multpgm(b *testing.B) { benchClassification(b, workload.Multpgm) }
func BenchmarkFigure4_Oracle(b *testing.B)  { benchClassification(b, workload.Oracle) }
func BenchmarkFigure7_Pmake(b *testing.B)   { benchClassification(b, workload.Pmake) }
func BenchmarkFigure7_Multpgm(b *testing.B) { benchClassification(b, workload.Multpgm) }
func BenchmarkFigure7_Oracle(b *testing.B)  { benchClassification(b, workload.Oracle) }

// ---- Figure 5: Dispos concentration (Pmake) ----

func BenchmarkFigure5_Pmake(b *testing.B) {
	ch := run(b, workload.Pmake, false)
	var total, top int64
	var counts []int64
	for _, n := range ch.Trace.DisposIByRoutine {
		counts = append(counts, n)
		total += n
	}
	// Share of the top-10 routines: the paper's "thin spikes".
	for i := 0; i < 10 && len(counts) > 0; i++ {
		maxIdx := 0
		for j, c := range counts {
			if c > counts[maxIdx] {
				maxIdx = j
			}
		}
		top += counts[maxIdx]
		counts = append(counts[:maxIdx], counts[maxIdx+1:]...)
	}
	b.ReportMetric(metrics.PctOf(top, total), "top10_routines_share%")
}

// ---- Figure 6: I-cache size/associativity sweep ----

func benchFigure6(b *testing.B, kind workload.Kind) {
	ch := run(b, kind, true)
	res := ch.Figure6()
	for _, p := range res.DirectMapped {
		b.ReportMetric(p.Relative, "dm_"+sizeName(p.Size))
	}
	for _, p := range res.TwoWay {
		b.ReportMetric(p.Relative, "w2_"+sizeName(p.Size))
	}
	b.ReportMetric(res.InvalBoundRel, "inval_bound")
}

func sizeName(sz int) string {
	switch sz {
	case 64 << 10:
		return "64k"
	case 128 << 10:
		return "128k"
	case 256 << 10:
		return "256k"
	case 512 << 10:
		return "512k"
	default:
		return "1m"
	}
}

func BenchmarkFigure6_Pmake(b *testing.B)   { benchFigure6(b, workload.Pmake) }
func BenchmarkFigure6_Multpgm(b *testing.B) { benchFigure6(b, workload.Multpgm) }
func BenchmarkFigure6_Oracle(b *testing.B)  { benchFigure6(b, workload.Oracle) }

// ---- Figure 8: sharing misses by structure ----

func BenchmarkFigure8_All(b *testing.B) {
	ch := run(b, workload.Multpgm, false)
	var tot int64
	for _, v := range ch.Trace.StructSharing {
		tot += v
	}
	perProc := ch.Trace.StructSharing[kmem.AttrKernelStack] +
		ch.Trace.StructSharing[kmem.AttrPCB] + ch.Trace.StructSharing[kmem.AttrEframe] +
		ch.Trace.StructSharing[kmem.AttrRestUser] +
		ch.Trace.StructSharing[kmem.AttrProcTable]
	b.ReportMetric(metrics.PctOf(perProc, tot), "per_process_structs%")
	b.ReportMetric(52.5, "per_process_structs%_paper(40-65)")
}

// ---- Tables 4 & 5: migration misses ----

func benchMigration(b *testing.B, kind workload.Kind, paperTotal, paperStall float64) {
	ch := run(b, kind, false)
	osD := ch.Trace.ClassSum(1, 0)
	b.ReportMetric(metrics.PctOf(ch.Trace.MigrationTotal, osD), "migration%_of_osD")
	b.ReportMetric(paperTotal, "migration%_paper")
	b.ReportMetric(ch.MigrationStallPct(), "migration_stall%")
	b.ReportMetric(paperStall, "migration_stall%_paper")
	b.ReportMetric(metrics.PctOf(
		ch.Trace.MigrationByGroup[kernel.GroupRunQueue]+
			ch.Trace.MigrationByGroup[kernel.GroupLowLevel]+
			ch.Trace.MigrationByGroup[kernel.GroupRWSetup],
		ch.Trace.MigrationTotal), "table5_total%")
}

func BenchmarkTable4_Pmake(b *testing.B)   { benchMigration(b, workload.Pmake, 9.9, 1.0) }
func BenchmarkTable4_Multpgm(b *testing.B) { benchMigration(b, workload.Multpgm, 33.8, 4.2) }
func BenchmarkTable4_Oracle(b *testing.B)  { benchMigration(b, workload.Oracle, 44.1, 2.6) }
func BenchmarkTable5_Pmake(b *testing.B)   { benchMigration(b, workload.Pmake, 9.9, 1.0) }
func BenchmarkTable5_Multpgm(b *testing.B) { benchMigration(b, workload.Multpgm, 33.8, 4.2) }
func BenchmarkTable5_Oracle(b *testing.B)  { benchMigration(b, workload.Oracle, 44.1, 2.6) }

// ---- Tables 6 & 7: block operations ----

func benchBlockOps(b *testing.B, kind workload.Kind, paperTotal, paperStall float64) {
	ch := run(b, kind, false)
	osD := ch.Trace.ClassSum(1, 0)
	var n int64
	for _, v := range ch.Trace.BlockOpDMisses {
		n += v
	}
	b.ReportMetric(metrics.PctOf(n, osD), "blockops%_of_osD")
	b.ReportMetric(paperTotal, "blockops%_paper")
	b.ReportMetric(ch.BlockOpStallPct(), "blockop_stall%")
	b.ReportMetric(paperStall, "blockop_stall%_paper")
}

func BenchmarkTable6_Pmake(b *testing.B)   { benchBlockOps(b, workload.Pmake, 61.0, 6.2) }
func BenchmarkTable6_Multpgm(b *testing.B) { benchBlockOps(b, workload.Multpgm, 38.0, 4.7) }
func BenchmarkTable6_Oracle(b *testing.B)  { benchBlockOps(b, workload.Oracle, 10.6, 0.6) }

func BenchmarkTable7_Pmake(b *testing.B) {
	ch := run(b, workload.Pmake, false)
	ops := ch.Sim.K.BlockOpsSince(ch.Sim.BaseCounters)
	var fullCopies, copies, fullClears, clears int64
	for _, op := range ops {
		switch op.Kind {
		case kernel.BlockCopy:
			copies++
			if op.Bytes == arch.PageSize {
				fullCopies++
			}
		case kernel.BlockClear:
			clears++
			if op.Bytes == arch.PageSize {
				fullClears++
			}
		}
	}
	b.ReportMetric(metrics.PctOf(fullCopies, copies), "copy_fullpage%")
	b.ReportMetric(5, "copy_fullpage%_paper")
	b.ReportMetric(metrics.PctOf(fullClears, clears), "clear_fullpage%")
	b.ReportMetric(70, "clear_fullpage%_paper")
}

// ---- Figure 9: misses by high-level operation ----

func benchFigure9(b *testing.B, kind workload.Kind) {
	ch := run(b, kind, false)
	var dTot, iTot int64
	for op := kernel.OpKind(0); op < kernel.NumOps; op++ {
		dTot += ch.Trace.OpMisses[op][0]
		iTot += ch.Trace.OpMisses[op][1]
	}
	b.ReportMetric(metrics.PctOf(ch.Trace.OpMisses[kernel.OpIOSyscall][1], iTot), "io_i%")
	b.ReportMetric(metrics.PctOf(ch.Trace.OpMisses[kernel.OpIOSyscall][0], dTot), "io_d%")
	b.ReportMetric(metrics.PctOf(ch.Trace.OpMisses[kernel.OpExpensiveTLB][0], dTot), "exptlb_d%")
	b.ReportMetric(metrics.PctOf(ch.Trace.OpMisses[kernel.OpInterrupt][1], iTot), "intr_i%")
}

func BenchmarkFigure9_Pmake(b *testing.B)   { benchFigure9(b, workload.Pmake) }
func BenchmarkFigure9_Multpgm(b *testing.B) { benchFigure9(b, workload.Multpgm) }
func BenchmarkFigure9_Oracle(b *testing.B)  { benchFigure9(b, workload.Oracle) }

// ---- Table 9: consolidated stall components ----

func BenchmarkTable9_All(b *testing.B) {
	var osTot, instr, mig, blk float64
	kinds := []workload.Kind{workload.Pmake, workload.Multpgm, workload.Oracle}
	cfgs := make([]core.Config, len(kinds))
	for i, kind := range kinds {
		cfgs[i] = core.Config{Workload: kind, Window: benchWindow, Seed: 1}
	}
	for i := 0; i < b.N; i++ {
		osTot, instr, mig, blk = 0, 0, 0, 0
		res, _ := runner.Experiments(cfgs, runner.Options{})
		for _, r := range res {
			ch := r.Ch
			_, o, _ := ch.StallPct()
			osTot += o / 3
			instr += ch.OSIMissStallPct() / 3
			mig += ch.MigrationStallPct() / 3
			blk += ch.BlockOpStallPct() / 3
		}
	}
	b.ReportMetric(osTot, "avg_os_stall%")
	b.ReportMetric(19.7, "avg_os_stall%_paper")
	b.ReportMetric(instr, "avg_instr_stall%")
	b.ReportMetric(10.2, "avg_instr_stall%_paper")
	b.ReportMetric(mig, "avg_migration_stall%")
	b.ReportMetric(2.6, "avg_migration_stall%_paper")
	b.ReportMetric(blk, "avg_blockop_stall%")
	b.ReportMetric(3.8, "avg_blockop_stall%_paper")
}

// ---- Figure 10: OS-induced application misses ----

func benchFigure10(b *testing.B, kind workload.Kind) {
	ch := run(b, kind, false)
	appTot := ch.Trace.ClassSum(0, 0) + ch.Trace.ClassSum(0, 1)
	apDisp := ch.Trace.Counts[0][0][trace.DispOS] + ch.Trace.Counts[0][1][trace.DispOS]
	b.ReportMetric(metrics.PctOf(apDisp, appTot), "ap_dispos%")
	b.ReportMetric(24.5, "ap_dispos%_paper(22-27)")
}

func BenchmarkFigure10_Pmake(b *testing.B)   { benchFigure10(b, workload.Pmake) }
func BenchmarkFigure10_Multpgm(b *testing.B) { benchFigure10(b, workload.Multpgm) }
func BenchmarkFigure10_Oracle(b *testing.B)  { benchFigure10(b, workload.Oracle) }

// ---- Table 10: synchronization stall ----

func benchTable10(b *testing.B, kind workload.Kind, paperCur, paperRMW float64) {
	ch := run(b, kind, false)
	cur, rmw := ch.SyncStallPct()
	b.ReportMetric(cur, "sync_stall%")
	b.ReportMetric(paperCur, "sync_stall%_paper")
	b.ReportMetric(rmw, "rmw_stall%")
	b.ReportMetric(paperRMW, "rmw_stall%_paper")
}

func BenchmarkTable10_Pmake(b *testing.B)   { benchTable10(b, workload.Pmake, 4.2, 0.7) }
func BenchmarkTable10_Multpgm(b *testing.B) { benchTable10(b, workload.Multpgm, 4.6, 0.8) }
func BenchmarkTable10_Oracle(b *testing.B)  { benchTable10(b, workload.Oracle, 4.7, 1.1) }

// ---- Table 12: per-lock characterization (Pmake) ----

func BenchmarkTable12_Pmake(b *testing.B) {
	ch := run(b, workload.Pmake, false)
	mem := ch.Sim.K.Locks.FamilyStats(klock.Memlock)
	rq := ch.Sim.K.Locks.FamilyStats(klock.Runqlk)
	b.ReportMetric(mem.CyclesBetweenAcq/1000, "memlock_kcyc_between")
	b.ReportMetric(9.5, "memlock_kcyc_paper")
	b.ReportMetric(rq.PctFailed, "runqlk_failed%")
	b.ReportMetric(13.7, "runqlk_failed%_paper")
	b.ReportMetric(mem.PctCachedVsUncached, "memlock_cached/uncached%")
	b.ReportMetric(12, "memlock_cached/uncached%_paper")
}

// ---- Table 11: which locks are actually acquired ----

// BenchmarkTable11_Pmake checks that the paper's ten most-acquired lock
// families all see traffic in a Pmake run, with Memlock and Runqlk at
// the top, and reports how many of the ten are live.
func BenchmarkTable11_Pmake(b *testing.B) {
	ch := run(b, workload.Pmake, false)
	table11 := []string{klock.Memlock, klock.Runqlk, klock.Ifree, klock.Dfbmaplk,
		klock.Bfreelock, klock.Calock, klock.ShrX, klock.StreamsX, klock.InoX,
		klock.Semlock}
	live := 0
	for _, n := range table11 {
		if ch.Sim.K.Locks.FamilyStats(n).Acquires > 0 {
			live++
		}
	}
	b.ReportMetric(float64(live), "live_lock_families")
	b.ReportMetric(float64(len(table11)), "table11_families")
	mem := ch.Sim.K.Locks.FamilyStats(klock.Memlock)
	rq := ch.Sim.K.Locks.FamilyStats(klock.Runqlk)
	b.ReportMetric(float64(mem.Acquires), "memlock_acquires")
	b.ReportMetric(float64(rq.Acquires), "runqlk_acquires")
}

// ---- Figure 11: lock contention vs CPU count ----

func BenchmarkFigure11_Multpgm(b *testing.B) {
	var pts []report.Figure11Point
	for i := 0; i < b.N; i++ {
		pts = report.RunFigure11(core.Config{Window: 3_000_000, Seed: 1}, []int{2, 4, 8})
	}
	for _, p := range pts {
		if p.Lock == klock.Runqlk {
			b.ReportMetric(p.FailedPerMS, sizeCPU(p.NCPU))
		}
	}
}

func sizeCPU(n int) string {
	switch n {
	case 2:
		return "runqlk_failed/ms_2cpu"
	case 4:
		return "runqlk_failed/ms_4cpu"
	default:
		return "runqlk_failed/ms_8cpu"
	}
}

// ---- Ablation: affinity scheduling ----

func BenchmarkAblationAffinity_Multpgm(b *testing.B) {
	base, aff := runPair(b,
		core.Config{Workload: workload.Multpgm, Window: benchWindow, Seed: 1},
		core.Config{Workload: workload.Multpgm, Window: benchWindow, Seed: 1, Affinity: true})
	b.ReportMetric(float64(base.Trace.MigrationTotal), "migration_misses_default")
	b.ReportMetric(float64(aff.Trace.MigrationTotal), "migration_misses_affinity")
	b.ReportMetric(base.MigrationStallPct(), "migration_stall%_default")
	b.ReportMetric(aff.MigrationStallPct(), "migration_stall%_affinity")
}

// ---- The parallel experiment engine itself ----

// BenchmarkRunnerRunSet fans the standard three-workload set across the
// worker pool and reports the measured pool speedup (serial wall / batch
// wall) and per-run simulation throughput.
func BenchmarkRunnerRunSet(b *testing.B) {
	cfgs := []core.Config{
		{Workload: workload.Pmake, Window: benchWindow, Seed: 1},
		{Workload: workload.Multpgm, Window: benchWindow, Seed: 1},
		{Workload: workload.Oracle, Window: benchWindow, Seed: 1},
	}
	var batch metrics.BatchStats
	for i := 0; i < b.N; i++ {
		_, batch = runner.Experiments(cfgs, runner.Options{})
	}
	b.ReportMetric(batch.Speedup(), "pool_speedup_x")
	b.ReportMetric(float64(batch.Parallelism), "workers")
	b.ReportMetric(batch.Runs[0].MCyclesPerSec, "mcycles/s_run0")
}

// ---- Microbenchmarks of the substrates ----

func BenchmarkClassifierThroughput(b *testing.B) {
	// Build one trace, then measure pure classification speed.
	ch := core.Run(core.Config{Workload: workload.Pmake, Window: benchWindow, Seed: 1,
		Buffered: true})
	txns := ch.Sim.Mon.Trace()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trace.Classify(txns, ch.Sim.K.T, ch.Sim.K.L, 4)
	}
	b.ReportMetric(float64(len(txns)), "txns/op")
}

// ---- Section 6: cluster what-if study ----

func BenchmarkSection6_Clusters(b *testing.B) {
	var results []cluster.Result
	for i := 0; i < b.N; i++ {
		ch := core.Run(core.Config{Workload: workload.Multpgm, NCPU: 8,
			Window: benchWindow, Seed: 1, Buffered: true})
		results = cluster.Study(ch.Sim.Mon.Trace(), ch.Sim.K.L, 8, 2)
	}
	b.ReportMetric(100*results[0].RemoteShare(), "baseline_remote%")
	b.ReportMetric(100*results[1].RemoteShare(), "replicated_text_remote%")
	b.ReportMetric(100*results[3].RemoteShare(), "all_opts_remote%")
	b.ReportMetric(float64(results[3].StallCycles)/float64(results[0].StallCycles),
		"all_opts_stall_ratio")
}

// ---- Ablation: §4.2.1 conflict-aware kernel text layout ----

func BenchmarkAblationTextLayout_Pmake(b *testing.B) {
	std, opt := runPair(b,
		core.Config{Workload: workload.Pmake, Window: benchWindow, Seed: 1},
		core.Config{Workload: workload.Pmake, Window: benchWindow, Seed: 1, OptimizedText: true})
	dispos := func(ch *core.Characterization) float64 {
		return metrics.PctOf(ch.Trace.Counts[1][1][trace.DispOS], ch.Trace.OSMissTotal)
	}
	b.ReportMetric(dispos(std), "i_dispos%_default")
	b.ReportMetric(dispos(opt), "i_dispos%_optimized")
	b.ReportMetric(std.OSIMissStallPct(), "i_stall%_default")
	b.ReportMetric(opt.OSIMissStallPct(), "i_stall%_optimized")
}

// ---- §4.2.2: larger data caches cannot remove OS data misses ----

func BenchmarkDCacheSweep_Multpgm(b *testing.B) {
	var base, big float64
	var sharingKept float64
	for i := 0; i < b.N; i++ {
		ch := core.Run(core.Config{Workload: workload.Multpgm, Window: benchWindow,
			Seed: 1, CollectDResim: true})
		res := ch.DCacheSweep(nil)
		base = float64(res[0].OSMisses)
		big = res[len(res)-1].Relative
		if res[0].OSSharing > 0 {
			sharingKept = float64(res[len(res)-1].OSSharing) / float64(res[0].OSSharing)
		}
	}
	b.ReportMetric(base, "osD_misses_256k")
	b.ReportMetric(big, "relative_4m_2way")
	b.ReportMetric(sharingKept, "sharing_survival_ratio")
}

// ---- Ablation: §4.2.2 cache-bypassing block operations ----

func BenchmarkAblationBlockOpBypass_Pmake(b *testing.B) {
	std, byp := runPair(b,
		core.Config{Workload: workload.Pmake, Window: benchWindow, Seed: 1},
		core.Config{Workload: workload.Pmake, Window: benchWindow, Seed: 1, BlockOpBypass: true})
	apDisp := func(ch *core.Characterization) float64 {
		appTot := ch.Trace.ClassSum(0, 0) + ch.Trace.ClassSum(0, 1)
		return metrics.PctOf(ch.Trace.Counts[0][0][trace.DispOS]+
			ch.Trace.Counts[0][1][trace.DispOS], appTot)
	}
	_, osStd, indStd := std.StallPct()
	_, osByp, indByp := byp.StallPct()
	b.ReportMetric(apDisp(std), "ap_dispos%_default")
	b.ReportMetric(apDisp(byp), "ap_dispos%_bypass")
	b.ReportMetric(osStd, "os_stall%_default")
	b.ReportMetric(osByp, "os_stall%_bypass")
	b.ReportMetric(indStd-osStd, "induced_stall%_default")
	b.ReportMetric(indByp-osByp, "induced_stall%_bypass")
	// Under bypass, the transfers appear as the paper's Uncached class.
	b.ReportMetric(metrics.PctOf(byp.Trace.Counts[1][0][trace.Uncached],
		byp.Trace.OSMissTotal), "uncached%_of_os_bypass")
}

// ---- Ablation: write-invalidate vs write-update coherence ----

func BenchmarkAblationCoherence_Multpgm(b *testing.B) {
	inv, upd := runPair(b,
		core.Config{Workload: workload.Multpgm, Window: benchWindow, Seed: 1},
		core.Config{Workload: workload.Multpgm, Window: benchWindow, Seed: 1, UpdateProtocol: true})
	sharing := func(ch *core.Characterization) float64 {
		return float64(ch.Trace.Counts[1][0][trace.Sharing] +
			ch.Trace.Counts[0][0][trace.Sharing])
	}
	_, osInv, _ := inv.StallPct()
	_, osUpd, _ := upd.StallPct()
	allInv, _, _ := inv.StallPct()
	allUpd, _, _ := upd.StallPct()
	b.ReportMetric(sharing(inv), "sharing_misses_invalidate")
	b.ReportMetric(sharing(upd), "sharing_misses_update")
	b.ReportMetric(float64(inv.Sim.Bus.Stats.Upgrades), "upgrades_invalidate")
	b.ReportMetric(float64(upd.Sim.Bus.Stats.Updates), "updates_update")
	b.ReportMetric(allInv, "stall_all%_invalidate")
	b.ReportMetric(allUpd, "stall_all%_update")
	b.ReportMetric(osInv, "stall_os%_invalidate")
	b.ReportMetric(osUpd, "stall_os%_update")
}
