// Package report renders every table and figure of the paper's evaluation
// from Characterization runs, printing the paper's published values beside
// the reproduced ones wherever the paper gives numbers.
package report

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/arch"
	"repro/internal/cachesweep"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/klock"
	"repro/internal/kmem"
	"repro/internal/metrics"
	"repro/internal/runner"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Set bundles one run per workload (the standard experiment set).
type Set struct {
	Pmake   *core.Characterization
	Multpgm *core.Characterization
	Oracle  *core.Characterization
	// Stats is the timing/allocation record of the batch that built the
	// set (zero-valued for hand-assembled sets).
	Stats metrics.BatchStats
	// Parallelism is carried into the re-simulation fan-outs (Figure 6);
	// <= 0 means GOMAXPROCS.
	Parallelism int
}

// RunSet executes all three workloads with the given base config, fanning
// them across the runner's default worker pool. Output is byte-identical
// to a serial execution (each run is seeded independently).
func RunSet(cfg core.Config) *Set {
	return RunSetParallel(cfg, runner.Options{})
}

// RunSetParallel is RunSet with an explicit worker-pool size
// (Parallelism 1 restores strictly serial execution).
func RunSetParallel(cfg core.Config, opts runner.Options) *Set {
	set, err := RunSetContext(context.Background(), cfg, opts)
	if err != nil {
		// A background context never cancels, so the only possible error
		// is a run panic — re-raise it with its structured provenance
		// after the rest of the batch has resolved.
		panic(err)
	}
	return set
}

// RunSetContext is RunSetParallel under a context: cancellation or
// deadline expiry stops the in-flight runs before their next bus
// transaction and returns the first run's structured error (a
// *core.CanceledError or *runner.PanicError) instead of a Set.
func RunSetContext(ctx context.Context, cfg core.Config, opts runner.Options) (*Set, error) {
	kinds := []workload.Kind{workload.Pmake, workload.Multpgm, workload.Oracle}
	cfgs := make([]core.Config, len(kinds))
	for i, k := range kinds {
		cfgs[i] = cfg
		cfgs[i].Workload = k
	}
	res, batch := runner.ExperimentsContext(ctx, cfgs, opts)
	for _, r := range res {
		if r.Err != nil {
			return nil, r.Err
		}
	}
	return &Set{
		Pmake: res[0].Ch, Multpgm: res[1].Ch, Oracle: res[2].Ch,
		Stats: batch, Parallelism: opts.Parallelism,
	}, nil
}

// Single renders one run as a compact deterministic report: the header
// identifies the run by workload, geometry, seed and canonical config
// hash; the body carries the headline Table 1 quantities and kernel
// counters. Reruns of the same config produce byte-identical output —
// the experiment service's result cache and the robustness oracle tests
// (canceled-then-rerun, service-vs-serial) rely on exactly that.
func Single(ch *core.Characterization) string {
	var b strings.Builder
	cfg := ch.Cfg
	fmt.Fprintf(&b, "run %s ncpu=%d seed=%d window=%d warmup=%d\n",
		cfg.Workload, cfg.NCPU, cfg.Seed, cfg.Window, cfg.Warmup)
	fmt.Fprintf(&b, "config %s\n", cfg.Hash())
	user, sys, idle := ch.TimeSplit()
	fmt.Fprintf(&b, "time split: user %.2f%% sys %.2f%% idle %.2f%%\n", user, sys, idle)
	if ch.Sampled != nil {
		writeSampled(&b, ch)
	} else if ch.Trace != nil {
		all, osOnly, osInd := ch.StallPct()
		fmt.Fprintf(&b, "os miss share: %.2f%%\n", ch.OSMissShare())
		fmt.Fprintf(&b, "memory stalls: all %.2f%% os %.2f%% os+induced %.2f%%\n", all, osOnly, osInd)
		fmt.Fprintf(&b, "bus misses: %d (os %d)\n", ch.Trace.Total, ch.Trace.OSMissTotal)
	}
	cur, rmw := ch.SyncStallPct()
	fmt.Fprintf(&b, "sync stalls: current %.2f%% rmw-cached %.2f%%\n", cur, rmw)
	fmt.Fprintf(&b, "kernel ops: ctxswitch=%d migrations=%d spawns=%d exits=%d disk=%d\n",
		ch.Ops.CtxSwitches, ch.Ops.Migrations, ch.Ops.Spawns, ch.Ops.Exits, ch.Ops.DiskRequests)
	if len(ch.CheckErrors) > 0 {
		fmt.Fprintf(&b, "invariant violations: %d\n", len(ch.CheckErrors))
	}
	return b.String()
}

// pm renders an estimated quantity with its standard error.
func pm(v, e float64) string { return fmt.Sprintf("%.0f±%.0f", v, e) }

// ratio propagates relative standard errors through a quotient (first-
// order, treating numerator and denominator as independent — an
// approximation, since the OS misses are part of the total, but good
// enough for a report's error column).
func ratio(num, numErr, den, denErr float64) (r, rErr float64) {
	if den == 0 {
		return 0, 0
	}
	r = num / den
	if num != 0 {
		rErr = r * math.Sqrt((numErr/num)*(numErr/num)+(denErr/den)*(denErr/den))
	}
	return r, rErr
}

// writeSampled renders the sampled-run counterpart of the classification
// lines: the same headline quantities, each carrying the standard error
// of its extrapolation, plus the per-class estimate table. The exact
// lines around it (time split, sync stalls, kernel ops) need no error
// bars — they are trajectory-exact under sampling.
func writeSampled(b *strings.Builder, ch *core.Characterization) {
	e := ch.Sampled
	fmt.Fprintf(b, "sampling: %s — %d samples, %s of %s cycles measured\n",
		e.Schedule, e.Samples, e.MeasuredCycles().Compact(), e.Window.Compact())
	tot, totErr := e.TotalAll()
	osTot, osErr := e.TotalOS()
	share, shareErr := ratio(osTot, osErr, tot, totErr)
	fmt.Fprintf(b, "os miss share: %.2f%% ± %.2f%%\n", 100*share, 100*shareErr)
	if nonIdle := float64(ch.NonIdle()); nonIdle > 0 {
		stall := float64(ch.Cfg.Machine.MissStallCycles)
		pct := func(v float64) float64 { return 100 * v * stall / nonIdle }
		indTot, indErr := e.ClassTotal(0, -1, int(trace.DispOS))
		fmt.Fprintf(b, "memory stalls: all %.2f%% ± %.2f%% os %.2f%% ± %.2f%% os+induced %.2f%% ± %.2f%%\n",
			pct(tot), pct(totErr), pct(osTot), pct(osErr),
			pct(osTot+indTot), pct(math.Sqrt(osErr*osErr+indErr*indErr)))
	}
	fmt.Fprintf(b, "bus misses: %.0f ± %.0f (os %.0f ± %.0f)\n", tot, totErr, osTot, osErr)
	fmt.Fprintf(b, "miss classes (estimated whole-window counts ± stderr):\n")
	for cl := trace.MissClass(0); cl < trace.NumClasses; cl++ {
		ai, aiE := e.ClassTotal(0, 1, int(cl))
		ad, adE := e.ClassTotal(0, 0, int(cl))
		oi, oiE := e.ClassTotal(1, 1, int(cl))
		od, odE := e.ClassTotal(1, 0, int(cl))
		fmt.Fprintf(b, "  %-8s app-i %-14s app-d %-14s os-i %-14s os-d %-14s\n",
			cl, pm(ai, aiE), pm(ad, adE), pm(oi, oiE), pm(od, odE))
	}
}

// ReportViolations writes a run's invariant violations to w and reports
// whether there were any. At most max collected errors are printed (max <
// 0 prints all). The checker caps its collected list independently of the
// violation counter, so a positive count with an empty list prints the
// count alone — never index CheckErrors unguarded.
func ReportViolations(w io.Writer, name string, ch *core.Characterization, max int) bool {
	if ch == nil || ch.Sim.Chk == nil || ch.Sim.Chk.Violations == 0 {
		return false
	}
	chk := ch.Sim.Chk
	fmt.Fprintf(w, "%s: %d invariant violations (%d checks)\n", name, chk.Violations, chk.Checks)
	errs := ch.CheckErrors
	if max >= 0 && len(errs) > max {
		errs = errs[:max]
	}
	for _, e := range errs {
		fmt.Fprintf(w, "  %v\n", e)
	}
	if dropped := chk.Violations - int64(len(ch.CheckErrors)); dropped > 0 {
		fmt.Fprintf(w, "  ... %d more violations not collected (list capped)\n", dropped)
	}
	return true
}

// each iterates the set in paper order.
func (s *Set) each(f func(name string, ch *core.Characterization)) {
	f("Pmake", s.Pmake)
	f("Multpgm", s.Multpgm)
	f("Oracle", s.Oracle)
}

// paperTable1 rows: user, sys, idle, OS-miss share, stall all/os/os+ind.
var paperTable1 = map[string][7]float64{
	"Pmake":   {49.4, 31.1, 19.5, 52.6, 39.9, 21.0, 25.8},
	"Multpgm": {53.2, 46.7, 0.1, 46.3, 46.5, 21.5, 24.9},
	"Oracle":  {62.4, 29.4, 8.2, 26.6, 62.5, 16.6, 26.8},
}

// cell formats one measured|paper pair for the comparison tables.
func cell(m, ref float64) string { return fmt.Sprintf("%.1f|%.1f", m, ref) }

// Table1 renders the workload characteristics.
func Table1(s *Set) string {
	t := metrics.NewTable("Table 1: Characteristics of the workloads (measured | paper)",
		"Workload", "User%", "Sys%", "Idle%", "OSMiss/Tot%", "Stall All%", "Stall OS%", "Stall OS+Ind%")
	s.each(func(name string, ch *core.Characterization) {
		u, sy, id := ch.TimeSplit()
		all, os, ind := ch.StallPct()
		p := paperTable1[name]
		t.AddRow(name, cell(u, p[0]), cell(sy, p[1]), cell(id, p[2]),
			cell(ch.OSMissShare(), p[3]), cell(all, p[4]), cell(os, p[5]), cell(ind, p[6]))
	})
	return t.String()
}

// Figure1 renders the average repeating execution pattern.
func Figure1(s *Set) string {
	t := metrics.NewTable("Figure 1: Average times and misses in the basic repeating pattern",
		"Workload", "OS cyc", "OS I-miss", "OS D-miss", "Idle cyc", "App cyc",
		"App I-miss", "App D-miss", "UTLB/app", "UTLBmiss/fault", "ms between OS inv (paper)")
	paperMS := map[string]float64{"Pmake": 1.9, "Multpgm": 0.4, "Oracle": 0.7}
	s.each(func(name string, ch *core.Characterization) {
		st := ch.Invocations()
		t.AddRow(name,
			fmt.Sprintf("%.0f", st.OSAvgCycles),
			fmt.Sprintf("%.0f", st.OSAvgIMiss),
			fmt.Sprintf("%.0f", st.OSAvgDMiss),
			fmt.Sprintf("%.0f", st.IdleAvgCycles),
			fmt.Sprintf("%.0f", st.AppAvgCycles),
			fmt.Sprintf("%.0f", st.AppAvgIMiss),
			fmt.Sprintf("%.0f", st.AppAvgDMiss),
			fmt.Sprintf("%.1f", st.AppAvgUTLBs),
			fmt.Sprintf("%.2f", st.UTLBMissPerFault),
			fmt.Sprintf("%.2f|%.1f", st.MsBetweenInvocations, paperMS[name]))
	})
	t.Note("paper (Pmake): 154 I- and 141 D-misses per OS invocation; <0.1 miss per UTLB fault")
	return t.String()
}

// Figure2 renders the OS operation mix of Multpgm (UTLB faults excluded,
// as in the paper).
func Figure2(s *Set) string {
	ch := s.Multpgm
	var tot int64
	for op := kernel.OpKind(0); op < kernel.NumOps; op++ {
		if op == kernel.OpCheapTLB {
			continue
		}
		tot += ch.Ops.OpCounts[op]
	}
	paper := map[kernel.OpKind]string{
		kernel.OpSginap:       "≈50",
		kernel.OpExpensiveTLB: "≈20 (all TLB faults)",
		kernel.OpIOSyscall:    "≈20",
		kernel.OpInterrupt:    "≈5 (clock) + other",
	}
	t := metrics.NewTable("Figure 2: Frequency of OS operations in Multpgm",
		"Operation", "Count", "Share%", "Paper%")
	for op := kernel.OpKind(0); op < kernel.NumOps; op++ {
		if op == kernel.OpCheapTLB {
			continue
		}
		t.AddRow(op.String(), ch.Ops.OpCounts[op],
			metrics.PctOf(ch.Ops.OpCounts[op], tot), paper[op])
	}
	return t.String()
}

// Figure3 renders the distributions of I-misses, D-misses and cycles per
// OS invocation in Pmake.
func Figure3(s *Set) string {
	ch := s.Pmake
	im := metrics.NewHistogram(10, 50, 100, 200, 400, 800)
	dm := metrics.NewHistogram(10, 50, 100, 200, 400, 800)
	cy := metrics.NewHistogram(1000, 5000, 10000, 25000, 50000, 100000)
	type acc struct {
		i, d int
		cyc  arch.Cycles
	}
	// Merge SegOS pieces of the same invocation (idle excluded, as the
	// paper notes).
	for cpuIdx, segs := range ch.Trace.Segments {
		per := map[[2]uint32]*acc{}
		var order [][2]uint32
		for _, sg := range segs {
			if sg.Kind != trace.SegOS {
				continue
			}
			key := [2]uint32{uint32(cpuIdx), sg.InvID}
			a := per[key]
			if a == nil {
				a = &acc{}
				per[key] = a
				order = append(order, key)
			}
			a.i += sg.IMiss
			a.d += sg.DMiss
			a.cyc += sg.Cycles
		}
		for _, key := range order {
			a := per[key]
			im.Add(float64(a.i))
			dm.Add(float64(a.d))
			cy.Add(float64(a.cyc))
		}
	}
	// For completeness' sake the paper's companion report [18] also
	// shows the application-invocation distributions.
	aim := metrics.NewHistogram(10, 50, 100, 200, 400, 800)
	acy := metrics.NewHistogram(1000, 5000, 10000, 25000, 50000, 100000)
	for _, segs := range ch.Trace.Segments {
		for _, sg := range segs {
			if sg.Kind == trace.SegApp {
				aim.Add(float64(sg.IMiss + sg.DMiss))
				acy.Add(float64(sg.Cycles))
			}
		}
	}
	return im.Render("Figure 3a: I-misses per OS invocation (Pmake)") +
		dm.Render("Figure 3b: D-misses per OS invocation (Pmake)") +
		cy.Render("Figure 3c: cycles per OS invocation (Pmake, idle excluded)") +
		aim.Render("[18]: misses per application invocation (Pmake)") +
		acy.Render("[18]: cycles per application invocation (Pmake)")
}

func classRow(ch *core.Characterization, instr int) []string {
	os := ch.Trace.OSMissTotal
	var cells []string
	for cl := trace.MissClass(0); cl < trace.NumClasses; cl++ {
		cells = append(cells, fmt.Sprintf("%.1f", metrics.PctOf(ch.Trace.Counts[1][instr][cl], os)))
	}
	return cells
}

// missClassFigure renders one half of the Figure 4 / Figure 7 pair: the
// per-class OS miss breakdown for instruction (instr=1) or data (instr=0)
// misses, plus the Dispossame sub-table.
func missClassFigure(s *Set, instr int, titleA, totCol, noteA, titleB, noteB string,
	dispossame func(*trace.Result) int64) string {
	t := metrics.NewTable(titleA,
		"Workload", "Cold", "Dispos", "Dispap", "Sharing", "Inval", "Uncached", totCol)
	s.each(func(name string, ch *core.Characterization) {
		row := []interface{}{name}
		for _, c := range classRow(ch, instr) {
			row = append(row, c)
		}
		tot := metrics.PctOf(ch.Trace.ClassSum(1, instr), ch.Trace.OSMissTotal)
		row = append(row, fmt.Sprintf("%.1f", tot))
		t.AddRow(row...)
	})
	if noteA != "" {
		t.Note("%s", noteA)
	}
	b := metrics.NewTable(titleB, "Workload", "Dispossame%")
	s.each(func(name string, ch *core.Characterization) {
		b.AddRow(name, metrics.PctOf(dispossame(ch.Trace), ch.Trace.Counts[1][instr][trace.DispOS]))
	})
	if noteB != "" {
		b.Note("%s", noteB)
	}
	return t.String() + b.String()
}

// Figure4 renders the OS instruction-miss classification.
func Figure4(s *Set) string {
	return missClassFigure(s, 1,
		"Figure 4a: OS instruction misses by class (% of all OS misses)", "I total",
		"paper: instruction misses are 40-65% of all OS misses",
		"Figure 4b: Dispossame share of the Dispos I-misses",
		"paper: larger in Pmake than Multpgm (longer OS invocations)",
		func(r *trace.Result) int64 { return r.DispossameI })
}

// Figure5 renders the Dispos I-misses by OS routine, positions in
// multiples of the 64 KB I-cache.
func Figure5(s *Set) string {
	ch := s.Pmake
	kt := ch.Sim.K.T
	type entry struct {
		name  string
		pos   float64
		count int64
	}
	var entries []entry
	var total int64
	for id, n := range ch.Trace.DisposIByRoutine {
		r := kt.ByID(id)
		entries = append(entries, entry{r.Name, float64(r.Addr) / float64(ch.Cfg.Machine.ICacheSize), n})
		total += n
	}
	sort.Slice(entries, func(i, j int) bool {
		// Name tie-break: DisposIByRoutine is map-ordered, and equal counts
		// must not flip rows between runs (reports are diffed byte-for-byte).
		if entries[i].count != entries[j].count {
			return entries[i].count > entries[j].count
		}
		return entries[i].name < entries[j].name
	})
	t := metrics.NewTable("Figure 5: Self-interference (Dispos) I-misses by OS routine (Pmake)",
		"Routine", "Addr/64KB", "Misses", "Share%")
	top := 12
	if len(entries) < top {
		top = len(entries)
	}
	var covered int64
	for _, e := range entries[:top] {
		t.AddRow(e.name, fmt.Sprintf("%.2f", e.pos), e.count, metrics.PctOf(e.count, total))
		covered += e.count
	}
	t.Note("top %d routines cover %.0f%% of Dispos misses — the paper's 'thin spikes': "+
		"self-interference concentrates in a few routines", top, metrics.PctOf(covered, total))
	return t.String()
}

// Figure6 renders the I-cache size/associativity sweep: one pass over each
// workload's I-miss stream, one job per workload on the set's worker pool.
func Figure6(s *Set) string {
	var names []string
	var chs []*core.Characterization
	s.each(func(name string, ch *core.Characterization) {
		names, chs = append(names, name), append(chs, ch)
	})
	results := runner.Map(len(chs), runner.Options{Parallelism: s.Parallelism},
		func(i int) cachesweep.Figure6Result { return chs[i].Figure6() })
	var b strings.Builder
	for w, res := range results {
		t := metrics.NewTable(fmt.Sprintf("Figure 6 (%s): OS I-miss rate relative to the 64KB direct-mapped cache", names[w]),
			"Size", "DM", "2-way", "Inval bound (DM floor)")
		for i, p := range res.DirectMapped {
			tw := "-"
			for _, q := range res.TwoWay {
				if q.Size == p.Size {
					tw = fmt.Sprintf("%.2f", q.Relative)
				}
			}
			bound := ""
			if i == len(res.DirectMapped)-1 {
				bound = fmt.Sprintf("%.2f", res.InvalBoundRel)
			}
			t.AddRow(fmt.Sprintf("%dKB", p.Size/1024), fmt.Sprintf("%.2f", p.Relative), tw, bound)
		}
		t.Note("paper: 2-way gives a noticeable drop; Pmake/Multpgm saturate by 256KB " +
			"(invalidation-bound); Oracle keeps dropping to 1MB")
		b.WriteString(t.String())
	}
	return b.String()
}

// TimedFigure6 is Figure6 with its wall-clock recorded in s.Stats.Post: the
// sweep runs after the simulations, so no run's Wall covers it and the timing
// table would otherwise hide it.
func TimedFigure6(s *Set) string {
	start := time.Now()
	out := Figure6(s)
	s.Stats.Post = time.Since(start)
	events := 0
	s.each(func(_ string, ch *core.Characterization) { events += len(ch.Trace.IResim) })
	dm, tw := cachesweep.Figure6Configs()
	s.Stats.PostLabel = fmt.Sprintf("figure 6 sweep %d events × %d configurations", events, len(dm)+len(tw)+1)
	return out
}

// Figure7 renders the OS data-miss classification.
func Figure7(s *Set) string {
	return missClassFigure(s, 0,
		"Figure 7a: OS data misses by class (% of all OS misses)", "D total", "",
		"Figure 7b: Dispossame share of the Dispos D-misses", "",
		func(r *trace.Result) int64 { return r.DispossameD })
}

// figure8Order is the paper's Figure 8 category order.
var figure8Order = []string{
	kmem.AttrKernelStack, kmem.AttrPCB, kmem.AttrEframe, kmem.AttrRestUser,
	kmem.AttrProcTable, kmem.AttrBcopy, kmem.AttrBclear, kmem.AttrPfdat,
	kmem.AttrBuffer, kmem.AttrInode, kmem.AttrRunQueue, kmem.AttrFreePgBuck,
	kmem.AttrHiNdproc,
}

// Figure8 renders the Sharing misses by data structure.
func Figure8(s *Set) string {
	t := metrics.NewTable("Figure 8: OS Sharing misses by data structure (% of OS sharing misses)",
		"Structure", "Pmake", "Multpgm", "Oracle")
	totals := map[string]int64{}
	s.each(func(name string, ch *core.Characterization) {
		for _, v := range ch.Trace.StructSharing {
			totals[name] += v
		}
	})
	appendRow := func(st string) {
		row := []interface{}{st}
		s.each(func(name string, ch *core.Characterization) {
			row = append(row, metrics.PctOf(ch.Trace.StructSharing[st], totals[name]))
		})
		t.AddRow(row...)
	}
	for _, st := range figure8Order {
		appendRow(st)
	}
	appendRow(kmem.AttrOther)
	t.Note("paper: the per-process structures (kernel stack, user structure, " +
		"process table) account for 40-65%% of sharing misses")
	return t.String()
}

// Table3 renders the data-structure sizes.
func Table3() string {
	t := metrics.NewTable("Table 3: Data structures contributing to OS sharing misses",
		"Structure", "Size (bytes)", "Paper (bytes)")
	for _, st := range []struct {
		name string
		size int
	}{
		{kmem.AttrKernelStack, kmem.KStackSize},
		{kmem.AttrPCB, kmem.PCBSize},
		{kmem.AttrEframe, kmem.EframeSize},
		{kmem.AttrRestUser, kmem.RestUSize},
		{kmem.AttrProcTable, kmem.ProcTableSize},
		{kmem.AttrPfdat, kmem.PfdatSize},
		{kmem.AttrBuffer, kmem.BufHeadersSize},
		{kmem.AttrInode, kmem.InodeTableSize},
		{kmem.AttrRunQueue, kmem.RunQueueSize},
		{kmem.AttrFreePgBuck, kmem.FreePgBuckSize},
	} {
		paper := kmem.Table3Sizes()[st.name]
		t.AddRow(st.name, st.size, paper)
	}
	t.Note("sizes match the paper's Table 3 exactly by construction")
	return t.String()
}

// paperTable4: kernel stack, user struc., process table, total, stall.
var paperTable4 = map[string][5]float64{
	"Pmake":   {4.8, 2.5, 2.6, 9.9, 1.0},
	"Multpgm": {14.4, 11.6, 7.8, 33.8, 4.2},
	"Oracle":  {18.0, 19.0, 7.1, 44.1, 2.6},
}

// Table4 renders the migration misses.
func Table4(s *Set) string {
	t := metrics.NewTable("Table 4: Data misses and stall caused by process migration (measured | paper)",
		"Workload", "KStack% of OS D", "UStruc%", "ProcTab%", "Total%", "Stall% non-idle")
	s.each(func(name string, ch *core.Characterization) {
		osD := ch.Trace.ClassSum(1, 0)
		p := paperTable4[name]
		m := ch.Trace.MigrationByStruct
		t.AddRow(name,
			cell(metrics.PctOf(m[trace.FamilyKernelStack], osD), p[0]),
			cell(metrics.PctOf(m[trace.FamilyUserStruct], osD), p[1]),
			cell(metrics.PctOf(m[trace.FamilyProcTable], osD), p[2]),
			cell(metrics.PctOf(ch.Trace.MigrationTotal, osD), p[3]),
			cell(ch.MigrationStallPct(), p[4]))
	})
	return t.String()
}

// paperTable5: runq, lowlevel, rwsetup, total.
var paperTable5 = map[string][4]float64{
	"Pmake":   {11.5, 7.3, 6.4, 25.2},
	"Multpgm": {20.5, 12.9, 13.2, 46.6},
	"Oracle":  {14.3, 14.5, 20.7, 49.5},
}

// Table5 renders the migration misses by operation.
func Table5(s *Set) string {
	t := metrics.NewTable("Table 5: Migration misses by operation (% of migration misses; measured | paper)",
		"Workload", "Run queue mgmt", "Low-level exc.", "R/W setup", "Total")
	s.each(func(name string, ch *core.Characterization) {
		g := ch.Trace.MigrationByGroup
		tot := ch.Trace.MigrationTotal
		p := paperTable5[name]
		a := metrics.PctOf(g[kernel.GroupRunQueue], tot)
		b := metrics.PctOf(g[kernel.GroupLowLevel], tot)
		c := metrics.PctOf(g[kernel.GroupRWSetup], tot)
		t.AddRow(name, cell(a, p[0]), cell(b, p[1]), cell(c, p[2]), cell(a+b+c, p[3]))
	})
	return t.String()
}

// paperTable6: copy, clear, traverse, total, stall.
var paperTable6 = map[string][5]float64{
	"Pmake":   {17.6, 23.7, 19.7, 61.0, 6.2},
	"Multpgm": {15.1, 7.2, 15.7, 38.0, 4.7},
	"Oracle":  {8.6, 1.0, 1.0, 10.6, 0.6},
}

// Table6 renders the block-operation misses.
func Table6(s *Set) string {
	t := metrics.NewTable("Table 6: Data misses and stall caused by block operations (measured | paper)",
		"Workload", "Copy% of OS D", "Clear%", "Traverse%", "Total%", "Stall% non-idle")
	s.each(func(name string, ch *core.Characterization) {
		osD := ch.Trace.ClassSum(1, 0)
		b := ch.Trace.BlockOpDMisses
		p := paperTable6[name]
		cp := metrics.PctOf(b[kmem.RoutineBcopy], osD)
		clr := metrics.PctOf(b[kmem.RoutineBclear], osD)
		tr := metrics.PctOf(b[kmem.RoutineVhand], osD)
		t.AddRow(name, cell(cp, p[0]), cell(clr, p[1]), cell(tr, p[2]),
			cell(cp+clr+tr, p[3]), cell(ch.BlockOpStallPct(), p[4]))
	})
	return t.String()
}

// Table7 renders the block-size characterization for Pmake.
func Table7(s *Set) string {
	ch := s.Pmake
	ops := ch.Sim.K.BlockOpsSince(ch.Sim.BaseCounters)
	type bucket struct{ full, regular, irregular int }
	var copies, clears bucket
	classify := func(b *bucket, bytes int) {
		switch {
		case bytes == arch.PageSize:
			b.full++
		case bytes >= 512 && bytes%512 == 0:
			b.regular++
		default:
			b.irregular++
		}
	}
	for _, op := range ops {
		switch op.Kind {
		case kernel.BlockCopy:
			classify(&copies, op.Bytes)
		case kernel.BlockClear:
			classify(&clears, op.Bytes)
		}
	}
	t := metrics.NewTable("Table 7: Sizes of blocks copied/cleared in Pmake (measured | paper)",
		"Operation", "Size class", "Freq%")
	tc := copies.full + copies.regular + copies.irregular
	tl := clears.full + clears.regular + clears.irregular
	t.AddRow("Copy", "Full page", fmt.Sprintf("%.0f|5", metrics.PctOf(int64(copies.full), int64(tc))))
	t.AddRow("", "Regular fragment", fmt.Sprintf("%.0f|45", metrics.PctOf(int64(copies.regular), int64(tc))))
	t.AddRow("", "Irregular chunk", fmt.Sprintf("%.0f|50", metrics.PctOf(int64(copies.irregular), int64(tc))))
	t.AddRow("Clear", "Full page", fmt.Sprintf("%.0f|70", metrics.PctOf(int64(clears.full), int64(tl))))
	t.AddRow("", "Irregular chunk", fmt.Sprintf("%.0f|30", metrics.PctOf(int64(clears.regular+clears.irregular), int64(tl))))
	return t.String()
}

// Figure9 renders the misses by high-level OS operation.
func Figure9(s *Set) string {
	var b strings.Builder
	for _, instr := range []int{0, 1} {
		kindName := "data"
		if instr == 1 {
			kindName = "instruction"
		}
		t := metrics.NewTable(
			fmt.Sprintf("Figure 9: OS %s misses by high-level operation (%% of OS %s misses)", kindName, kindName),
			"Operation", "Pmake", "Multpgm", "Oracle")
		for op := kernel.OpKind(0); op < kernel.NumOps; op++ {
			row := []interface{}{op.String()}
			s.each(func(name string, ch *core.Characterization) {
				var tot int64
				for o := kernel.OpKind(0); o < kernel.NumOps; o++ {
					tot += ch.Trace.OpMisses[o][instr]
				}
				row = append(row, metrics.PctOf(ch.Trace.OpMisses[op][instr], tot))
			})
			t.AddRow(row...)
		}
		b.WriteString(t.String())
	}
	b.WriteString("  paper: I/O system calls and TLB faults dominate data misses; I/O calls\n" +
		"  dominate instruction misses; interrupts are relatively instruction-heavy.\n")
	return b.String()
}

// paperTable9 rows: total, instr, migration, blockops, rest.
var paperTable9 = map[string][5]float64{
	"Pmake":   {21.0, 10.9, 1.0, 6.2, 2.9},
	"Multpgm": {21.5, 9.2, 4.2, 4.7, 3.4},
	"Oracle":  {16.6, 10.6, 2.6, 0.6, 2.8},
}

// Table9 renders the consolidated stall components.
func Table9(s *Set) string {
	t := metrics.NewTable("Table 9: Components of the stall time caused by OS misses (measured | paper, % of non-idle)",
		"Workload", "Total OS", "Instr", "Migration D", "BlockOp D", "Rest")
	var avg [5]float64
	s.each(func(name string, ch *core.Characterization) {
		_, osStall, _ := ch.StallPct()
		in := ch.OSIMissStallPct()
		mig := ch.MigrationStallPct()
		blk := ch.BlockOpStallPct()
		rest := osStall - in - mig - blk
		p := paperTable9[name]
		t.AddRow(name, cell(osStall, p[0]), cell(in, p[1]), cell(mig, p[2]),
			cell(blk, p[3]), cell(rest, p[4]))
		for i, v := range []float64{osStall, in, mig, blk, rest} {
			avg[i] += v / 3
		}
	})
	t.AddRow("AVERAGE",
		fmt.Sprintf("%.1f|19.7", avg[0]), fmt.Sprintf("%.1f|10.2", avg[1]),
		fmt.Sprintf("%.1f|2.6", avg[2]), fmt.Sprintf("%.1f|3.8", avg[3]),
		fmt.Sprintf("%.1f|3.0", avg[4]))
	return t.String()
}

// Figure10 renders the OS-induced application misses.
func Figure10(s *Set) string {
	t := metrics.NewTable("Figure 10: Application misses induced by OS interference (Ap_dispos)",
		"Workload", "Ap_dispos% of app misses", "I part%", "D part%", "Paper%")
	paper := map[string]string{"Pmake": "22-27", "Multpgm": "22-27", "Oracle": "22-27"}
	s.each(func(name string, ch *core.Characterization) {
		appTot := ch.Trace.ClassSum(0, 0) + ch.Trace.ClassSum(0, 1)
		i := ch.Trace.Counts[0][1][trace.DispOS]
		d := ch.Trace.Counts[0][0][trace.DispOS]
		t.AddRow(name, metrics.PctOf(i+d, appTot), metrics.PctOf(i, appTot),
			metrics.PctOf(d, appTot), paper[name])
	})
	return t.String()
}

// paperTable10: current, rmw.
var paperTable10 = map[string][2]float64{
	"Pmake":   {4.2, 0.7},
	"Multpgm": {4.6, 0.8},
	"Oracle":  {4.7, 1.1},
}

// Table10 renders the synchronization stall estimates.
func Table10(s *Set) string {
	t := metrics.NewTable("Table 10: Stall time caused by OS synchronization accesses (measured | paper, % of non-idle)",
		"Workload", "Current machine", "Atomic RMW + caches")
	s.each(func(name string, ch *core.Characterization) {
		cur, rmw := ch.SyncStallPct()
		p := paperTable10[name]
		t.AddRow(name, fmt.Sprintf("%.1f|%.1f", cur, p[0]), fmt.Sprintf("%.1f|%.1f", rmw, p[1]))
	})
	t.Note("RMW column replays the lock-access log under a cacheable LL/SC protocol (§5.1)")
	return t.String()
}

// Table11 renders the lock functions.
func Table11() string {
	t := metrics.NewTable("Table 11: Functions performed by the most frequently-acquired locks",
		"Lock", "What the lock protects")
	for _, n := range []string{klock.Memlock, klock.Runqlk, klock.Ifree, klock.Dfbmaplk,
		klock.Bfreelock, klock.Calock, klock.ShrX, klock.StreamsX, klock.InoX, klock.Semlock} {
		t.AddRow(n, klock.LockFunction[n])
	}
	return t.String()
}

// paperTable12 rows: kcycles between acq, %failed, waiters, %same-cpu, cached/uncached%.
var paperTable12 = map[string][5]float64{
	klock.Memlock:   {9.5, 2.2, 1.02, 79.9, 12},
	klock.Runqlk:    {16.5, 13.7, 1.29, 36.9, 43},
	klock.Ifree:     {16.7, 0.8, 1.00, 91.4, 5},
	klock.Dfbmaplk:  {19.4, 0.0, 1.00, 99.0, 0},
	klock.Bfreelock: {22.5, 1.5, 1.00, 72.6, 15},
	klock.Calock:    {35.1, 0.3, 1.00, 11.4, 45},
}

// Table12 renders the per-lock characterization for Pmake.
func Table12(s *Set) string {
	ch := s.Pmake
	t := metrics.NewTable("Table 12: Most frequently acquired locks in Pmake (measured | paper)",
		"Lock", "kCyc between acq", "Failed%", "Waiters if any", "SameCPU%", "Cached/Uncached%")
	for _, name := range []string{klock.Memlock, klock.Runqlk, klock.Ifree,
		klock.Dfbmaplk, klock.Bfreelock, klock.Calock} {
		st := ch.Sim.K.Locks.FamilyStats(name)
		p := paperTable12[name]
		cell := func(v, ref float64, prec int) string {
			return fmt.Sprintf("%.*f|%.*f", prec, v, prec, ref)
		}
		t.AddRow(name,
			cell(st.CyclesBetweenAcq/1000, p[0], 1),
			cell(st.PctFailed, p[1], 1),
			cell(st.AvgWaitersIfAny, p[2], 2),
			cell(st.PctSameCPU, p[3], 1),
			cell(st.PctCachedVsUncached, p[4], 0))
	}
	return t.String()
}

// Figure11Point is one lock's contention at one CPU count.
type Figure11Point struct {
	NCPU          int
	Lock          string
	FailedPerMS   float64
	AcquiresPerMS float64
}

// figure11Window resolves a zero window to the one canonical default
// (arch.DefaultWindow), the same value core.Run and the CLI flags use.
func figure11Window(w arch.Cycles) arch.Cycles {
	if w <= 0 {
		return arch.DefaultWindow
	}
	return w
}

// RunFigure11 sweeps the CPU count for Multpgm and reports failed
// acquires per millisecond for the hottest locks (kernel Runqlk and
// Memlock plus the user-level Mp3d locks). The counts run on the default
// worker pool.
func RunFigure11(cpuCounts []int, window arch.Cycles, seed int64) []Figure11Point {
	pts, _ := RunFigure11Parallel(cpuCounts, window, seed, runner.Options{})
	return pts
}

// RunFigure11Parallel is RunFigure11 with an explicit worker-pool size; it
// also returns the batch timing record. Points come back in submission
// order (one group of locks per CPU count), byte-identical to a serial
// sweep.
func RunFigure11Parallel(cpuCounts []int, window arch.Cycles, seed int64,
	opts runner.Options) ([]Figure11Point, metrics.BatchStats) {
	pts, batch, err := RunFigure11Context(context.Background(), cpuCounts, window, seed, opts)
	if err != nil {
		panic(err) // only a run panic can surface under a background ctx
	}
	return pts, batch
}

// RunFigure11Context is RunFigure11Parallel under a context; a canceled
// or expired ctx returns the first run's structured error.
func RunFigure11Context(ctx context.Context, cpuCounts []int, window arch.Cycles, seed int64,
	opts runner.Options) ([]Figure11Point, metrics.BatchStats, error) {
	window = figure11Window(window)
	cfgs := make([]core.Config, len(cpuCounts))
	for i, n := range cpuCounts {
		cfgs[i] = core.Config{
			Workload: workload.Multpgm, NCPU: n, Seed: seed,
			Window: window, NoTrace: true,
		}
	}
	res, batch := runner.ExperimentsContext(ctx, cfgs, opts)
	for _, r := range res {
		if r.Err != nil {
			return nil, batch, r.Err
		}
	}
	var out []Figure11Point
	for i, r := range res {
		n, ch := cpuCounts[i], r.Ch
		// The paper plots failed acquires per millisecond of run time
		// (Y includes idle). Use the wall-clock window.
		wallMS := float64(window.NS()) / 1e6
		for _, lname := range []string{klock.Runqlk, klock.Memlock, klock.Ifree} {
			st := ch.Sim.K.Locks.FamilyStats(lname)
			out = append(out, Figure11Point{
				NCPU: n, Lock: lname,
				FailedPerMS:   float64(st.Failed) / wallMS,
				AcquiresPerMS: float64(st.Acquires) / wallMS,
			})
		}
		// Aggregate user locks (the mp3d cells/barrier).
		var fails, acqs int64
		for _, l := range ch.Sim.K.UserLocks {
			st := l.ComputeStats()
			fails += st.Failed
			acqs += st.Acquires
		}
		out = append(out, Figure11Point{NCPU: n, Lock: "mp3d user locks",
			FailedPerMS: float64(fails) / wallMS, AcquiresPerMS: float64(acqs) / wallMS})
	}
	return out, batch, nil
}

// Figure11 renders the contention sweep.
func Figure11(points []Figure11Point) string {
	t := metrics.NewTable("Figure 11: Lock contention vs number of CPUs (Multpgm)",
		"CPUs", "Lock", "Failed acq/ms", "Acq/ms")
	for _, p := range points {
		t.AddRow(p.NCPU, p.Lock, fmt.Sprintf("%.2f", p.FailedPerMS), fmt.Sprintf("%.2f", p.AcquiresPerMS))
	}
	t.Note("paper: contention (especially Runqlk) grows steadily with the CPU count")
	return t.String()
}

// All renders every table and figure from one Set.
func All(s *Set) string {
	var b strings.Builder
	secs := []string{
		Table1(s), Figure1(s), Figure2(s), Figure3(s), Figure4(s),
		Figure5(s), Figure7(s), Table3(), Figure8(s), Table4(s), Table5(s),
		Table6(s), Table7(s), Figure9(s), Table9(s), Figure10(s),
		Table10(s), Table11(), Table12(s),
	}
	for _, sec := range secs {
		b.WriteString(sec)
		b.WriteString("\n")
	}
	return b.String()
}
