package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime/debug"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/lowerbound"
	"repro/internal/memmodel"
	"repro/internal/parwork"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/spec"
)

// The sim workloads repeat a fixed sweep set: set-up runs it three times
// (each a verified pass after the heap is handed back to the OS) and the
// measured window runs it until the window is over.

// e2Sizes is the E2 grid of BENCH_sweeps.json's E2LowerBound entry.
var e2Sizes = []int{9, 27, 81, 243}

// e2Factories is E2LowerBound's population: the A_f family and every
// baseline that supports concurrent reading.
func e2Factories() []experiments.Factory {
	facs := experiments.AFFactories()
	for _, b := range experiments.BaselineFactories() {
		if b.Name != "mutex-rw" {
			facs = append(facs, b)
		}
	}
	return facs
}

// faultFactories is the E13/E15 sweep population: the A_f family plus the
// contrasting baselines.
func faultFactories() []experiments.Factory {
	facs := experiments.AFFactories()
	for _, b := range experiments.BaselineFactories() {
		switch b.Name {
		case "centralized", "flag-array", "faa-phasefair", "mutex-rw":
			facs = append(facs, b)
		}
	}
	return facs
}

// faultScenario is the E13/E15 workload: 2 readers and 2 writers, 2
// passages each, one shared read inside every critical section.
func faultScenario() spec.Scenario {
	return spec.Scenario{NReaders: 2, NWriters: 2, ReaderPassages: 2, WriterPassages: 2, CSReads: 1}
}

// The seeded mixed crash+stall sweep over A_f(log): crash victims are the
// readers, stall victims the writers, as in E15MixedSweep.
var (
	mixedCrashVictims = []int{0, 1}
	mixedStallVictims = []int{2, 3}
)

const (
	mixedSeeds   = 8
	mixedPerSeed = 8
)

func newAFLog() memmodel.Algorithm { return core.New(core.FLog) }

// mixedSeedsFor derives the sampled sweep's schedule seeds from the run
// seed.
func mixedSeedsFor(seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, mixedSeeds)
	for i := range out {
		out[i] = rng.Int63n(1 << 31)
	}
	return out
}

// simPass is one pass of a sweep set: the executions it checked, the
// failed ones, and its outputs for comparing passes with each other.
type simPass struct {
	execs, failed int64
	problems      []string
	out           any
}

func (p *simPass) check(execs int64, bad []string) {
	p.execs += execs
	if len(bad) > 0 {
		p.failed += execs
		p.problems = append(p.problems, bad...)
	}
}

// simLayers accumulates the per-layer readings of traced passes.
type simLayers struct {
	passes    int
	passWall  time.Duration
	busy      time.Duration // row spans run on parwork workers
	sched     parwork.Stats
	alloc     uint64
	cellMS    []float64
	lbSteps   int64
	lbNS      int64
	rows      int64
	refSteps  int64
	refNS     int64
	crashUS   []float64
	stallUS   []float64
	untraced  []float64 // untraced pass walls, seconds
	tracedSec []float64 // traced pass walls, seconds
}

// simWorkload is one sweep set, run through the program's entry points
// (untraced) or through per-cell and per-point calls with spans (traced).
type simWorkload struct {
	untraced func() simPass
	traced   func(e *env, l *simLayers) simPass
	// setupCheck runs on the set-up passes only.
	setupCheck func(e *env, p simPass) []string
}

func runSimLowerbound(e *env, o *outcome) error {
	return runSim(e, o, simWorkload{
		untraced: lowerboundPass,
		traced:   tracedLowerboundPass,
		setupCheck: func(e *env, p simPass) []string {
			rows, _ := p.out.([]experiments.E2Row)
			return checkE2Golden(e.root, rows)
		},
	})
}

func runSimFaultsweep(e *env, o *outcome) error {
	seeds := mixedSeedsFor(e.seed)
	o.details["mixed_seeds"] = seeds
	return runSim(e, o, simWorkload{
		untraced: func() simPass { return faultPass(seeds) },
		traced:   func(e *env, l *simLayers) simPass { return tracedFaultPass(e, l, seeds) },
	})
}

func runSim(e *env, o *outcome, w simWorkload) error {
	account := func(p simPass) {
		o.attempted += p.execs
		o.failed += p.failed
		o.problems = append(o.problems, p.problems...)
	}
	reps := 3
	if e.traced {
		reps = 1
	}
	var setups []float64
	var ref simPass
	for i := 0; i < reps; i++ {
		debug.FreeOSMemory()
		t0 := time.Now()
		p := w.untraced()
		if w.setupCheck != nil {
			if bad := w.setupCheck(e, p); len(bad) > 0 {
				p.failed += p.execs
				p.problems = append(p.problems, bad...)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
		account(p)
		ref = p
	}
	o.set("setup_s", median(setups))
	o.details["setup_s_each"] = setups
	o.details["execs_per_pass"] = ref.execs
	same := func(p simPass, what string) {
		if !reflect.DeepEqual(p.out, ref.out) {
			o.problem("%s pass did not reproduce the set-up pass's outputs", what)
		}
	}

	start := time.Now()
	if !e.traced {
		// Each pass is a slice; the run takes at least minSlices of them.
		var st sliceStats
		hp := startHeapPeak()
		for len(st.rate) < minSlices || time.Since(start) < e.window {
			hp.Take()
			u := mark()
			p := w.untraced()
			wall, cpu, alloc := u.since()
			st.add(float64(p.execs), wall, cpu, alloc, hp.Take())
			account(p)
			same(p, "untraced")
		}
		hp.Stop()
		st.report(o)
		o.set("ok_ratio", 1-float64(o.failed)/float64(o.attempted))
		o.details["sweep_s_median"] = float64(ref.execs) / o.values["ops_per_s"]
		return nil
	}

	// Traced: alternate untraced and traced passes so both see the same
	// conditions; the traced ones must reproduce the untraced outputs.
	var l simLayers
	for l.passes == 0 || time.Since(start) < e.window {
		t0 := time.Now()
		p := w.untraced()
		l.untraced = append(l.untraced, time.Since(t0).Seconds())
		account(p)
		same(p, "untraced")

		st0, u := parwork.ReadStats(), mark()
		p = w.traced(e, &l)
		wall, _, alloc := u.since()
		l.sched = addStats(l.sched, parwork.ReadStats().Sub(st0))
		l.alloc += alloc
		l.passWall += time.Duration(wall * float64(time.Second))
		l.tracedSec = append(l.tracedSec, wall)
		l.passes++
		account(p)
		same(p, "traced")
	}
	reportSimLayers(e, o, &l)
	return nil
}

func addStats(a, b parwork.Stats) parwork.Stats {
	return parwork.Stats{Runs: a.Runs + b.Runs, Rows: a.Rows + b.Rows, Chunks: a.Chunks + b.Chunks,
		LocalClaims: a.LocalClaims + b.LocalClaims, Steals: a.Steals + b.Steals, IdleProbes: a.IdleProbes + b.IdleProbes}
}

func reportSimLayers(e *env, o *outcome, l *simLayers) {
	n := float64(l.passes)
	if len(l.cellMS) > 0 {
		o.setPct("lowerbound.cell_ms.p50", l.cellMS, 50, 1)
		o.set("lowerbound.cell_ms.max", slices.Max(l.cellMS))
		o.set("lowerbound.steps", float64(l.lbSteps)/n)
		o.set("lowerbound.ns_per_step", float64(l.lbNS)/float64(l.lbSteps))
		o.set("lowerbound.alloc_b_per_step", float64(l.alloc)/float64(l.lbSteps))
	}
	if l.rows > 0 {
		o.set("spec.rows", float64(l.rows)/n)
		o.set("spec.ref_steps", float64(l.refSteps)/n)
		o.set("sim.ns_per_step", float64(l.refNS)/float64(l.refSteps))
		o.setPct("spec.crash_row_us.p50", l.crashUS, 50, 1)
		o.setPct("spec.crash_row_us.p99", l.crashUS, 99, 1)
		o.setPct("spec.stall_row_us.p50", l.stallUS, 50, 1)
		o.setPct("spec.stall_row_us.p99", l.stallUS, 99, 1)
		o.set("spec.alloc_b_per_row", float64(l.alloc)/float64(l.rows))
	}
	busy := l.busy.Seconds() / n
	o.set("parwork.busy_s", busy)
	o.set("parwork.idle_s", float64(e.workers)*l.passWall.Seconds()/n-busy)
	o.set("parwork.chunks", float64(l.sched.Chunks)/n)
	o.set("parwork.local_claims", float64(l.sched.LocalClaims)/n)
	o.set("parwork.steals", float64(l.sched.Steals)/n)
	o.set("parwork.idle_probes", float64(l.sched.IdleProbes)/n)
	untraced, traced := median(l.untraced), median(l.tracedSec)
	o.set("trace.overhead_pct", (traced-untraced)/untraced*100)
	o.details["traced_passes"] = l.passes
	o.details["untraced_pass_s_median"] = untraced
	o.details["traced_pass_s_median"] = traced
}

// lowerboundPass is experiments.E2LowerBound over the E2 grid,
// write-through, with every cell's lemma checks.
func lowerboundPass() simPass {
	var p simPass
	rows, _, err := experiments.E2LowerBound(e2Sizes, sim.WriteThrough)
	if err != nil {
		p.check(int64(len(e2Factories())*len(e2Sizes)), []string{err.Error()})
		return p
	}
	for _, r := range rows {
		p.check(1, checkE2Row(r))
	}
	p.out = rows
	return p
}

// tracedLowerboundPass runs the same grid as E2LowerBound through parwork
// itself, with E2's exact lowerbound.Config and cost hint, and a span
// around every lowerbound.Run.
func tracedLowerboundPass(e *env, l *simLayers) simPass {
	facs := e2Factories()
	n := len(e2Sizes)
	root := e.tr.begin("e2.pass", nil)
	type cell struct {
		row   experiments.E2Row
		steps int64
		dur   time.Duration
	}
	hint := func(i int) int64 { m := int64(e2Sizes[i%n]); return 200_000 + 4*m*m }
	cells, err := parwork.DoErrCost(e.workers, len(facs)*n, hint, func(i int) (cell, error) {
		fac, m := facs[i/n], e2Sizes[i%n]
		s := e.tr.begin("lowerbound.Run", &root)
		res, err := lowerbound.Run(fac.New(), m, lowerbound.Config{
			Protocol:     sim.WriteThrough,
			IterationCap: 4*m + 64,
			StepBudget:   200_000 + 4*m*m,
		})
		d := e.tr.end(s)
		if err != nil {
			return cell{}, fmt.Errorf("E2 %s n=%d: %w", fac.Name, m, err)
		}
		row := experiments.E2Row{Alg: fac.Name, N: m, R: res.R,
			MaxExitExpanding: res.MaxReaderExitExpanding, MaxExitRMR: res.MaxReaderExitRMR,
			WriterEntryRMR: res.WriterEntryRMR, WriterAware: res.WriterAwareReaders,
			MaxGrowth: res.MaxRoundGrowth, Lemma1Violations: res.Lemma1Violations}
		if fac.HasF {
			row.FGroups = fac.F.Groups(m)
			row.Log3 = lowerbound.Log3Bound(m, row.FGroups)
		}
		return cell{row: row, steps: int64(res.E2Steps + res.WriterEntrySteps), dur: d}, nil
	})
	e.tr.end(root)
	var p simPass
	if err != nil {
		p.check(int64(len(facs)*n), []string{err.Error()})
		return p
	}
	rows := make([]experiments.E2Row, len(cells))
	for i, c := range cells {
		rows[i] = c.row
		p.check(1, checkE2Row(c.row))
		l.cellMS = append(l.cellMS, float64(c.dur.Nanoseconds())/1e6)
		l.lbSteps += c.steps
		l.lbNS += c.dur.Nanoseconds()
		l.busy += c.dur
	}
	p.out = rows
	return p
}

// faultOut is what a fault-sweep pass produces: the E13 and E15 tables'
// rows and the mixed sweep's verdict counts.
type faultOut struct {
	Crash []experiments.E13CrashRow
	Stall []experiments.E15StallRow
	Mixed mixedCounts
}

type mixedCounts struct{ Runs, SurvLive, Doomed int }

func (m *mixedCounts) add(o spec.StallOutcome) {
	m.Runs++
	if o.SurvivorsDone {
		m.SurvLive++
	}
	if o.Doomed() {
		m.Doomed++
	}
}

// faultPass is experiments.E13CrashSweep, experiments.E15StallSweep and a
// seeded spec.MixedSweepSampled over A_f(log), with their verdict checks.
func faultPass(seeds []int64) simPass {
	var p simPass
	var out faultOut
	crash, _, err := experiments.E13CrashSweep()
	if err != nil {
		p.check(1, []string{err.Error()})
	}
	for _, r := range crash {
		p.check(int64(r.Points), checkCrashRow(r))
	}
	// E15StallSweep itself fails when spec.StallViolations reports any
	// liveness-contract violation or a bypass exceeds its budget.
	stall, _, err := experiments.E15StallSweep()
	if err != nil {
		p.check(1, []string{err.Error()})
	}
	for _, r := range stall {
		p.check(int64(r.FinPoints+r.InfPoints), checkStallRow(r))
	}
	mixed, err := spec.MixedSweepSampled(newAFLog, faultScenario(), mixedCrashVictims, mixedStallVictims,
		seeds, mixedPerSeed, nil)
	if err != nil {
		p.check(1, []string{err.Error()})
	}
	for _, o := range mixed {
		p.check(1, checkMixed(o))
		out.Mixed.add(o)
	}
	out.Crash, out.Stall = crash, stall
	p.out = out
	return p
}

var sections = []memmodel.Section{memmodel.SecRemainder, memmodel.SecEntry, memmodel.SecCS, memmodel.SecExit}

type victim struct {
	name string
	id   int
}

func faultVictims(sc spec.Scenario) []victim {
	return []victim{{"reader", 0}, {"writer", sc.NReaders}}
}

// tracedFaultPass replays the fault-sweep pass point by point: a spanned
// spec.Run reference execution per (algorithm, victim), then one spanned
// spec.RunCrash / spec.RunStall / spec.RunMixed per point, fanned out
// through parwork. It folds the outcomes into the E13/E15 rows the way the
// experiments do.
func tracedFaultPass(e *env, l *simLayers, seeds []int64) simPass {
	var p simPass
	var out faultOut
	sc := faultScenario()
	for _, fac := range faultFactories() {
		for _, v := range faultVictims(sc) {
			rows, bad := tracedCrashSweep(e, l, fac, sc, v)
			for _, r := range rows {
				p.check(int64(r.Points), checkCrashRow(r))
			}
			p.check(0, bad)
			out.Crash = append(out.Crash, rows...)
		}
	}
	for _, fac := range faultFactories() {
		for _, v := range faultVictims(sc) {
			rows, bad := tracedStallSweep(e, l, fac, sc, v)
			for _, r := range rows {
				p.check(int64(r.FinPoints+r.InfPoints), checkStallRow(r))
			}
			p.check(0, bad)
			out.Stall = append(out.Stall, rows...)
		}
	}
	outs, bad := tracedMixedSweep(e, l, seeds)
	p.check(0, bad)
	for _, o := range outs {
		p.check(1, checkMixed(o))
		out.Mixed.add(o)
	}
	p.out = out
	return p
}

// tracedRef runs the reference execution under a span and returns its
// report.
func tracedRef(e *env, l *simLayers, parent *openSpan, alg memmodel.Algorithm, sc spec.Scenario) *spec.Report {
	s := e.tr.begin("spec.Run", parent)
	rep := spec.Run(alg, sc)
	d := e.tr.end(s)
	l.refSteps += int64(rep.Steps)
	l.refNS += d.Nanoseconds()
	return rep
}

// fanOut runs n spanned rows through parwork and returns their outcomes
// and durations in row order.
func fanOut[T any](e *env, l *simLayers, parent *openSpan, name string, n int, cost parwork.CostHint, row func(i int) T) ([]T, []time.Duration) {
	durs := make([]time.Duration, n)
	outs := parwork.DoCost(e.workers, n, cost, func(i int) T {
		s := e.tr.begin(name, parent)
		o := row(i)
		durs[i] = e.tr.end(s)
		return o
	})
	for _, d := range durs {
		l.busy += d
	}
	l.rows += int64(n)
	return outs, durs
}

func tracedCrashSweep(e *env, l *simLayers, fac experiments.Factory, sc spec.Scenario, v victim) ([]experiments.E13CrashRow, []string) {
	root := e.tr.begin("sweep.crash", nil)
	defer e.tr.end(root)
	ref := sc
	ref.Scheduler = sched.NewRoundRobin()
	rep := tracedRef(e, l, &root, fac.New(), ref)
	if !rep.OK() {
		return nil, []string{fmt.Sprintf("E13 %s: reference run failed: %s", fac.Name, rep.Failures())}
	}
	pts := fault.ExhaustivePoints(v.id, rep.Steps)
	outs, durs := fanOut(e, l, &root, "spec.RunCrash", len(pts),
		func(i int) int64 { return int64(rep.Steps + pts[i].Step) },
		func(i int) spec.CrashOutcome {
			run := sc
			run.Scheduler = sched.NewRoundRobin()
			return spec.RunCrash(fac.New(), run, pts[i])
		})
	for _, d := range durs {
		l.crashUS = append(l.crashUS, float64(d.Nanoseconds())/1e3)
	}
	by := map[memmodel.Section]*experiments.E13CrashRow{}
	for _, s := range sections {
		by[s] = &experiments.E13CrashRow{Alg: fac.Name, Victim: v.name, Section: s.String()}
	}
	var bad []string
	for _, o := range outs {
		row := by[o.CrashSection]
		row.Points++
		row.MEViol += len(o.MEViolations)
		if o.Hung {
			row.Hangs++
		}
		if o.BudgetExceeded {
			row.Budget++
		}
		if o.Live() {
			row.Live++
		}
		if o.Err != nil {
			bad = append(bad, fmt.Sprintf("E13 %s victim %s %s: %v", fac.Name, v.name, o.Point, o.Err))
		}
	}
	var rows []experiments.E13CrashRow
	for _, s := range sections {
		if by[s].Points > 0 {
			rows = append(rows, *by[s])
		}
	}
	return rows, bad
}

func tracedStallSweep(e *env, l *simLayers, fac experiments.Factory, sc spec.Scenario, v victim) ([]experiments.E15StallRow, []string) {
	root := e.tr.begin("sweep.stall", nil)
	defer e.tr.end(root)
	ref := sc
	ref.Scheduler = sched.NewRoundRobin()
	rep := tracedRef(e, l, &root, fac.New(), ref)
	if !rep.OK() {
		return nil, []string{fmt.Sprintf("E15 %s: reference run failed: %s", fac.Name, rep.Failures())}
	}
	delay := rep.Steps + 1
	var pts []fault.StallPoint
	for k := 0; k <= rep.Steps; k++ {
		for _, d := range []int{delay, fault.Forever} {
			pts = append(pts, fault.StallPoint{Victim: v.id, Step: k, Duration: d})
		}
	}
	outs, durs := fanOut(e, l, &root, "spec.RunStall", len(pts),
		func(i int) int64 {
			c := int64(rep.Steps + pts[i].Step)
			if !pts[i].Indefinite() {
				c += int64(pts[i].Duration)
			}
			return c
		},
		func(i int) spec.StallOutcome {
			run := sc
			run.Scheduler = sched.NewRoundRobin()
			return spec.RunStall(fac.New(), run, pts[i])
		})
	for _, d := range durs {
		l.stallUS = append(l.stallUS, float64(d.Nanoseconds())/1e3)
	}
	bad := spec.StallViolations(outs)
	bypassBudget := (sc.NReaders + sc.NWriters - 1) * sc.ReaderPassages
	by := map[memmodel.Section]*experiments.E15StallRow{}
	for _, s := range sections {
		by[s] = &experiments.E15StallRow{Alg: fac.Name, Victim: v.name, Section: s.String()}
	}
	for _, o := range outs {
		row := by[o.StallSection]
		row.MEViol += len(o.MEViolations)
		row.Misclass += len(o.Misclassified)
		if o.BudgetExceeded {
			row.Budget++
		}
		if o.Point.Indefinite() {
			row.InfPoints++
			if o.SurvivorsDone {
				row.SurvLive++
			}
			if o.Doomed() {
				row.Doomed++
			}
		} else {
			row.FinPoints++
			if o.Completed {
				row.FinOK++
			}
		}
		row.MaxRB = max(row.MaxRB, o.MaxReaderBypass)
		row.MaxWB = max(row.MaxWB, o.MaxWriterBypass)
		if o.MaxReaderBypass > bypassBudget || o.MaxWriterBypass > bypassBudget {
			bad = append(bad, fmt.Sprintf("E15 %s victim %s %s: bypass %d/%d exceeds the budget of %d",
				fac.Name, v.name, o.Point, o.MaxReaderBypass, o.MaxWriterBypass, bypassBudget))
		}
	}
	var rows []experiments.E15StallRow
	for _, s := range sections {
		if r := by[s]; r.FinPoints+r.InfPoints > 0 {
			rows = append(rows, *r)
		}
	}
	return rows, bad
}

// tracedMixedSweep draws the same jobs as spec.MixedSweepSampled (one
// reference run per seed, then paired crash and stall points) and runs
// each through spec.RunMixed.
func tracedMixedSweep(e *env, l *simLayers, seeds []int64) ([]spec.StallOutcome, []string) {
	root := e.tr.begin("sweep.mixed", nil)
	defer e.tr.end(root)
	sc := faultScenario()
	type job struct {
		seed  int64
		crash fault.Point
		stall fault.StallPoint
		ref   int
	}
	var jobs []job
	var bad []string
	for _, seed := range seeds {
		ref := sc
		ref.Scheduler = sched.NewRandom(seed)
		rep := tracedRef(e, l, &root, newAFLog(), ref)
		if !rep.OK() {
			bad = append(bad, fmt.Sprintf("mixed: reference run (seed %d) failed: %s", seed, rep.Failures()))
			continue
		}
		crashes := fault.RandomPoints(seed, mixedCrashVictims, rep.Steps+1, mixedPerSeed)
		stalls := fault.RandomStallPoints(seed+1, mixedStallVictims, rep.Steps+1, mixedPerSeed, rep.Steps+1)
		for k := 0; k < min(len(crashes), len(stalls)); k++ {
			if crashes[k].Victim != stalls[k].Victim {
				jobs = append(jobs, job{seed: seed, crash: crashes[k], stall: stalls[k], ref: rep.Steps})
			}
		}
	}
	outs, _ := fanOut(e, l, &root, "spec.RunMixed", len(jobs),
		func(i int) int64 {
			c := int64(jobs[i].ref + jobs[i].stall.Step)
			if !jobs[i].stall.Indefinite() {
				c += int64(jobs[i].stall.Duration)
			}
			return c
		},
		func(i int) spec.StallOutcome {
			run := sc
			run.Scheduler = sched.NewRandom(jobs[i].seed)
			return spec.RunMixed(newAFLog(), run, []fault.Point{jobs[i].crash}, jobs[i].stall)
		})
	return outs, bad
}
