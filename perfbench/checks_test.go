package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/lockd/wire"
	"repro/internal/memmodel"
	"repro/internal/sim"
	"repro/internal/spec"
)

// Negative controls: every correctness check passes on good input and
// fails once the input is corrupted.

func TestCheckE2Row(t *testing.T) {
	good := experiments.E2Row{Alg: "af-log", N: 9, FGroups: 4, R: 2, WriterAware: 9, MaxGrowth: 2}
	if bad := checkE2Row(good); len(bad) != 0 {
		t.Fatalf("good row flagged: %v", bad)
	}
	faa := experiments.E2Row{Alg: "faa-phasefair", N: 27, WriterAware: 27, MaxGrowth: 27}
	if bad := checkE2Row(faa); len(bad) != 0 {
		t.Fatalf("fetch-and-add row held to Lemma 2: %v", bad)
	}
	for name, corrupt := range map[string]func(*experiments.E2Row){
		"lemma1": func(r *experiments.E2Row) { r.Lemma1Violations = 1 },
		"lemma2": func(r *experiments.E2Row) { r.MaxGrowth = 3.5 },
		"lemma4": func(r *experiments.E2Row) { r.WriterAware = r.N - 1 },
	} {
		r := good
		corrupt(&r)
		if len(checkE2Row(r)) == 0 {
			t.Errorf("%s: corrupted row passed", name)
		}
	}
}

func TestCheckE2Golden(t *testing.T) {
	rows, _, err := experiments.E2LowerBound([]int{9, 27}, sim.WriteThrough)
	if err != nil {
		t.Fatal(err)
	}
	if bad := checkE2Golden("..", rows); len(bad) != 0 {
		t.Fatalf("program output flagged: %v", bad)
	}
	golden, err := os.ReadFile(filepath.Join("..", goldenE2))
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	path := filepath.Join(root, goldenE2)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, bytes.Replace(golden, []byte("af-log "), []byte("af-lg  "), 1), 0o644); err != nil {
		t.Fatal(err)
	}
	if len(checkE2Golden(root, rows)) == 0 {
		t.Fatal("rows matched a corrupted golden table")
	}
	rows[3].R++
	if len(checkE2Golden("..", rows)) == 0 {
		t.Fatal("corrupted rows matched the golden table")
	}
}

func TestCheckCrashRow(t *testing.T) {
	good := experiments.E13CrashRow{Alg: "af-log", Victim: "reader", Section: "CS", Points: 10, Live: 10}
	if bad := checkCrashRow(good); len(bad) != 0 {
		t.Fatalf("good row flagged: %v", bad)
	}
	me, budget := good, good
	me.MEViol = 1
	budget.Budget = 1
	for _, r := range []experiments.E13CrashRow{me, budget} {
		if len(checkCrashRow(r)) == 0 {
			t.Errorf("corrupted row passed: %+v", r)
		}
	}
}

func TestCheckStallRow(t *testing.T) {
	good := experiments.E15StallRow{Alg: "af-log", Victim: "writer", Section: "entry", FinPoints: 4, FinOK: 4, InfPoints: 4}
	if bad := checkStallRow(good); len(bad) != 0 {
		t.Fatalf("good row flagged: %v", bad)
	}
	for name, corrupt := range map[string]func(*experiments.E15StallRow){
		"me":       func(r *experiments.E15StallRow) { r.MEViol = 1 },
		"budget":   func(r *experiments.E15StallRow) { r.Budget = 1 },
		"misclass": func(r *experiments.E15StallRow) { r.Misclass = 1 },
		"finite":   func(r *experiments.E15StallRow) { r.FinOK-- },
	} {
		r := good
		corrupt(&r)
		if len(checkStallRow(r)) == 0 {
			t.Errorf("%s: corrupted row passed", name)
		}
	}
}

func TestCheckMixed(t *testing.T) {
	good := spec.StallOutcome{Algorithm: "af-log", SurvivorsDone: true}
	if bad := checkMixed(good); len(bad) != 0 {
		t.Fatalf("good outcome flagged: %v", bad)
	}
	for name, corrupt := range map[string]func(*spec.StallOutcome){
		"me":       func(o *spec.StallOutcome) { o.MEViolations = []string{"two writers"} },
		"budget":   func(o *spec.StallOutcome) { o.BudgetExceeded = true },
		"misclass": func(o *spec.StallOutcome) { o.Misclassified = []string{"p1"} },
	} {
		o := good
		corrupt(&o)
		if len(checkMixed(o)) == 0 {
			t.Errorf("%s: corrupted outcome passed", name)
		}
	}
}

// The traced stall sweep relies on spec.StallViolations; a finite stall
// that wedged the execution must be reported.
func TestStallViolationsControl(t *testing.T) {
	ok := spec.StallOutcome{Algorithm: "af-log", Point: fault.StallPoint{Victim: 2, Step: 3, Duration: 40},
		Completed: true, StallSection: memmodel.SecEntry}
	if v := spec.StallViolations([]spec.StallOutcome{ok}); len(v) != 0 {
		t.Fatalf("good outcome flagged: %v", v)
	}
	wedged := ok
	wedged.Completed = false
	if len(spec.StallViolations([]spec.StallOutcome{wedged})) == 0 {
		t.Fatal("wedged finite stall passed")
	}
}

func TestCheckLedger(t *testing.T) {
	stats := func(writes, revoked uint64) wire.Stats {
		return wire.Stats{Shards: []wire.ShardStats{{WriteGrants: writes, RevokedWrite: revoked}}}
	}
	l := newLedger()
	l.add("key-00", 1)
	l.add("key-00", 2)
	l.add("key-01", 1)
	if bad := checkLedger(l, stats(10, 0), stats(14, 1)); len(bad) != 0 {
		t.Fatalf("consistent ledger flagged: %v", bad)
	}
	if len(checkLedger(l, stats(10, 0), stats(14, 0))) == 0 {
		t.Error("server grants that clients never saw passed")
	}
	l.add("key-01", 1)
	if len(checkLedger(l, stats(10, 0), stats(14, 0))) == 0 {
		t.Error("write token granted twice passed")
	}
}

func TestPercentileGuard(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i)
		}
		return out
	}
	cases := []struct {
		n    int
		p    float64
		want bool
	}{
		{20, 50, true}, {19, 50, false}, {1000, 99, true}, {999, 99, false}, {0, 50, false},
	}
	for _, c := range cases {
		if _, ok := percentile(xs(c.n), c.p); ok != c.want {
			t.Errorf("p%g of %d samples: reported=%t, want %t", c.p, c.n, ok, c.want)
		}
	}
	o := newOutcome()
	o.setPct("x", xs(100), 99, 1)
	if _, ok := o.values["x"]; ok {
		t.Error("guarded percentile reported as a number")
	}
	if _, ok := o.missing["x"]; !ok {
		t.Error("guarded percentile not reported missing")
	}
}

func TestSpanSelfTime(t *testing.T) {
	parent := span{ID: 1, Start: 0, End: 100}
	kids := []span{{Start: 10, End: 30}, {Start: 20, End: 40}, {Start: 90, End: 120}}
	if got := covered(parent, kids); got != 40 {
		t.Fatalf("covered = %d, want 40", got)
	}
}

// TestTracedReproducesUntraced runs the E2 grid both ways.
func TestTracedReproducesUntraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full E2 grid twice")
	}
	e := &env{workers: 2, tr: newTracer()}
	want := lowerboundPass()
	got := tracedLowerboundPass(e, &simLayers{})
	if want.failed != 0 || got.failed != 0 {
		t.Fatalf("failed cells: untraced %v, traced %v", want.problems, got.problems)
	}
	if !reflect.DeepEqual(want.out, got.out) {
		t.Fatal("traced E2 rows differ from experiments.E2LowerBound")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metrics the program
// prints in step.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &cfg); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range cfg.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, program has %v", names, want)
	}
	same := func(what string, got []struct{ Name, Unit string }, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", what, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: %s/%s in BENCHMARK.json, %s/%s in the program", what, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", cfg.EndToEnd, endToEnd)
	same("per_layer", cfg.PerLayer, perLayer)
}

// TestTracedFaultPassReproduces checks the per-point replay of the fault
// sweeps against the sweeps themselves.
func TestTracedFaultPassReproduces(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the fault sweeps twice")
	}
	seeds := mixedSeedsFor(1)
	e := &env{workers: 2, tr: newTracer()}
	want := faultPass(seeds)
	var l simLayers
	got := tracedFaultPass(e, &l, seeds)
	if want.failed != 0 || got.failed != 0 {
		t.Fatalf("failed rows: untraced %v, traced %v", want.problems, got.problems)
	}
	if !reflect.DeepEqual(want.out, got.out) || want.execs != got.execs {
		t.Fatal("traced fault sweeps differ from the experiments' rows")
	}
	if l.rows != got.execs || len(l.crashUS) == 0 || len(l.stallUS) == 0 {
		t.Fatalf("layer readings: %d rows for %d executions", l.rows, got.execs)
	}
}

// TestClosedLoop drives an in-memory server with traced clients while the
// window is sliced, and checks the ledger and the counts agree.
func TestClosedLoop(t *testing.T) {
	svc, err := startService(memoryReadMostly.config(""), 2)
	if err != nil {
		t.Fatal(err)
	}
	before := svc.srv.Stats()
	var done atomic.Int64
	stop := sliceWindow(400*time.Millisecond, &done)
	tr := newTracer()
	l := closedLoop(svc, memoryReadMostly, keyNames(8), clientRNGs(1, 2),
		loopOpts{d: 300 * time.Millisecond, tr: tr, latencies: true, keep: 10, done: &done})
	st := stop()
	after := svc.srv.Stats()
	svc.stop(false)
	if l.failed != 0 || l.passages == 0 {
		t.Fatalf("%d passages, %d failed: %v", l.passages, l.failed, firstN(l.problems, 3))
	}
	if bad := checkLedger(l.ledger, before, after); len(bad) != 0 {
		t.Fatal(bad)
	}
	if done.Load() != l.passages || int64(len(l.release)) != l.passages || len(l.kept) != 10 {
		t.Fatalf("counted %d, %d releases, kept %d, for %d passages", done.Load(), len(l.release), len(l.kept), l.passages)
	}
	if kept, _ := tr.stored(); kept != 3*int(l.passages) {
		t.Fatalf("%d spans for %d passages", kept, l.passages)
	}
	if len(st.rate) == 0 {
		t.Fatal("no slices recorded")
	}
}
