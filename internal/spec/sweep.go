package spec

// The fault-sweep driver. Every sweep entry point in this package — crash,
// stall, mixed and recovery, exhaustive and sampled — is a sweep value run
// through do: reference runs first (one per schedule), then one row per
// (schedule, fault point) pair, fanned out through parwork.DoRobust.

import (
	"fmt"
	"slices"

	"repro/internal/checkpoint"
	"repro/internal/parwork"
	"repro/internal/sched"
)

// sweep describes one fault sweep. P is the fault a row injects, O the
// row's outcome. Each schedule's fault-free reference run yields its step
// count, from which points enumerates that schedule's rows. Exhaustive
// sweeps have exactly one schedule; sampled sweeps have one per seed.
type sweep[P, O any] struct {
	// kind names the sweep to the checkpoint store: the section is
	// kind/alg, and kind heads the fingerprint.
	kind string
	// noun names the sweep in reference-run errors ("crash sweep: ...").
	noun string
	// alg is the algorithm's name.
	alg string
	// sc is the caller's scenario; each run gets its own Scheduler.
	sc Scenario
	// ref executes the reference run and returns its step count, or its
	// rendered failures ("" when it passed).
	ref func(sc Scenario) (steps int, failures string)
	// points enumerates a schedule's fault points.
	points func(seed int64, steps int) []P
	// params renders the sweep's own parameters and the per-schedule
	// reference step counts for the fingerprint. With the kind,
	// algorithm, scenario and scheduler name they must determine the row
	// set exactly and contain nothing execution-dependent.
	params func(steps []int) string
	// cost is the scheduling hint for a row of a schedule whose reference
	// run took steps (parwork.CostHint semantics: hints never affect
	// results, only the schedule).
	cost func(steps int, pt P) int64
	// label describes a row's fault point in failure reports.
	label func(pt P) string
	// run executes one row on a worker's cached runner.
	run func(c *runnerCache, sc Scenario, pt P) O
	// failed builds the keep-going placeholder outcome for a failed row.
	failed func(pt P, f *parwork.RowFailure) O
}

// exhaustive runs the sweep over the single schedule mkSched builds; nil
// selects round-robin.
func (s sweep[P, O]) exhaustive(mkSched func() sched.Scheduler) ([]O, error) {
	if mkSched == nil {
		mkSched = func() sched.Scheduler { return sched.NewRoundRobin() }
	}
	return s.do([]int64{0}, false, func(int64) sched.Scheduler { return mkSched() })
}

// sampled runs the sweep over one schedule per seed; a nil mkSched
// selects sched.NewRandom. Row labels carry the row's seed.
func (s sweep[P, O]) sampled(seeds []int64, mkSched func(seed int64) sched.Scheduler) ([]O, error) {
	if mkSched == nil {
		mkSched = func(seed int64) sched.Scheduler { return sched.NewRandom(seed) }
	}
	return s.do(seeds, true, mkSched)
}

// do runs the reference runs, then every row, under the scenario's
// effective robust options (zero options when none are set). mkSched is
// called once per reference run, then once for the fingerprint's
// scheduler name, then once per row.
func (s sweep[P, O]) do(seeds []int64, sampled bool, mkSched func(seed int64) sched.Scheduler) ([]O, error) {
	workers := sweepWorkers(s.sc)
	type schedule struct {
		steps int
		pts   []P
	}
	scheds, err := parwork.DoErr(workers, len(seeds), func(j int) (schedule, error) {
		ref := s.sc
		ref.Scheduler = mkSched(seeds[j])
		steps, failures := s.ref(ref)
		if failures != "" {
			at := ""
			if sampled {
				at = fmt.Sprintf(" (seed %d)", seeds[j])
			}
			return schedule{}, fmt.Errorf("%s sweep: reference run of %s%s failed: %s", s.noun, s.alg, at, failures)
		}
		return schedule{steps, s.points(seeds[j], steps)}, nil
	})
	if err != nil {
		return nil, err
	}
	schedName := "none"
	if len(seeds) > 0 {
		schedName = mkSched(seeds[0]).Name()
	}

	// Rows are indexed in place: schedule j owns rows [offs[j],
	// offs[j]+len(pts)), so row i belongs to the last j with offs[j] <= i.
	offs := make([]int, len(scheds))
	n := 0
	for j := range scheds {
		offs[j] = n
		n += len(scheds[j].pts)
	}
	row := func(i int) (int, P) {
		j, _ := slices.BinarySearch(offs, i+1)
		j--
		return j, scheds[j].pts[i-offs[j]]
	}

	ro := EffectiveRobust(s.sc)
	opt := parwork.Options{
		Workers:    workers,
		KeepGoing:  ro.KeepGoing,
		RowTimeout: ro.RowTimeout,
		Stop:       ro.Stop,
		AfterRow:   ro.AfterRow,
		Cost: func(i int) int64 {
			j, pt := row(i)
			return s.cost(scheds[j].steps, pt)
		},
		RowInfo: func(i int) string {
			j, pt := row(i)
			if sampled {
				return fmt.Sprintf("seed=%d %s", seeds[j], s.label(pt))
			}
			return s.label(pt)
		},
	}
	if ro.Store != nil {
		steps := make([]int, len(scheds))
		for j := range scheds {
			steps[j] = scheds[j].steps
		}
		fp := checkpoint.Fingerprint(s.kind, s.alg, fpScenario(s.sc), schedName, s.params(steps))
		sec, err := ro.Store.Section(s.kind+"/"+s.alg, fp, n)
		if err != nil {
			return nil, err
		}
		opt.Sink = sec
	}
	outs, _, err := parwork.DoRobust(opt, n, parwork.JSONCodec[O](),
		func() *runnerCache { return &runnerCache{} },
		(*runnerCache).close,
		func(c *runnerCache, i int) O {
			j, pt := row(i)
			run := s.sc
			run.Scheduler = mkSched(seeds[j])
			return s.run(c, run, pt)
		},
		func(i int, f *parwork.RowFailure) O {
			_, pt := row(i)
			return s.failed(pt, f)
		})
	if err != nil {
		return nil, err
	}
	return outs, nil
}

// fpScenario renders the scenario fields a sweep fingerprint must cover:
// everything String() shows plus the step budget and CS padding, which
// also shape results. The scheduler name is fingerprinted separately (the
// sweeps ignore sc.Scheduler in favor of their mkSched factories).
func fpScenario(sc Scenario) string {
	return fmt.Sprintf("%s csreads=%d maxsteps=%d", sc.String(), sc.CSReads, sc.MaxSteps)
}
