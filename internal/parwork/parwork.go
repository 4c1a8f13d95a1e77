// Package parwork is the deterministic parallel execution engine for the
// repository's sweeps. Every sweep in internal/spec, internal/fault,
// internal/experiments and internal/explore is a set of INDEPENDENT
// simulated executions — one per fault point, grid cell, seed or schedule
// subtree — whose results are aggregated afterwards. parwork fans those
// jobs out across a bounded worker pool and delivers results in canonical
// index order, so the parallel output is byte-identical to the serial
// output: job i writes exactly result slot i, no matter which worker runs
// it or when it finishes.
//
// Scheduling is cost-aware and work-stealing (see steal.go): callers may
// pass a CostHint describing each row's known shape, which seeds rows
// largest-first across per-worker deques and sizes claim chunks so cheap
// rows amortize claim overhead while expensive rows can be stolen
// individually. Hints change only wall clock, never results.
//
// The determinism contract is the caller's side of the bargain: each job
// must be a pure function of its index (fresh algorithm instance, fresh
// scheduler, fresh runner per job — never shared mutable state), because
// jobs run concurrently and in no particular order. The spec harness's
// sweep entry points uphold this by constructing everything per run and by
// forcing serial execution when a caller installs a shared trace Observer.
//
// This package deliberately lives OUTSIDE the simulated shared-memory
// discipline: it uses real goroutines and sync because it coordinates
// whole simulator executions, not simulated shared-memory steps. The
// rwlint memdiscipline analyzer's scope (lint.AlgorithmPackages) does not
// — and must not — include it; see internal/lint.
package parwork

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// defaultWorkers holds the process-wide default worker count; 0 means
// runtime.GOMAXPROCS(0). The cmd binaries set it from their -parallel
// flags.
var defaultWorkers atomic.Int64

// SetDefault sets the process-wide default worker count used when a sweep
// is invoked with no explicit parallelism (Workers(0)). n <= 0 restores
// the initial default, GOMAXPROCS.
func SetDefault(n int) {
	if n < 0 {
		n = 0
	}
	defaultWorkers.Store(int64(n))
}

// Default returns the current default worker count.
func Default() int {
	if n := defaultWorkers.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// Workers normalizes a worker-count request: n > 0 is taken verbatim,
// anything else resolves to Default().
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return Default()
}

// Do runs job(i) for every i in [0, n) across at most workers concurrent
// goroutines (Workers-normalized) and returns the results in index order.
// With one worker the jobs run serially, in order, on the calling
// goroutine; the output is identical either way for pure jobs. A panic in
// any job is re-raised on the calling goroutine after all workers stop.
func Do[T any](workers, n int, job func(i int) T) []T {
	return DoCost(workers, n, nil, job)
}

// DoCost is Do with a CostHint: rows are seeded largest-first across the
// worker deques and claimed in cost-sized chunks (see CostHint). The
// results are identical to Do's; only the schedule differs.
func DoCost[T any](workers, n int, cost CostHint, job func(i int) T) []T {
	if n <= 0 {
		return nil
	}
	out := make([]T, n)
	run(workers, n, cost, func(next func() (int, bool)) {
		for {
			i, ok := next()
			if !ok {
				return
			}
			out[i] = job(i)
		}
	})
	return out
}

// DoErr is Do for jobs that can fail. Every job runs regardless of other
// jobs' failures (results must not depend on scheduling), and the error of
// the LOWEST failing index is returned — the same error a serial loop that
// stops at the first failure would report. On error the results are
// discarded and nil is returned.
func DoErr[T any](workers, n int, job func(i int) (T, error)) ([]T, error) {
	return DoErrCost(workers, n, nil, job)
}

// DoErrCost is DoErr with a CostHint (see DoCost).
func DoErrCost[T any](workers, n int, cost CostHint, job func(i int) (T, error)) ([]T, error) {
	type slot struct {
		v   T
		err error
	}
	slots := DoCost(workers, n, cost, func(i int) slot {
		v, err := job(i)
		return slot{v, err}
	})
	out := make([]T, n)
	for i := range slots {
		if slots[i].err != nil {
			return nil, slots[i].err
		}
		out[i] = slots[i].v
	}
	return out, nil
}

// run executes the worker-loop body on a bounded pool of Workers(workers)
// goroutines (capped at n), one body invocation per worker. body draws job
// indices from its worker's claim function until it is exhausted; with one
// worker it runs on the calling goroutine with a plain sequential claim.
//
// A panic in any worker poisons the claim functions: the surviving workers
// finish only the job they are on and then drain, rather than claiming and
// running every outstanding index before the panic re-raises (fail-fast —
// per-row isolation is DoRobust's KeepGoing mode). Jobs that merely return
// errors (DoErr) do not poison anything: every job still runs, as DoErr's
// lowest-index-error contract requires.
func run(workers, n int, cost CostHint, body func(next func() (int, bool))) {
	w := Workers(workers)
	if w > n {
		w = n
	}
	s := newScheduler(n, w, cost)
	var poisoned atomic.Bool
	guarded := func(k int) func() (int, bool) {
		next := s.claimer(k)
		return func() (int, bool) {
			if poisoned.Load() {
				return 0, false
			}
			return next()
		}
	}
	if w <= 1 {
		body(guarded(0))
		return
	}
	var wg sync.WaitGroup
	var panicked atomic.Pointer[panicValue]
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func(k int) {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					poisoned.Store(true)
					panicked.CompareAndSwap(nil, &panicValue{v})
				}
			}()
			body(guarded(k))
		}(k)
	}
	wg.Wait()
	if pv := panicked.Load(); pv != nil {
		panic(pv.v)
	}
}

// panicValue boxes a recovered panic so a nil-interface payload still
// round-trips through the atomic pointer.
type panicValue struct{ v any }
