package sim

import (
	"fmt"
	"testing"

	"repro/internal/memmodel"
	"repro/internal/sched"
	"repro/internal/trace"
)

// spinPairStart registers a tiny two-process workload on r exercising
// every operation kind — writes, reads, CAS, fetch-add, a single-variable
// await (spin) and a multi-variable await — and starts it. The returned
// slice collects the execution's trace for fingerprint.
func spinPairStart(t *testing.T, r *Runner) *[]string {
	t.Helper()
	events := new([]string)
	r.cfg.Observer = func(e trace.Event) {
		*events = append(*events, fmt.Sprintf("%d p%d %v %s %d->%d rmr=%v",
			e.Step, e.Proc, e.Kind, e.Section, e.Before, e.After, e.RMR))
	}
	flag := r.Alloc("flag", 0)
	ack := r.Alloc("ack", 0)
	count := r.AllocN("count", 2, 0)
	r.AddProc(func(p Proc) {
		p.Write(flag, 1)
		p.FetchAdd(count[0], 3)
		p.Await(ack, func(x uint64) bool { return x == 1 })
		p.CAS(count[1], 0, 7)
	})
	r.AddProc(func(p Proc) {
		p.Await(flag, func(x uint64) bool { return x == 1 })
		p.Write(ack, 1)
		vals := p.AwaitMulti([]memmodel.Var{count[0], count[1]},
			func(vs []uint64) bool { return vs[0] == 3 && vs[1] == 7 })
		if vals[0] != 3 || vals[1] != 7 {
			t.Errorf("AwaitMulti vals = %v, want [3 7]", vals)
		}
	})
	if err := r.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	return events
}

// fingerprint renders an execution — steps, per-process accounts and the
// trace — so two runs can be compared byte-for-byte.
func fingerprint(r *Runner, events []string) string {
	fp := fmt.Sprintf("steps=%d", r.StepCount())
	for id := 0; id < r.NumProcs(); id++ {
		a := r.Account(id)
		fp += fmt.Sprintf(" p%d{steps=%d rmr=%d}", id, a.TotalSteps, a.TotalRMR)
	}
	for _, e := range events {
		fp += "\n" + e
	}
	return fp
}

// spinPair runs the spinPairStart workload to completion and returns its
// fingerprint.
func spinPair(t *testing.T, r *Runner) string {
	t.Helper()
	events := spinPairStart(t, r)
	if err := r.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return fingerprint(r, *events)
}

// stepN takes n scheduled steps, failing the test if any errors.
func stepN(t *testing.T, r *Runner, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := r.Step(); err != nil {
			t.Fatalf("Step: %v", err)
		}
	}
}

// TestResetMatchesFreshRunner pins the Reset contract: an execution on a
// reused (Reset) runner is byte-identical — same trace, steps, RMRs — to
// the same execution on a freshly constructed runner, for every protocol,
// whatever the previous execution left behind: a completed run, programs
// aborted mid-operation (one with a deferred operation of its own), or
// crashed incarnations kept from Restart. Reset
// unwinds those programs and pools their coroutines, so the measured
// execution creates no coroutine of its own.
func TestResetMatchesFreshRunner(t *testing.T) {
	previous := []struct {
		name string
		run  func(t *testing.T, r *Runner)
	}{
		{"completed", func(t *testing.T, r *Runner) { spinPair(t, r) }},
		{"aborted mid-program", func(t *testing.T, r *Runner) {
			spinPairStart(t, r)
			stepN(t, r, 3)
		}},
		{"aborted inside a deferred operation", func(t *testing.T, r *Runner) {
			v := r.Alloc("v", 0)
			r.AddProc(func(p Proc) {
				defer p.Write(v, 2) // must not run as a step when Reset unwinds
				p.Await(v, func(x uint64) bool { return x == 1 })
			})
			if err := r.Start(); err != nil {
				t.Fatal(err)
			}
			stepN(t, r, 1)
		}},
		{"crash and restart", func(t *testing.T, r *Runner) {
			spinPairStart(t, r)
			stepN(t, r, 2)
			if err := r.Crash(1); err != nil {
				t.Fatal(err)
			}
			if err := r.Restart(1, func(p Proc) { p.Barrier() }); err != nil {
				t.Fatal(err)
			}
			if err := r.Crash(0); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, proto := range []Protocol{WriteThrough, WriteBack, DSM} {
		t.Run(proto.String(), func(t *testing.T) {
			cfg := Config{Protocol: proto, Scheduler: sched.NewRoundRobin()}
			fresh := New(cfg)
			defer fresh.Close()
			want := spinPair(t, fresh)

			reused := New(cfg)
			defer reused.Close()
			for _, prev := range previous {
				reused.Reset(Config{Protocol: proto, Scheduler: sched.NewRoundRobin()})
				prev.run(t, reused)
				reused.Reset(Config{Protocol: proto, Scheduler: sched.NewRoundRobin()})
				pooled := len(reused.coros)
				if len(reused.idle) != pooled {
					t.Fatalf("after %s: %d of %d coroutines idle after Reset", prev.name, len(reused.idle), pooled)
				}
				if got := spinPair(t, reused); got != want {
					t.Fatalf("Reset after %s diverged:\n got: %s\nwant: %s", prev.name, got, want)
				}
				if len(reused.coros) != pooled {
					t.Errorf("after %s: the execution grew the pool from %d to %d coroutines; pooled ones must be reused",
						prev.name, pooled, len(reused.coros))
				}
			}
		})
	}
}

// TestResetAfterCrash verifies Reset recovers a runner wedged by a
// crash-stopped process: the aborted goroutines are reaped and the next
// execution is clean.
func TestResetAfterCrash(t *testing.T) {
	r := New(Config{})
	defer r.Close()
	v := r.Alloc("v", 0)
	r.AddProc(func(p Proc) {
		p.Write(v, 1)
		p.Await(v, func(x uint64) bool { return x == 2 })
	})
	if err := r.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if _, err := r.Step(); err != nil {
		t.Fatalf("Step: %v", err)
	}
	if err := r.Crash(0); err != nil {
		t.Fatalf("Crash: %v", err)
	}

	r.Reset(Config{})
	w := r.Alloc("w", 5)
	r.AddProc(func(p Proc) { p.Write(w, 6) })
	if err := r.Start(); err != nil {
		t.Fatalf("Start after Reset: %v", err)
	}
	if err := r.Run(); err != nil {
		t.Fatalf("Run after Reset: %v", err)
	}
	if got := r.Value(w); got != 6 {
		t.Errorf("value after Reset run = %d, want 6", got)
	}
	if got := r.Account(0).TotalSteps; got != 1 {
		t.Errorf("TotalSteps after Reset = %d, want 1 (stale account state leaked)", got)
	}
}

// TestAwaitMultiValsEscape pins that the values returned by AwaitMulti are
// the caller's to keep: a later multi-await on the same runner must not
// clobber them (the runner evaluates predicates on a reused scratch slice
// and must copy on completion).
func TestAwaitMultiValsEscape(t *testing.T) {
	r := New(Config{})
	defer r.Close()
	a := r.Alloc("a", 1)
	b := r.Alloc("b", 2)
	var first []uint64
	r.AddProc(func(p Proc) {
		first = p.AwaitMulti([]memmodel.Var{a, b}, func(vs []uint64) bool { return true })
		p.Write(a, 100)
		p.Write(b, 200)
		p.AwaitMulti([]memmodel.Var{a, b}, func(vs []uint64) bool { return true })
	})
	if err := r.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := r.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if first[0] != 1 || first[1] != 2 {
		t.Errorf("first AwaitMulti vals mutated to %v, want [1 2]", first)
	}
}
