package sim

import (
	"runtime"
	"slices"
	"testing"

	"repro/internal/sched"
	"repro/internal/trace"
)

// TestCloseLeavesNoGoroutines pins that process coroutines are goroutines
// the runner fully owns: Close ends every one of them — idle in the pool,
// parked on an await, at a barrier, crashed, and a crashed incarnation kept
// from Restart.
func TestCloseLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	r := New(Config{})
	v := r.Alloc("v", 0)
	r.AddProc(func(p Proc) { p.Await(v, func(x uint64) bool { return x == 1 }) })
	r.AddProc(func(p Proc) {
		p.Barrier()
		p.Write(v, 1)
	})
	r.AddProc(func(p Proc) {
		p.Read(v)
		p.Read(v)
	})
	r.AddProc(func(p Proc) { p.Read(v) })
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	if err := r.Crash(2); err != nil {
		t.Fatal(err)
	}
	if err := r.Restart(2, func(p Proc) { p.Barrier() }); err != nil {
		t.Fatal(err)
	}
	if err := runToEnd(t, r); err != nil {
		t.Fatal(err)
	}
	if got := len(r.coros); got != 5 {
		t.Fatalf("runner holds %d coroutines, want 5 (4 processes + 1 restarted incarnation)", got)
	}
	if during := runtime.NumGoroutine(); during < before+len(r.coros) {
		t.Fatalf("%d goroutines with %d coroutines alive, started from %d", during, len(r.coros), before)
	}
	r.Close()
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines leaked by Close: %d before, %d after", before, after)
	}
	r.Close() // a second Close is a no-op
}

type programPanic struct{}

// recovered runs f and returns the value it panicked with, or nil.
func recovered(f func()) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
}

// TestProgramPanicReachesDriver pins that a panicking program surfaces in
// the driver's Step or StepProc call with its own panic value, and that
// Reset drops the dead coroutine instead of pooling it: the runner's next
// execution still matches a fresh runner's.
func TestProgramPanicReachesDriver(t *testing.T) {
	fresh := New(Config{})
	defer fresh.Close()
	want := spinPair(t, fresh)

	for name, step := range map[string]func(r *Runner){
		"Step":     func(r *Runner) { _, _ = r.Step() },
		"StepProc": func(r *Runner) { _ = r.StepProc(0) },
	} {
		t.Run(name, func(t *testing.T) {
			r := New(Config{})
			defer r.Close()
			v := r.Alloc("v", 0)
			r.AddProc(func(p Proc) {
				p.Read(v)
				panic(programPanic{})
			})
			r.AddProc(func(p Proc) { p.Read(v) })
			if err := r.Start(); err != nil {
				t.Fatal(err)
			}
			dead := r.procs[0].co
			if got := recovered(func() { step(r) }); got != (programPanic{}) {
				t.Fatalf("driver recovered %v, want the program's panic value", got)
			}

			r.Reset(Config{})
			if slices.Contains(r.coros, dead) || slices.Contains(r.idle, dead) {
				t.Fatal("Reset pooled the coroutine of a panicked program")
			}
			if got := len(r.idle); got != 1 {
				t.Errorf("%d idle coroutines after Reset, want 1 (the surviving process's)", got)
			}
			if got := spinPair(t, r); got != want {
				t.Errorf("execution after a program panic diverged:\n got: %s\nwant: %s", got, want)
			}
		})
	}
}

// recordingScheduler wraps a scheduler and records every pick.
type recordingScheduler struct {
	sched.Scheduler
	picks []int
}

func (s *recordingScheduler) Next(step int, poised []int) int {
	id := s.Scheduler.Next(step, poised)
	s.picks = append(s.picks, id)
	return id
}

// TestStepProcMatchesStep pins StepProc(id) as Step under a scheduler that
// picks id: replaying a seeded random schedule's picks through StepProc
// yields a byte-identical execution.
func TestStepProcMatchesStep(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rec := &recordingScheduler{Scheduler: sched.NewRandom(seed)}
		ref := New(Config{Scheduler: rec})
		want := spinPair(t, ref)
		ref.Close()

		r := New(Config{})
		events := spinPairStart(t, r)
		for _, id := range rec.picks {
			if err := r.StepProc(id); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		if !r.Done() {
			t.Fatalf("seed %d: replayed execution did not complete", seed)
		}
		if got := fingerprint(r, *events); got != want {
			t.Fatalf("seed %d: StepProc replay diverged:\n got: %s\nwant: %s", seed, got, want)
		}
		r.Close()
	}
}

// TestStepProcErrors pins StepProc's checks: it refuses before Start, for
// unknown, awaiting, barrier-blocked, stalled and finished processes, and
// past the step budget, without taking a step.
func TestStepProcErrors(t *testing.T) {
	r := New(Config{MaxSteps: 3})
	defer r.Close()
	v := r.Alloc("v", 0)
	r.AddProc(func(p Proc) { p.Await(v, func(x uint64) bool { return x == 1 }) })
	r.AddProc(func(p Proc) { p.Barrier() })
	r.AddProc(func(p Proc) {
		p.Read(v)
		p.Read(v)
	})
	r.AddProc(func(p Proc) { p.Read(v) })
	if err := r.StepProc(0); err == nil {
		t.Error("StepProc before Start must error")
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	if err := r.StepProc(0); err != nil { // the await's first check parks p0
		t.Fatal(err)
	}
	if err := r.StepProc(3); err != nil { // p3 finishes
		t.Fatal(err)
	}
	if err := r.Stall(2, Forever); err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{-1, 4, 0, 1, 2, 3} {
		if err := r.StepProc(id); err == nil {
			t.Errorf("StepProc(%d) must error", id)
		}
	}
	if err := r.Resume(2); err != nil {
		t.Fatal(err)
	}
	if err := r.StepProc(2); err != nil {
		t.Fatal(err)
	}
	if got := r.StepCount(); got != 3 {
		t.Fatalf("StepCount = %d, want 3", got)
	}
	if err := r.StepProc(2); err == nil {
		t.Error("StepProc past MaxSteps must error")
	}
}

// TestStallIssuedMidRunExpiresOnTime pins that a finite stall injected in
// the middle of an execution expires at exactly its deadline, through both
// Step and StepProc, although the expiry scan is skipped while no process
// is stalled.
func TestStallIssuedMidRunExpiresOnTime(t *testing.T) {
	var order []int
	r := New(Config{Observer: func(e trace.Event) {
		if !e.SectionChange {
			order = append(order, e.Proc)
		}
	}})
	defer r.Close()
	v := r.Alloc("v", 0)
	for i := 0; i < 2; i++ {
		r.AddProc(func(p Proc) {
			for k := uint64(0); k < 10; k++ {
				p.Write(v, k)
			}
		})
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	stepN(t, r, 4) // round-robin: p0 p1 p0 p1
	if err := r.Stall(0, 3); err != nil {
		t.Fatal(err)
	}
	stepN(t, r, 4)
	if got, want := order[4:8], []int{1, 1, 1, 0}; !slices.Equal(got, want) {
		t.Fatalf("steps 4-7 taken by %v, want %v (p0 stalled for exactly 3 steps)", got, want)
	}
	if r.IsStalled(0) || r.nStalled != 0 {
		t.Fatalf("stall not cleared at its deadline (IsStalled=%v, nStalled=%d)", r.IsStalled(0), r.nStalled)
	}

	if err := r.Stall(1, 2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := r.StepProc(1); err == nil {
			t.Fatalf("StepProc(1) succeeded %d steps into a 2-step stall", i)
		}
		if err := r.StepProc(0); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.StepProc(1); err != nil {
		t.Fatalf("StepProc(1) at the stall's deadline: %v", err)
	}
}
