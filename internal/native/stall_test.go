package native

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/memmodel"
)

// exerciseStalledHolder is the native fail-slow stress: with GOMAXPROCS
// squeezed far below the goroutine count, a writer acquires the lock and
// stops holding it — the scheduler-level analogue of the simulator's stall
// injection. Oversubscribed readers and writers hammer TryLock with short
// budgets, so their deadlines expire mid-backoff. The holder releases only
// after every one of those attempts has returned, which makes the property
// causal rather than a wall-clock bound: every attempt must return false
// (never block inside the protocol waiting for the stalled holder — such an
// attempt never returns and the test times out), every failed attempt must
// leave the lock state clean enough for the post-release acquisitions to
// succeed, and no goroutine may leak.
func exerciseStalledHolder(t *testing.T, alg memmodel.Algorithm) {
	t.Helper()
	old := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(old)

	const (
		nReaders  = 8
		nWriters  = 4
		tryBudget = 2 * time.Millisecond
	)
	lock, err := NewLock(alg, nReaders, nWriters)
	if err != nil {
		t.Fatal(err)
	}
	if !lock.Abortable() {
		t.Fatalf("%s is not abortable", alg.Name())
	}

	before := runtime.NumGoroutine()
	var timedOut atomic.Int64
	held := make(chan struct{})         // closed once the holder has the lock
	attemptsDone := make(chan struct{}) // closed once every attempt returned
	released := make(chan struct{})     // closed once the holder unlocked

	go func() { // the fail-slow holder: writer 0
		h := lock.Writer(0)
		h.Lock()
		close(held)
		<-attemptsDone // stalled while holding the lock
		h.Unlock()
		close(released)
	}()
	<-held

	// Phase 1: while the holder stalls, every short-budget attempt must
	// time out through the backoff loop rather than block.
	var attempts sync.WaitGroup
	attempt := func(try func(time.Duration) bool) {
		defer attempts.Done()
		if try(tryBudget) {
			t.Errorf("TryLock acquired the lock while writer 0 held it")
			return
		}
		timedOut.Add(1)
	}
	for rid := 0; rid < nReaders; rid++ {
		h := lock.Reader(rid)
		attempts.Add(1)
		go attempt(func(d time.Duration) bool {
			if !h.TryLock(d) {
				return false
			}
			h.Unlock()
			return true
		})
	}
	for wid := 1; wid < nWriters; wid++ {
		h := lock.Writer(wid)
		attempts.Add(1)
		go attempt(func(d time.Duration) bool {
			if !h.TryLock(d) {
				return false
			}
			h.Unlock()
			return true
		})
	}
	attempts.Wait()
	close(attemptsDone)

	// Phase 2: once the holder resumes and releases, generous-budget
	// retries must get in — the timeouts above abandoned cleanly.
	<-released
	var post sync.WaitGroup
	var postAcquired atomic.Int64
	for rid := 0; rid < nReaders; rid++ {
		h := lock.Reader(rid)
		post.Add(1)
		go func() {
			defer post.Done()
			if h.TryLock(2 * time.Second) {
				postAcquired.Add(1)
				h.Unlock()
			}
		}()
	}
	post.Wait()

	if got, want := timedOut.Load(), int64(nReaders+nWriters-1); got != want {
		t.Errorf("%d/%d attempts timed out against the stalled holder", got, want)
	}
	if got := postAcquired.Load(); got != nReaders {
		t.Errorf("after release only %d/%d readers acquired; a timed-out attempt corrupted the lock state", got, nReaders)
	}

	// Leak check: every goroutine this test spawned must be gone.
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.Gosched()
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Errorf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
			break
		}
		time.Sleep(time.Millisecond)
	}
}

func TestStalledHolderAF(t *testing.T) {
	exerciseStalledHolder(t, core.New(core.FLog))
}

func TestStalledHolderCentralized(t *testing.T) {
	exerciseStalledHolder(t, baseline.NewCentralized())
}
