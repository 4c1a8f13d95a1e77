package native

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/memmodel"
)

// exerciseTry hammers a lock with a mix of blocking Lock and time-bounded
// TryLock passages; writers make non-atomic two-word updates, readers
// check them for tears, and the final totals must account for exactly the
// passages whose TryLock succeeded. Under -race this is the
// happens-before check for the abortable entry paths: both the acquired
// path and the abandon path must synchronize correctly with concurrent
// blocking passages.
//
// Crash-exit paths (killing a goroutine mid-entry with runtime.Goexit or
// panic) are deliberately not exercised: the paper's algorithms are not
// recoverable, so a goroutine dying between its first entry-section step
// and its exit wedges the lock by design — all such a native test could
// assert is "everything hangs", nondeterministically. The crash-stop
// behavior is instead proven deterministically on the simulator, at every
// step boundary, by the internal/fault sweep (rwverify -crash, E13).
func exerciseTry(t *testing.T, alg memmodel.Algorithm, nReaders, nWriters, passages int) {
	t.Helper()
	lock, err := NewLock(alg, nReaders, nWriters)
	if err != nil {
		t.Fatal(err)
	}
	if !lock.Abortable() {
		t.Fatalf("%s is not abortable", alg.Name())
	}
	var x, y int // protected by lock; must always be equal
	var wrote atomic.Int64
	var wg sync.WaitGroup
	for rid := 0; rid < nReaders; rid++ {
		h := lock.Reader(rid)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < passages; i++ {
				if i%2 == 0 {
					if !h.TryLock(2 * time.Millisecond) {
						continue
					}
				} else {
					h.Lock()
				}
				if x != y {
					t.Errorf("reader saw torn update: x=%d y=%d", x, y)
				}
				h.Unlock()
			}
		}()
	}
	for wid := 0; wid < nWriters; wid++ {
		h := lock.Writer(wid)
		wg.Add(1)
		go func() {
			defer wg.Done()
			var got int64
			for i := 0; i < passages; i++ {
				if i%2 == 0 {
					if !h.TryLock(2 * time.Millisecond) {
						continue
					}
				} else {
					h.Lock()
				}
				x++
				y++
				got++
				h.Unlock()
			}
			wrote.Add(got)
		}()
	}
	wg.Wait()
	if want := int(wrote.Load()); x != want || y != want {
		t.Errorf("final x=%d y=%d, want %d (lost or phantom writer updates)", x, y, want)
	}
}

// TestTryLockStressAF covers every A_f tradeoff point under -race.
func TestTryLockStressAF(t *testing.T) {
	for _, f := range core.StandardFs {
		f := f
		t.Run("af-"+f.Name, func(t *testing.T) {
			t.Parallel()
			exerciseTry(t, core.New(f), 4, 2, 300)
		})
	}
}

func TestTryLockStressCentralized(t *testing.T) {
	exerciseTry(t, baseline.NewCentralized(), 4, 2, 300)
}

// TestTryLockUncontended checks the immediate-success path with a zero
// timeout (single attempt, no backoff).
func TestTryLockUncontended(t *testing.T) {
	lock, err := NewLock(core.New(core.FLog), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	r, w := lock.Reader(0), lock.Writer(0)
	if !r.TryLock(0) {
		t.Fatal("reader TryLock failed on an idle lock")
	}
	r.Unlock()
	if !w.TryLock(0) {
		t.Fatal("writer TryLock failed on an idle lock")
	}
	w.Unlock()
	if !r.TryLock(0) {
		t.Fatal("reader TryLock failed after writer released")
	}
	r.Unlock()
}

// TestTryLockTimesOutAgainstHolder pins the failure path: with the
// opposite class parked in the CS, a bounded TryLock must return false
// instead of blocking. The property is causal, not a wall-clock bound: the
// holder releases only after both attempts have returned, so an attempt
// that waits on the holder never returns and the test times out.
func TestTryLockTimesOutAgainstHolder(t *testing.T) {
	lock, err := NewLock(core.New(core.FOne), 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	w := lock.Writer(0)
	w.Lock()
	if lock.Reader(0).TryLock(10 * time.Millisecond) {
		t.Fatal("reader TryLock succeeded while a writer held the lock")
	}
	if lock.Writer(1).TryLock(10 * time.Millisecond) {
		t.Fatal("writer TryLock succeeded while another writer held the lock")
	}
	w.Unlock()
	// The aborted attempts must not have corrupted the lock.
	r := lock.Reader(0)
	if !r.TryLock(time.Second) {
		t.Fatal("reader cannot acquire after writer released")
	}
	r.Unlock()
}

// TestTryLockNonAbortablePanics pins the API contract for algorithms
// without try-entry support.
func TestTryLockNonAbortablePanics(t *testing.T) {
	lock, err := NewLock(baseline.NewMutexRW(), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if lock.Abortable() {
		t.Fatal("mutex-rw claims abortable entry")
	}
	defer func() {
		if recover() == nil {
			t.Error("TryLock on a non-abortable lock did not panic")
		}
	}()
	lock.Reader(0).TryLock(0)
}
