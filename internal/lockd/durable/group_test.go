package durable

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"
)

// fsyncCount returns how many group-commit fsyncs s has issued.
func fsyncCount(s *Store) int {
	s.wal.syncMu.Lock()
	defer s.wal.syncMu.Unlock()
	return s.wal.fsyncs
}

func openStore(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	if opts.Shards == 0 {
		opts.Shards, opts.WordsPerShard = 1, 4
	}
	s, _, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustLog(t *testing.T, s *Store, rec *Record) uint64 {
	t.Helper()
	lsn, err := s.Log(rec)
	if err != nil {
		t.Fatal(err)
	}
	return lsn
}

// TestGroupCommitCoversEarlierRecords: one Sync of the last LSN covers
// every record logged before it, and a Sync of an already covered LSN
// issues no syscall.
func TestGroupCommitCoversEarlierRecords(t *testing.T) {
	s := openStore(t, t.TempDir(), Options{Fsync: FsyncAlways})
	defer s.Close()
	var lsns []uint64
	for i := 0; i < 5; i++ {
		lsns = append(lsns, mustLog(t, s, &Record{Type: RecHello, Session: fmt.Sprint("s", i), Slot: i}))
	}
	if n := fsyncCount(s); n != 0 {
		t.Fatalf("Log issued %d fsyncs, want 0", n)
	}
	if err := s.Sync(lsns[4]); err != nil {
		t.Fatal(err)
	}
	if n := fsyncCount(s); n != 1 {
		t.Fatalf("Sync of the last of 5 records issued %d fsyncs, want 1", n)
	}
	if err := s.Sync(lsns[2]); err != nil {
		t.Fatal(err)
	}
	if n := fsyncCount(s); n != 1 {
		t.Fatalf("Sync of a covered record issued %d more fsyncs, want 0", n-1)
	}
}

// TestSyncIsNoopUnlessAlways: under interval and never, Sync returns
// without an fsync (the interval syncer is parked on a long period).
func TestSyncIsNoopUnlessAlways(t *testing.T) {
	for _, pol := range []FsyncPolicy{FsyncInterval, FsyncNever} {
		t.Run(string(pol), func(t *testing.T) {
			s := openStore(t, t.TempDir(), Options{Fsync: pol, FsyncInterval: time.Hour})
			defer s.Close()
			for i := 0; i < 3; i++ {
				lsn := mustLog(t, s, &Record{Type: RecHello, Session: fmt.Sprint("s", i), Slot: i})
				if err := s.Sync(lsn); err != nil {
					t.Fatal(err)
				}
			}
			if n := fsyncCount(s); n != 0 {
				t.Fatalf("Sync under %s issued %d fsyncs, want 0", pol, n)
			}
		})
	}
}

// TestConcurrentAppendsReplay: concurrent durable appends share fsyncs
// without losing a record — every one replays after a kill -9.
func TestConcurrentAppendsReplay(t *testing.T) {
	const workers, each = 8, 250
	dir := t.TempDir()
	opts := Options{Fsync: FsyncAlways, SnapshotEvery: 1 << 20}
	s := openStore(t, dir, opts)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := s.Append(&Record{Type: RecHello, Session: fmt.Sprintf("s%d.%d", w, i)}); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := fsyncCount(s); n < 1 || n > workers*each {
		t.Fatalf("%d fsyncs for %d records, want 1..%d", n, workers*each, workers*each)
	}
	t.Logf("%d records, %d group-commit fsyncs", workers*each, fsyncCount(s))
	s.Crash()

	s2, info, err := Open(dir, Options{Fsync: FsyncAlways, SnapshotEvery: 1 << 20, Shards: 1, WordsPerShard: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if info.Replayed != workers*each || info.Sessions != workers*each {
		t.Fatalf("replayed %d records, %d sessions; want %d of each", info.Replayed, info.Sessions, workers*each)
	}
}

// TestAppendAfterCloseOrCrash: a stopped store refuses appends and syncs
// with the store-closed error.
func TestAppendAfterCloseOrCrash(t *testing.T) {
	for _, stop := range []string{"close", "crash"} {
		t.Run(stop, func(t *testing.T) {
			s := openStore(t, t.TempDir(), Options{Fsync: FsyncAlways})
			lsn := mustLog(t, s, &Record{Type: RecHello, Session: "s"})
			if stop == "close" {
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
			} else {
				s.Crash()
			}
			if err := s.Append(&Record{Type: RecBye, Session: "s"}); !errors.Is(err, errClosed) {
				t.Fatalf("Append after %s: got %v, want %v", stop, err, errClosed)
			}
			if err := s.Sync(lsn); !errors.Is(err, errClosed) {
				t.Fatalf("Sync after %s: got %v, want %v", stop, err, errClosed)
			}
		})
	}
}

// TestWALFailureIsSticky: once a WAL write or fsync fails, the failing
// call and every later Log, Append and Sync return an error, and fsync is
// never retried. A write fails once the file's descriptor is closed
// behind the store. An fsync fails, while writes still succeed, once the
// file is swapped for a pipe.
func TestWALFailureIsSticky(t *testing.T) {
	for _, fail := range []string{"write", "fsync"} {
		t.Run(fail, func(t *testing.T) {
			s := openStore(t, t.TempDir(), Options{Fsync: FsyncAlways})
			defer s.Crash()
			if err := s.Append(&Record{Type: RecHello, Session: "s"}); err != nil {
				t.Fatal(err)
			}
			var lsn uint64
			if fail == "write" {
				s.wal.f.Close()
				if err := s.Append(&Record{Type: RecRenew, Session: "s", Expiry: 1}); err == nil {
					t.Fatal("Append over a failed write succeeded")
				}
			} else {
				pr, pw, err := os.Pipe()
				if err != nil {
					t.Fatal(err)
				}
				defer pr.Close()
				defer s.wal.f.Close()
				s.wal.f = pw
				lsn = mustLog(t, s, &Record{Type: RecRenew, Session: "s", Expiry: 1})
				if err := s.Sync(lsn); err == nil {
					t.Fatal("Sync over a failed fsync succeeded")
				}
			}
			before := fsyncCount(s)
			for i := 0; i < 3; i++ {
				if _, err := s.Log(&Record{Type: RecRenew, Session: "s", Expiry: int64(2 + i)}); err == nil {
					t.Fatalf("Log %d after a failed %s succeeded", i, fail)
				}
				if err := s.Append(&Record{Type: RecRenew, Session: "s", Expiry: int64(2 + i)}); err == nil {
					t.Fatalf("Append %d after a failed %s succeeded", i, fail)
				}
				if err := s.Sync(lsn + uint64(i)); err == nil {
					t.Fatalf("Sync %d after a failed %s succeeded", i, fail)
				}
			}
			if n := fsyncCount(s) - before; n != 0 {
				t.Fatalf("fsync retried %d times after a failed %s", n, fail)
			}
		})
	}
}
