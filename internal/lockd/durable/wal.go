package durable

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"time"
)

// FsyncPolicy selects when WAL appends reach stable storage.
type FsyncPolicy string

const (
	// FsyncAlways makes Store.Sync a group commit: a response is sent only
	// after an fsync that started after its records were written. One
	// fsync covers every record written before it began, so concurrent
	// callers share it, and no committed grant can be lost to a power
	// failure.
	FsyncAlways FsyncPolicy = "always"
	// FsyncInterval syncs on a background timer (the default): a power
	// failure can lose the last interval of records, which is safe — the
	// epoch bump keeps lost grants' tokens dominated — but costs one
	// fsync per interval instead of per operation. A plain kill -9 loses
	// nothing under any policy: appends are unbuffered write syscalls,
	// and the page cache survives process death.
	FsyncInterval FsyncPolicy = "interval"
	// FsyncNever leaves syncing to the OS entirely.
	FsyncNever FsyncPolicy = "never"
)

// ParseFsyncPolicy validates a policy string (flag plumbing).
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch FsyncPolicy(s) {
	case FsyncAlways, FsyncInterval, FsyncNever:
		return FsyncPolicy(s), nil
	}
	return "", fmt.Errorf("durable: unknown fsync policy %q (want always, interval, or never)", s)
}

// walMagic opens every WAL file; a file that does not start with it is
// rejected as corrupt rather than misparsed as frames.
const walMagic = "rwlockd-wal\x01\n"

// errClosed is returned by every append or sync after Close or Crash.
var errClosed = errors.New("durable: store closed")

// wal is the append side of the log: one file, direct (unbuffered)
// writes, and group-commit fsyncs.
//
// Lock order: syncMu before mu. append and reset hold only mu, so a
// write never waits for an fsync; sync holds syncMu across its fsync and
// takes mu only to read the watermarks.
type wal struct {
	// f is immutable after openWAL; *os.File is safe for concurrent use,
	// so the fsync runs without mu.
	f        *os.File
	stop     chan struct{}
	syncDone chan struct{}

	mu      sync.Mutex
	buf     []byte //rwguard:mu
	written uint64 //rwguard:mu LSN of the last record handed to write; never moves backwards
	closed  bool   //rwguard:mu
	// syncErr is the first Write or Sync failure. It is sticky: after it,
	// every append and sync fails and fsync is never retried, because a
	// failed fsync may have dropped dirty pages that a retry would then
	// report as durable.
	syncErr error //rwguard:mu

	syncMu sync.Mutex
	synced uint64 //rwguard:syncMu LSN covered by the last completed fsync
	fsyncs int    //rwguard:syncMu group-commit fsyncs issued (tests count them)
}

// openWAL opens (creating if needed) the log at path for appending. A
// fresh or truncated-to-empty file gets the magic header. interval is the
// background sync period for FsyncInterval.
func openWAL(path string, policy FsyncPolicy, interval time.Duration) (*wal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("durable: open WAL: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("durable: stat WAL: %w", err)
	}
	w := &wal{f: f, stop: make(chan struct{}), syncDone: make(chan struct{})}
	if fi.Size() == 0 {
		if _, err := f.WriteString(walMagic); err != nil {
			f.Close()
			return nil, fmt.Errorf("durable: write WAL header: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("durable: sync WAL header: %w", err)
		}
	}
	if policy == FsyncInterval {
		if interval <= 0 {
			interval = 5 * time.Millisecond
		}
		go w.syncLoop(interval)
	} else {
		close(w.syncDone)
	}
	return w, nil
}

// syncLoop is the FsyncInterval syncer: each tick is a group commit of
// everything written so far (none when nothing new was written). A
// failure is sticky, so later ticks stop syncing.
func (w *wal) syncLoop(interval time.Duration) {
	defer close(w.syncDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-t.C:
			w.mu.Lock()
			lsn := w.written
			w.mu.Unlock()
			w.sync(lsn) //nolint:errcheck // sticky: the next append reports it
		}
	}
}

// failLocked records the failure of op as the sticky failure (the first
// one wins) and returns it.
//
//rwguard:holds mu
func (w *wal) failLocked(op string, err error) error {
	err = fmt.Errorf("durable: WAL %s: %w", op, err)
	if w.syncErr == nil {
		w.syncErr = err
	}
	return err
}

// stickyLocked returns the error every operation reports after a failure
// or close, and nil while the log is healthy.
//
//rwguard:holds mu
func (w *wal) stickyLocked() error {
	if w.syncErr != nil {
		return fmt.Errorf("durable: WAL failed earlier: %w", w.syncErr)
	}
	if w.closed {
		return errClosed
	}
	return nil
}

// append frames rec and writes it in one write call. It does not sync:
// sync(rec.LSN) makes it durable. A failed or short write poisons the
// log, since the next record would land after a torn frame that replay
// truncates, and take every later record with it.
func (w *wal) append(rec *Record) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.stickyLocked(); err != nil {
		return err
	}
	buf, err := AppendFrame(w.buf[:0], rec)
	if err != nil {
		return err
	}
	w.buf = buf[:0]
	if _, err := w.f.Write(buf); err != nil {
		return w.failLocked("append", err)
	}
	w.written = rec.LSN
	return nil
}

// sync is the group commit: it returns once an fsync that started after
// the record with LSN lsn was written has completed. The caller that
// finds lsn not yet covered becomes the leader and fsyncs everything
// written so far, outside mu, so appends continue meanwhile; callers
// queued behind it on syncMu then find their LSN covered and return
// without a syscall. A failed fsync is sticky, so every caller it was
// meant to cover gets the error.
func (w *wal) sync(lsn uint64) error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.mu.Lock()
	target, err := w.written, w.stickyLocked()
	w.mu.Unlock()
	if err != nil || w.synced >= lsn {
		return err
	}
	w.fsyncs++
	if err := w.f.Sync(); err != nil {
		w.mu.Lock()
		defer w.mu.Unlock()
		return w.failLocked("sync", err)
	}
	w.synced = target
	return nil
}

// err reports the sticky failure or close, without syncing.
func (w *wal) err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stickyLocked()
}

// reset truncates the log to empty (post-snapshot rotation) and rewrites
// the magic header. written stays put: the records it covers are durable
// in the snapshot. A failure after the truncate is sticky, because
// frames appended behind a missing header make the whole log unreadable.
func (w *wal) reset() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.stickyLocked(); err != nil {
		return err
	}
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("durable: WAL truncate: %w", err)
	}
	if _, err := w.f.Seek(0, 0); err != nil {
		return w.failLocked("seek", err)
	}
	if _, err := w.f.WriteString(walMagic); err != nil {
		return w.failLocked("header", err)
	}
	if err := w.f.Sync(); err != nil {
		return w.failLocked("header sync", err)
	}
	return nil
}

// close stops the sync loop; final is true for a tidy shutdown (one last
// sync) and false for a simulated crash (no flush beyond what already
// reached the file). Either way every later append and sync fails.
func (w *wal) close(final bool) error {
	select {
	case <-w.stop:
	default:
		close(w.stop)
	}
	<-w.syncDone
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	w.closed = true
	var err error
	if final && w.syncErr == nil {
		err = w.f.Sync()
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// replayWAL reads the log at path, applying torn-tail truncation: the
// file is cut back to its longest valid prefix. It returns the decoded
// records, the truncated byte count, and the typed reason when bytes were
// dropped. A missing file is an empty log. A file too short to hold the
// magic is a torn first write (truncated to empty); a file with the wrong
// magic is corrupt — refusing to serve beats silently ignoring a log that
// was probably damaged wholesale.
func replayWAL(path string) (recs []*Record, torn int64, tornReason error, err error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, nil, nil
		}
		return nil, 0, nil, fmt.Errorf("durable: read WAL: %w", err)
	}
	if len(buf) < len(walMagic) {
		if err := os.Truncate(path, 0); err != nil {
			return nil, 0, nil, fmt.Errorf("durable: truncate torn WAL header: %w", err)
		}
		return nil, int64(len(buf)), &ShortError{Offset: 0, Need: len(walMagic), Have: len(buf)}, nil
	}
	if string(buf[:len(walMagic)]) != walMagic {
		return nil, 0, nil, &CorruptError{Offset: 0, Reason: "magic",
			Err: fmt.Errorf("%s is not an rwlockd WAL", path)}
	}
	body := buf[len(walMagic):]
	recs, valid, scanErr := ReadLog(body)
	if scanErr != nil {
		torn = int64(len(body)) - valid
		if err := os.Truncate(path, int64(len(walMagic))+valid); err != nil {
			return nil, 0, nil, fmt.Errorf("durable: truncate torn WAL tail: %w", err)
		}
	}
	return recs, torn, scanErr, nil
}
