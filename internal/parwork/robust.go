package parwork

// This file is the sweep engine's scoped, robust fan-out. DoRobust gives
// each worker one scope from enter to exit, so rows can reuse an expensive
// resource (typically a sim.Runner reset between executions), and adds the
// three behaviors long sweeps need to survive the real world — durable
// progress (a Sink checkpoints each completed slot, and a resumed run
// restores those slots instead of recomputing them), cooperative
// cancellation (a Stopper makes workers stop claiming new rows and drain,
// leaving a flushed checkpoint behind), and per-row failure isolation
// (KeepGoing turns a panicking or wedged row into a typed RowFailure in the
// report instead of aborting the sweep). With zero Options it is a plain
// fail-fast fan-out. The canonical index-slot merge holds throughout: row
// i fills slot i whether it was computed now, computed by a previous run
// and restored, or replaced by onFailure — so a resumed sweep is
// byte-identical to an uninterrupted one.

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Codec encodes row results for the Sink and decodes them on restore. The
// decoded value must be indistinguishable from the computed one as far as
// the caller's rendering is concerned — that is the resume-determinism
// contract, and internal/spec's wire codecs exist to uphold it.
type Codec[T any] struct {
	Encode func(T) ([]byte, error)
	Decode func([]byte) (T, error)
}

// JSONCodec is the Codec for row types whose fields round-trip through
// encoding/json unchanged (or that implement json.Marshaler/Unmarshaler to
// make it so).
func JSONCodec[T any]() Codec[T] {
	return Codec[T]{
		Encode: func(v T) ([]byte, error) { return json.Marshal(v) },
		Decode: func(p []byte) (T, error) {
			var v T
			err := json.Unmarshal(p, &v)
			return v, err
		},
	}
}

// Sink is the durable store DoRobust records completed rows into.
// internal/checkpoint.Section implements it. Record and Restore are called
// concurrently from worker goroutines; Flush may be called concurrently
// with Record. Failed rows are never recorded — a resumed run retries them.
type Sink interface {
	// Restore returns the payload recorded for row i by a previous run.
	Restore(i int) ([]byte, bool)
	// Record stores the payload of newly completed row i.
	Record(i int, payload []byte) error
	// Flush persists everything recorded so far.
	Flush() error
}

// Stopper requests cooperative cancellation: once stopped, workers claim no
// further rows, finish the row in hand, and DoRobust returns an
// *InterruptedError after a final flush. A nil *Stopper is never stopped.
// Stop is safe to call from a signal handler goroutine.
type Stopper struct{ stopped atomic.Bool }

// NewStopper returns a fresh, unstopped Stopper.
func NewStopper() *Stopper { return &Stopper{} }

// Stop requests cancellation. Idempotent.
func (s *Stopper) Stop() { s.stopped.Store(true) }

// Stopped reports whether Stop has been called. Nil-safe.
func (s *Stopper) Stopped() bool { return s != nil && s.stopped.Load() }

// RowFailure describes one row that did not produce a result: its job
// panicked, or exceeded the row deadline. It is the per-row error type the
// KeepGoing report lists and the fail-fast row-timeout path returns.
type RowFailure struct {
	// Index is the row's slot in the sweep.
	Index int
	// Info is the caller's description of the row (Options.RowInfo),
	// typically the fault point, "" if none was provided.
	Info string
	// PanicValue is the rendered panic payload; "" for a timeout.
	PanicValue string
	// Stuck marks a row that exceeded Options.RowTimeout. Its goroutine
	// could not be killed and may still be running; Stack holds the
	// all-goroutine dump captured at the deadline for diagnosis.
	Stuck bool
	// Elapsed is the deadline the row exceeded (Stuck only).
	Elapsed time.Duration
	// Stack is the stack trace: the panicking goroutine's for a panic,
	// an all-goroutine dump for a stuck row. It is deliberately kept out
	// of Error() so reports that render errors stay stable and readable;
	// diagnostic surfaces print it separately.
	Stack string

	// panicAny preserves the original panic payload so fail-fast can
	// re-raise it unchanged.
	panicAny any
}

func (f *RowFailure) Error() string {
	where := fmt.Sprintf("row %d", f.Index)
	if f.Info != "" {
		where += " (" + f.Info + ")"
	}
	if f.Stuck {
		return fmt.Sprintf("%s: stuck: no result after %v of wall clock", where, f.Elapsed)
	}
	return fmt.Sprintf("%s: panic: %s", where, f.PanicValue)
}

// InterruptedError reports a sweep stopped by its Stopper before every row
// completed. The rows that did complete are flushed to the Sink; rerunning
// with the same configuration and the same checkpoint resumes from them.
type InterruptedError struct {
	// Done is the number of rows with durable results (restored plus
	// newly completed); Total is the sweep size.
	Done, Total int
}

func (e *InterruptedError) Error() string {
	return fmt.Sprintf("sweep interrupted: %d/%d rows complete", e.Done, e.Total)
}

// Options configures DoRobust. The zero value (plus a worker count) is a
// plain scoped fan-out: no sink, no cancellation, fail-fast, no row
// deadline.
type Options struct {
	// Workers is the pool size, Workers-normalized.
	Workers int
	// KeepGoing isolates row failures: a panicking or timed-out row
	// becomes a RowFailure in the Report and the sweep continues.
	// Default (false) is fail-fast: a panic re-raises on the caller
	// after the pool drains and a final flush, a timeout returns the
	// *RowFailure as the error.
	KeepGoing bool
	// RowTimeout, when positive, is the wall-clock deadline for one row.
	// A row that exceeds it is abandoned (its goroutine cannot be killed
	// and is leaked along with its scope) and reported as a Stuck
	// RowFailure; the worker continues on a fresh scope.
	RowTimeout time.Duration
	// Stop, when non-nil, is polled before each claim.
	Stop *Stopper
	// Sink, when non-nil, restores previously completed rows before the
	// sweep starts and records each newly completed row.
	Sink Sink
	// FlushEvery is how many newly completed rows may accumulate between
	// periodic Sink flushes; <= 0 means 64. A final flush always happens.
	FlushEvery int
	// Cost, when non-nil, is the scheduling hint for row i (see
	// CostHint): pending rows are seeded largest-first across the worker
	// deques and claimed in cost-sized chunks. Restored rows never rerun,
	// so on a resume the hint is consulted only for the rows still
	// pending. Hints change the schedule, never the results.
	Cost CostHint
	// RowInfo, when non-nil, describes row i for failure reports (e.g.
	// the fault point).
	RowInfo func(i int) string
	// AfterRow, when non-nil, observes progress: it is called after each
	// row computed in this run (success or KeepGoing failure) with the
	// cumulative count. Called concurrently from worker goroutines.
	AfterRow func(done int)
}

// Report describes what a DoRobust call actually did.
type Report struct {
	// Total is the sweep size.
	Total int
	// Restored is the number of rows taken from the Sink.
	Restored int
	// Computed is the number of rows executed in this run, including
	// KeepGoing failures.
	Computed int
	// Failures lists KeepGoing row failures in index order.
	Failures []*RowFailure
	// Interrupted marks a run stopped before all rows were attempted.
	Interrupted bool
}

// Done is the number of rows with durable results.
func (r *Report) Done() int { return r.Restored + r.Computed - len(r.Failures) }

// DoRobust runs job(s, i) for every row i in [0, n) across at most
// opt.Workers goroutines (Workers-normalized), each holding one scope s
// from enter to exit, with restore/record, cancellation, per-row failure
// isolation and a per-row deadline per opt. With one worker the rows run
// on the calling goroutine. Row i's result lands in slot i of the returned
// slice regardless of which run computed it; for pure jobs and faithful
// codecs the output is byte-identical across worker counts and across
// interrupt/resume splits.
//
// onFailure supplies the slot value for a KeepGoing row failure (so the
// caller can embed the RowFailure in its outcome type); it may be nil only
// when KeepGoing is false.
//
// On interruption the error is *InterruptedError and the slice holds the
// partial results. On a fail-fast timeout the error is the *RowFailure. A
// fail-fast panic re-raises the original panic value on the caller — after
// the pool drains and completed rows are flushed, so even a crash loses no
// progress.
func DoRobust[S, T any](
	opt Options,
	n int,
	codec Codec[T],
	enter func() S,
	exit func(S),
	job func(s S, i int) T,
	onFailure func(i int, f *RowFailure) T,
) ([]T, *Report, error) {
	rep := &Report{Total: n}
	if n <= 0 {
		return nil, rep, nil
	}
	out := make([]T, n)

	// Restore phase: decode previously completed slots, leaving the rest
	// as the pending work list (in index order — claims preserve it).
	pending := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if opt.Sink == nil {
			pending = append(pending, i)
			continue
		}
		payload, ok := opt.Sink.Restore(i)
		if !ok {
			pending = append(pending, i)
			continue
		}
		v, err := codec.Decode(payload)
		if err != nil {
			return nil, rep, fmt.Errorf("parwork: restore row %d: %w", i, err)
		}
		out[i] = v
		rep.Restored++
	}

	flushEvery := opt.FlushEvery
	if flushEvery <= 0 {
		flushEvery = 64
	}

	var (
		computed   atomic.Int64 // rows executed this run (incl. failures)
		succeeded  atomic.Int64 // rows that produced a durable result
		unflushed  atomic.Int64 // successes since the last periodic flush
		poisoned   atomic.Bool  // stop claiming: fatal error or panic
		fatalPanic atomic.Pointer[panicValue]
		fatalErr   atomic.Pointer[errBox]

		failMu   sync.Mutex
		failures []*RowFailure
	)
	setFatal := func(err error) {
		fatalErr.CompareAndSwap(nil, &errBox{err})
		poisoned.Store(true)
	}
	info := func(i int) string {
		if opt.RowInfo == nil {
			return ""
		}
		return opt.RowInfo(i)
	}
	progressed := func() {
		done := int(computed.Add(1))
		if opt.AfterRow != nil {
			opt.AfterRow(done)
		}
	}

	// runRecovered executes one row, converting a panic into a RowFailure.
	runRecovered := func(s S, i int) (v T, f *RowFailure) {
		defer func() {
			if p := recover(); p != nil {
				buf := make([]byte, 64<<10)
				buf = buf[:runtime.Stack(buf, false)]
				f = &RowFailure{
					Index:      i,
					Info:       info(i),
					PanicValue: fmt.Sprintf("%v", p),
					Stack:      string(buf),
					panicAny:   p,
				}
			}
		}()
		v = job(s, i)
		return
	}

	// runRow executes row i on the worker's scope (replacing *scope if the
	// row wedges past the deadline), stores and records a successful
	// result, and returns the failure otherwise.
	runRow := func(scope *S, i int) *RowFailure {
		var v T
		var f *RowFailure
		if opt.RowTimeout <= 0 {
			v, f = runRecovered(*scope, i)
		} else {
			type result struct {
				v T
				f *RowFailure
			}
			ch := make(chan result, 1)
			// 0 = pending, 1 = delivered by child, 2 = abandoned by
			// worker. The CAS decides who owns the child's scope.
			var state atomic.Int32
			child := *scope
			go func() {
				cv, cf := runRecovered(child, i)
				if state.CompareAndSwap(0, 1) {
					ch <- result{cv, cf}
				} else {
					// Abandoned: the worker moved on with a fresh
					// scope; this goroutine releases the old one.
					exit(child)
				}
			}()
			timer := time.NewTimer(opt.RowTimeout)
			select {
			case r := <-ch:
				timer.Stop()
				v, f = r.v, r.f
			case <-timer.C:
				if state.CompareAndSwap(0, 2) {
					buf := make([]byte, 256<<10)
					buf = buf[:runtime.Stack(buf, true)]
					f = &RowFailure{
						Index:   i,
						Info:    info(i),
						Stuck:   true,
						Elapsed: opt.RowTimeout,
						Stack:   string(buf),
					}
					*scope = enter()
				} else {
					// The child delivered in the race window.
					r := <-ch
					v, f = r.v, r.f
				}
			}
		}
		if f != nil {
			return f
		}
		out[i] = v
		if opt.Sink != nil {
			payload, err := codec.Encode(v)
			if err != nil {
				setFatal(fmt.Errorf("parwork: encode row %d: %w", i, err))
				return nil
			}
			if err := opt.Sink.Record(i, payload); err != nil {
				setFatal(fmt.Errorf("parwork: record row %d: %w", i, err))
				return nil
			}
			if unflushed.Add(1)%int64(flushEvery) == 0 {
				if err := opt.Sink.Flush(); err != nil {
					setFatal(fmt.Errorf("parwork: flush: %w", err))
					return nil
				}
			}
		}
		succeeded.Add(1)
		progressed()
		return nil
	}

	// The pending rows run on the cost-aware work-stealing scheduler,
	// exactly like the non-robust fan-outs: the caller's hint is composed
	// over the pending list (a resumed run schedules only what is left).
	w := Workers(opt.Workers)
	if w > len(pending) {
		w = len(pending)
	}
	var pendingCost CostHint
	if opt.Cost != nil {
		pendingCost = func(k int) int64 { return opt.Cost(pending[k]) }
	}
	schd := newScheduler(len(pending), w, pendingCost)

	work := func(worker int) {
		next := schd.claimer(worker)
		scope := enter()
		defer func() { exit(scope) }()
		for {
			if poisoned.Load() || opt.Stop.Stopped() {
				return
			}
			k, ok := next()
			if !ok {
				return
			}
			i := pending[k]
			f := runRow(&scope, i)
			if f == nil {
				continue
			}
			failMu.Lock()
			failures = append(failures, f)
			failMu.Unlock()
			if opt.KeepGoing {
				if onFailure != nil {
					out[i] = onFailure(i, f)
				}
				progressed()
				continue
			}
			// Fail-fast: poison the claim counter so the pool drains,
			// then surface the failure after the final flush.
			if f.panicAny != nil {
				fatalPanic.CompareAndSwap(nil, &panicValue{f.panicAny})
				poisoned.Store(true)
			} else {
				setFatal(f)
			}
			return
		}
	}
	runWorker := func(worker int) {
		defer func() {
			// enter/exit are harness code and should not panic; if one
			// does, surface it like a fail-fast row panic.
			if v := recover(); v != nil {
				fatalPanic.CompareAndSwap(nil, &panicValue{v})
				poisoned.Store(true)
			}
		}()
		work(worker)
	}

	if w <= 1 {
		if len(pending) > 0 {
			runWorker(0)
		}
	} else {
		var wg sync.WaitGroup
		wg.Add(w)
		for k := 0; k < w; k++ {
			go func(k int) {
				defer wg.Done()
				runWorker(k)
			}(k)
		}
		wg.Wait()
	}

	// Final flush, even on the way out of a fatal failure: completed rows
	// are durable no matter how the sweep ends.
	var flushErr error
	if opt.Sink != nil {
		flushErr = opt.Sink.Flush()
	}

	sort.Slice(failures, func(a, b int) bool { return failures[a].Index < failures[b].Index })
	rep.Computed = int(computed.Load())
	rep.Failures = failures

	if pv := fatalPanic.Load(); pv != nil {
		panic(pv.v)
	}
	if eb := fatalErr.Load(); eb != nil {
		return nil, rep, eb.err
	}
	if flushErr != nil {
		return nil, rep, fmt.Errorf("parwork: final flush: %w", flushErr)
	}
	if opt.Stop.Stopped() && rep.Restored+rep.Computed < n {
		rep.Interrupted = true
		return out, rep, &InterruptedError{Done: rep.Done(), Total: n}
	}
	return out, rep, nil
}

// errBox boxes an error for atomic first-wins publication.
type errBox struct{ err error }
