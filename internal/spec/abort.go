// Bounded-abort property: a failed try-entry attempt must complete in a
// bounded number of RMRs without waiting on any other process. The probe
// stages the worst case deterministically with barriers — an opposing
// process is parked inside the critical section, so the attempt is
// guaranteed to fail — and reads the attempt's exact RMR cost off the
// simulator's entry-section account.
package spec

import (
	"fmt"

	"repro/internal/memmodel"
	"repro/internal/sim"
)

// AbortCost is the measured cost of one guaranteed-failing try attempt of
// each class, with the opposing class holding the critical section.
type AbortCost struct {
	// Algorithm is the algorithm's name.
	Algorithm string
	// N is the reader population used (writers fixed at 1).
	N int
	// ReaderAttemptRMR is the RMR cost of reader 0's failed ReaderTryEnter
	// while a writer sits in the CS.
	ReaderAttemptRMR int
	// WriterAttemptRMR is the RMR cost of writer 0's failed WriterTryEnter
	// while a reader sits in the CS.
	WriterAttemptRMR int
	// ReaderAborted and WriterAborted confirm the attempts actually failed
	// (a true return would make the RMR figure meaningless).
	ReaderAborted, WriterAborted bool
}

// MeasureAbortCost stages both failed-attempt probes against fresh
// instances from newAlg, which must produce memmodel.TryAlgorithm
// implementations. n is the reader population; one writer is used.
func MeasureAbortCost(newAlg func() memmodel.Algorithm, n int) (AbortCost, error) {
	out := AbortCost{N: n}
	if n < 1 {
		return out, fmt.Errorf("abort probe: need at least one reader, got n=%d", n)
	}

	readerRMR, readerAborted, err := probeAbort(newAlg, n, false)
	if err != nil {
		return out, err
	}
	writerRMR, writerAborted, err := probeAbort(newAlg, n, true)
	if err != nil {
		return out, err
	}
	out.Algorithm = newAlg().Name()
	out.ReaderAttemptRMR = readerRMR
	out.ReaderAborted = readerAborted
	out.WriterAttemptRMR = writerRMR
	out.WriterAborted = writerAborted
	return out, nil
}

// probeAbort runs one staged execution. With tryIsWriter false, the writer
// enters the CS and parks at a barrier while reader 0 makes one try
// attempt; with tryIsWriter true the roles are swapped. It returns the
// trying process's entry-section RMR count and whether the attempt failed
// as staged.
func probeAbort(newAlg func() memmodel.Algorithm, n int, tryIsWriter bool) (rmr int, aborted bool, err error) {
	alg := newAlg()
	ta, ok := alg.(memmodel.TryAlgorithm)
	if !ok {
		return 0, false, fmt.Errorf("abort probe: %s does not implement TryAlgorithm", alg.Name())
	}
	r := sim.New(sim.Config{})
	defer r.Close()
	if err := ta.Init(r, n, 1); err != nil {
		return 0, false, fmt.Errorf("abort probe: init %s: %w", ta.Name(), err)
	}

	// Process coroutines only run while the driver steps them, and the
	// runner switches to them directly, so these flags need no locking.
	var entered bool
	tryReader := func(p sim.Proc) {
		p.Barrier() // wait until the holder is inside the CS
		p.Section(memmodel.SecEntry)
		if ta.ReaderTryEnter(p, 0) {
			entered = true
			p.Section(memmodel.SecCS)
			p.Section(memmodel.SecExit)
			ta.ReaderExit(p, 0)
		}
		p.Section(memmodel.SecRemainder)
	}
	tryWriter := func(p sim.Proc) {
		p.Barrier()
		p.Section(memmodel.SecEntry)
		if ta.WriterTryEnter(p, 0) {
			entered = true
			p.Section(memmodel.SecCS)
			p.Section(memmodel.SecExit)
			ta.WriterExit(p, 0)
		}
		p.Section(memmodel.SecRemainder)
	}
	holdReader := func(p sim.Proc) {
		p.Section(memmodel.SecEntry)
		ta.ReaderEnter(p, 0)
		p.Section(memmodel.SecCS)
		p.Barrier() // hold the CS while the try attempt runs
		p.Section(memmodel.SecExit)
		ta.ReaderExit(p, 0)
		p.Section(memmodel.SecRemainder)
	}
	holdWriter := func(p sim.Proc) {
		p.Section(memmodel.SecEntry)
		ta.WriterEnter(p, 0)
		p.Section(memmodel.SecCS)
		p.Barrier()
		p.Section(memmodel.SecExit)
		ta.WriterExit(p, 0)
		p.Section(memmodel.SecRemainder)
	}

	// Spec numbering: readers 0..n-1, then the single writer at id n.
	// Reader slots beyond 0 exist (slot-based algorithms size state by n)
	// but run empty programs.
	var tryID int
	if tryIsWriter {
		r.AddProc(holdReader) // reader 0 holds the CS
		tryID = n
	} else {
		r.AddProc(tryReader) // reader 0 makes the attempt
		tryID = 0
	}
	for i := 1; i < n; i++ {
		r.AddProc(func(sim.Proc) {})
	}
	if tryIsWriter {
		r.AddProc(tryWriter)
	} else {
		r.AddProc(holdWriter)
	}
	if err := r.Start(); err != nil {
		return 0, false, err
	}

	// Phase 1: run until the holder parks at its in-CS barrier (the trier
	// is parked at its initial barrier throughout).
	if err := driveToIdle(r); err != nil {
		return 0, false, fmt.Errorf("abort probe (%s): staging holder: %w", ta.Name(), err)
	}
	// Phase 2: release the trier; it runs its whole attempt and finishes.
	if err := r.ReleaseBarrier(tryID); err != nil {
		return 0, false, err
	}
	if err := driveToIdle(r); err != nil {
		return 0, false, fmt.Errorf("abort probe (%s): try attempt: %w", ta.Name(), err)
	}
	rmr = r.Account(tryID).TotalRMR
	// Phase 3: release the holder and let the execution drain, proving the
	// abort left the lock in a usable state.
	holdID := 0
	if !tryIsWriter {
		holdID = n
	}
	if err := r.ReleaseBarrier(holdID); err != nil {
		return 0, false, err
	}
	if err := r.Run(); err != nil {
		return 0, false, fmt.Errorf("abort probe (%s): drain after abort: %w", ta.Name(), err)
	}
	return rmr, !entered, nil
}

// driveToIdle steps the runner until no process is schedulable (the
// remaining live processes are parked at barriers or the execution is
// over). Deadlock and budget errors propagate.
func driveToIdle(r *sim.Runner) error {
	for {
		progressed, err := r.Step()
		if err != nil {
			return err
		}
		if !progressed {
			return nil
		}
	}
}
