package core

// Staged fairness tests.
//
// TestWriterStarvationUnderReaderChurn demonstrates the limitation the
// paper acknowledges in Section 6: "Writers, however, may starve if there
// are always readers performing passages." The schedule keeps at least one
// reader inside a passage at every reader exit, so no exiting reader ever
// observes C[i] = 0 and the writer waits at line 14 forever.
//
// TestReaderNotStarvedByBackToBackWriters pins Lemma 16's no-reader-
// starvation guarantee in the adversarial spot: a reader parked on writer
// A's <seq, WAIT> whose wake-up re-check is delayed until after writer B
// has already begun its entry. Because the parked reader is counted in
// C[i], writer B blocks in its PREENTRY scan, the reader's re-check sees a
// changed RSIG pair and the reader overtakes B into the CS; B completes
// only after the reader's exit signals PROCEED.

import (
	"testing"

	"repro/internal/memmodel"
	"repro/internal/sim"
)

// stagedAF wires an A_f instance for step-by-step driving. Reader
// programs carry two barriers per passage: one before the entry section
// (start barrier) and one inside the CS, giving the driver exact control
// over passage phases. Writers carry a start barrier and an in-CS barrier.
type stagedAF struct {
	t   *testing.T
	r   *sim.Runner
	alg *AF
}

func newStagedAF(t *testing.T, f F, nReaders, readerPassages, nWriters int) *stagedAF {
	t.Helper()
	r := sim.New(sim.Config{})
	alg := New(f)
	if err := alg.Init(r, nReaders, nWriters); err != nil {
		t.Fatalf("Init: %v", err)
	}
	for rid := 0; rid < nReaders; rid++ {
		rid := rid
		r.AddProc(func(p sim.Proc) {
			for i := 0; i < readerPassages; i++ {
				p.Barrier() // start of passage
				p.Section(memmodel.SecEntry)
				alg.ReaderEnter(p, rid)
				p.Section(memmodel.SecCS)
				p.Barrier() // inside the CS
				p.Section(memmodel.SecExit)
				alg.ReaderExit(p, rid)
				p.Section(memmodel.SecRemainder)
			}
		})
	}
	for wid := 0; wid < nWriters; wid++ {
		wid := wid
		r.AddProc(func(p sim.Proc) {
			p.Barrier() // start
			p.Section(memmodel.SecEntry)
			alg.WriterEnter(p, wid)
			p.Section(memmodel.SecCS)
			p.Barrier() // inside the CS
			p.Section(memmodel.SecExit)
			alg.WriterExit(p, wid)
			p.Section(memmodel.SecRemainder)
		})
	}
	if err := r.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(r.Close)
	return &stagedAF{t: t, r: r, alg: alg}
}

func (s *stagedAF) at(id int, where func() []int) bool {
	for _, b := range where() {
		if b == id {
			return true
		}
	}
	return false
}

func (s *stagedAF) isAwaiting(id int) bool { return s.at(id, s.r.Awaiting) }

func (s *stagedAF) step(id int) {
	s.t.Helper()
	if err := s.r.StepProc(id); err != nil {
		s.t.Fatalf("step p%d: %v", id, err)
	}
}

func (s *stagedAF) release(id int) {
	s.t.Helper()
	if err := s.r.ReleaseBarrier(id); err != nil {
		s.t.Fatalf("release p%d: %v", id, err)
	}
}

// driveToBarrier runs id solo until it parks at its next barrier.
func (s *stagedAF) driveToBarrier(id int, what string) {
	s.t.Helper()
	for i := 0; !s.r.IsAtBarrier(id); i++ {
		if i > 100_000 {
			s.t.Fatalf("p%d never reached barrier (%s)", id, what)
		}
		if _, poised := s.r.PendingOf(id); !poised {
			s.t.Fatalf("p%d blocked before barrier (%s)", id, what)
		}
		s.step(id)
	}
}

// driveWhilePoised runs id until it blocks or finishes.
func (s *stagedAF) driveWhilePoised(id int) {
	s.t.Helper()
	for i := 0; i < 100_000; i++ {
		if _, poised := s.r.PendingOf(id); !poised {
			return
		}
		s.step(id)
	}
	s.t.Fatalf("p%d still poised after budget", id)
}

// enterCS releases id's start barrier and drives it into the CS (to its
// in-CS barrier).
func (s *stagedAF) enterCS(id int) {
	s.t.Helper()
	s.release(id)
	s.driveToBarrier(id, "in-CS")
}

// finishPassage releases id's in-CS barrier and drives it through the exit
// to its next start barrier (or to completion).
func (s *stagedAF) finishPassage(id int) {
	s.t.Helper()
	s.release(id)
	for i := 0; i < 100_000; i++ {
		if s.r.IsAtBarrier(id) {
			return // next passage's start barrier
		}
		if _, poised := s.r.PendingOf(id); !poised {
			if s.isAwaiting(id) {
				s.t.Fatalf("p%d awaiting during exit (Bounded Exit violated)", id)
			}
			return // done
		}
		s.step(id)
	}
	s.t.Fatalf("p%d exit did not finish", id)
}

func TestWriterStarvationUnderReaderChurn(t *testing.T) {
	const rounds = 10
	// Two readers in one group (FOne); one writer.
	s := newStagedAF(t, FOne, 2, rounds+2, 1)
	const r0, r1, w = 0, 1, 2

	// R0 enters the CS and holds it.
	s.enterCS(r0)

	// The writer begins its entry; with C[0] = 1 it blocks at line 14
	// waiting for a PROCEED that only an exiting reader seeing C[0] = 0
	// can send.
	s.release(w)
	for i := 0; !s.isAwaiting(w); i++ {
		if i > 100_000 {
			t.Fatal("writer did not reach its await")
		}
		s.step(w)
	}

	// Churn: the idle reader enters the CS (overlap), then the active one
	// exits and immediately re-enters. C[0] never reaches 0 at any exit
	// check, so the writer stays blocked while readers complete passage
	// after passage.
	inCS, next := r0, r1
	for round := 0; round < rounds; round++ {
		s.enterCS(next)       // both readers now in the CS
		s.finishPassage(inCS) // one leaves: C[0] drops 2 -> 1, not 0
		inCS, next = next, inCS
	}

	if !s.isAwaiting(w) {
		t.Fatal("writer progressed despite perpetual reader churn")
	}
	completed := len(s.r.Account(r0).Passages) + len(s.r.Account(r1).Passages)
	if completed < rounds {
		t.Fatalf("readers completed only %d passages during the churn", completed)
	}

	// Quiesce: the last reader exits with no replacement; its exit sees
	// C[0] = 0, CASes PROCEED, and the writer finally advances into the
	// CS (deadlock freedom).
	s.finishPassage(inCS)
	s.driveToBarrier(w, "writer CS")
	if s.r.Account(w).Section() != memmodel.SecCS {
		t.Fatal("writer barrier reached outside the CS")
	}
}

func TestReaderNotStarvedByBackToBackWriters(t *testing.T) {
	// One reader, two writers, back to back.
	s := newStagedAF(t, FOne, 1, 1, 2)
	const rd, w0, w1 = 0, 1, 2

	// Writer 0 enters the CS (no readers yet).
	s.enterCS(w0)

	// The reader arrives, reads <0, WAIT>, registers in W[0], helps, and
	// parks on RSIG.
	s.release(rd)
	for i := 0; !s.isAwaiting(rd); i++ {
		if i > 100_000 {
			t.Fatal("reader did not park")
		}
		s.step(rd)
	}

	// Writer 1 queues on WL behind w0.
	s.release(w1)
	for i := 0; !s.isAwaiting(w1); i++ {
		if i > 100_000 {
			t.Fatal("w1 did not queue on WL")
		}
		s.step(w1)
	}

	// w0 exits (WSEQ -> 1, RSIG -> <1, NOP>, WL released). The reader is
	// woken but we deliberately delay scheduling it.
	s.finishPassage(w0)

	// w1 takes WL and runs as far as it can. Crucially, the parked reader
	// is still counted in C[0], so w1 blocks in its PREENTRY scan
	// (line 14) and never publishes a new WAIT over the reader's head.
	s.driveWhilePoised(w1)
	if !s.isAwaiting(w1) {
		t.Fatal("w1 should block in PREENTRY while the reader is mid-passage")
	}

	// The delayed reader finally re-checks RSIG: the pair changed (new
	// sequence number), so it proceeds into the CS ahead of w1 — no
	// reader starvation.
	s.driveToBarrier(rd, "reader CS")
	if s.r.Account(rd).Section() != memmodel.SecCS {
		t.Fatal("reader not in CS")
	}
	if !s.isAwaiting(w1) {
		t.Fatal("w1 entered alongside the reader")
	}

	// The reader's exit observes C[0] = 0 under <1, PREENTRY> and CASes
	// PROCEED, releasing w1 to complete its passage (helping chain).
	s.finishPassage(rd)
	s.driveToBarrier(w1, "w1 CS")
	if s.r.Account(w1).Section() != memmodel.SecCS {
		t.Fatal("w1 never entered the CS after the reader left")
	}
	s.finishPassage(w1)
	if len(s.r.Account(w1).Passages) != 1 {
		t.Fatal("w1 passage not completed")
	}
}
