package spec

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/memmodel"
	"repro/internal/parwork"
	"repro/internal/recoverable"
	"repro/internal/sched"
)

// TestCheckpointResumeDeterminism is the acceptance gate for crash-safe
// sweeps: a sweep interrupted by its Stopper and resumed from the
// checkpoint must produce output byte-identical to an uninterrupted run —
// at worker counts 1, 2 and NumCPU, across the three outcome wire formats
// (CrashOutcome, StallOutcome, *RecoverOutcome with its Scenario stub).
func TestCheckpointResumeDeterminism(t *testing.T) {
	newAlg := func() memmodel.Algorithm { return core.New(core.FLog) }
	newRec := func() memmodel.RecoverableAlgorithm { return recoverable.NewCentralized() }
	base := Scenario{NReaders: 2, NWriters: 2, ReaderPassages: 2, WriterPassages: 2, CSReads: 1}
	seeds := []int64{1, 2}

	cases := []struct {
		name string
		run  func(sc Scenario) (string, error)
	}{
		{"CrashSweep", func(sc Scenario) (string, error) {
			outs, err := CrashSweep(newAlg, sc, 0, nil)
			return render(outs), err
		}},
		{"StallSweepSampled", func(sc Scenario) (string, error) {
			outs, err := StallSweepSampled(newAlg, sc, []int{0, 2}, seeds, 6, nil)
			return render(outs), err
		}},
		{"RecoverySweepSampled", func(sc Scenario) (string, error) {
			outs, err := RecoverySweepSampled(newRec, sc, []int{0}, seeds, 6, 1, nil)
			return renderPtrs(outs), err
		}},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plain := base
			plain.Parallel = 1
			want, err := tc.run(plain)
			if err != nil {
				t.Fatalf("plain serial run: %v", err)
			}
			if want == "" {
				t.Fatal("plain run produced no outcomes; the case is vacuous")
			}

			for _, workers := range determinismWorkerCounts() {
				t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
					dir := t.TempDir()

					// Uninterrupted checkpointed run: the sink must not
					// perturb results.
					st, err := checkpoint.Open(filepath.Join(dir, "full.json"), false)
					if err != nil {
						t.Fatal(err)
					}
					sc := base
					sc.Parallel = workers
					sc.Robust = &RobustOptions{Store: st}
					got, err := tc.run(sc)
					if err != nil {
						t.Fatalf("checkpointed run: %v", err)
					}
					if got != want {
						t.Error("checkpointed run diverged from the plain run")
					}

					// Interrupted run: stop after a few rows. The pool is
					// capped at 2 here so in-flight overshoot cannot finish
					// the whole (small) sampled sweeps before the stop
					// lands; the resume below still runs at full width.
					ckPath := filepath.Join(dir, "ck.json")
					st1, err := checkpoint.Open(ckPath, false)
					if err != nil {
						t.Fatal(err)
					}
					stop := parwork.NewStopper()
					scI := base
					scI.Parallel = min(workers, 2)
					scI.Robust = &RobustOptions{Store: st1, Stop: stop,
						AfterRow: func(done int) {
							if done >= 3 {
								stop.Stop()
							}
						}}
					_, err = tc.run(scI)
					var ie *parwork.InterruptedError
					if !errors.As(err, &ie) {
						t.Fatalf("interrupted run returned %v, want *parwork.InterruptedError", err)
					}
					if ie.Done == 0 || ie.Done >= ie.Total {
						t.Fatalf("interrupt left %d/%d rows done; the split is vacuous", ie.Done, ie.Total)
					}

					// Resume: restored rows + freshly computed rows must
					// merge into the byte-identical output.
					st2, err := checkpoint.Open(ckPath, true)
					if err != nil {
						t.Fatalf("reopening checkpoint: %v", err)
					}
					var computed atomic.Int64
					scR := base
					scR.Parallel = workers
					scR.Robust = &RobustOptions{Store: st2,
						AfterRow: func(done int) { computed.Store(int64(done)) }}
					got2, err := tc.run(scR)
					if err != nil {
						t.Fatalf("resumed run: %v", err)
					}
					if got2 != want {
						t.Error("resumed run diverged from the uninterrupted output")
					}
					if int(computed.Load()) != ie.Total-ie.Done {
						t.Errorf("resume computed %d rows, want exactly the %d the interrupt left",
							computed.Load(), ie.Total-ie.Done)
					}
				})
			}
		})
	}
}

// bombSched panics on its first scheduling decision, simulating a row
// whose job blows up mid-execution.
type bombSched struct{ sched.Scheduler }

func (bombSched) Next(int, []int) int { panic("injected row panic") }

// bombAfter wraps a scheduler factory: the fuse'th instance it hands out
// is a bomb. With Parallel=1 the rows consume instances in order, so the
// failing row is deterministic. A sweep calls its factory once per
// reference run, once for its fingerprint, then once per row.
func bombAfter(fuse int) func() sched.Scheduler {
	bomb := bombAfterSeeded(fuse)
	return func() sched.Scheduler { return bomb(-1) }
}

// bombAfterSeeded is bombAfter for sampled sweeps: instances are
// sched.NewRandom(seed), or round-robin for a negative seed.
func bombAfterSeeded(fuse int) func(seed int64) sched.Scheduler {
	var calls atomic.Int64
	return func(seed int64) sched.Scheduler {
		var s sched.Scheduler = sched.NewRoundRobin()
		if seed >= 0 {
			s = sched.NewRandom(seed)
		}
		if calls.Add(1) == int64(fuse) {
			return bombSched{s}
		}
		return s
	}
}

// keepGoingRow is the part of a sweep outcome the keep-going check reads.
type keepGoingRow struct {
	err   error
	point string // the row's fault point(s)
	full  string // the whole outcome, rendered
}

// TestSweepKeepGoingIsolatesPanickingRow is the acceptance check for
// -keep-going: an injected panicking row becomes a reported RowFailure in
// its outcome slot, labeled with its fault point (and, for a sampled
// sweep, its seed), and the sweep completes; a later resume retries the
// failed row (it is never checkpointed) and reproduces the clean output.
func TestSweepKeepGoingIsolatesPanickingRow(t *testing.T) {
	newAlg := func() memmodel.Algorithm { return core.New(core.FLog) }
	base := Scenario{NReaders: 2, NWriters: 1, ReaderPassages: 1, WriterPassages: 1}
	base.Parallel = 1

	cases := []struct {
		name string
		// run sweeps sc with a scheduler factory whose fuse'th instance
		// panics (fuse 0: none does).
		run  func(sc Scenario, fuse int) ([]keepGoingRow, error)
		fuse int
		info string
	}{
		// Instances: 1 reference run, 1 fingerprint, then rows 0, 1, 2.
		{"CrashSweep", func(sc Scenario, fuse int) ([]keepGoingRow, error) {
			outs, err := CrashSweep(newAlg, sc, 0, bombAfter(fuse))
			rows := make([]keepGoingRow, len(outs))
			for i, o := range outs {
				rows[i] = keepGoingRow{o.Err, o.Point.String(), fmt.Sprintf("%+v", o)}
			}
			return rows, err
		}, 5, "crash p0 @2"},
		// Instances: 2 reference runs, 1 fingerprint, then rows; seed 4
		// contributes three rows, so instance 7 is seed 5's first.
		{"MixedSweepSampled", func(sc Scenario, fuse int) ([]keepGoingRow, error) {
			outs, err := MixedSweepSampled(newAlg, sc, []int{0}, []int{1, 2}, []int64{4, 5}, 3, bombAfterSeeded(fuse))
			rows := make([]keepGoingRow, len(outs))
			for i, o := range outs {
				rows[i] = keepGoingRow{o.Err, fmt.Sprint(o.CrashPoints, o.Point), fmt.Sprintf("%+v", o)}
			}
			return rows, err
		}, 7, "seed=5 crash p0 @7 + stall p1 @17 forever"},
	}
	renderRows := func(rows []keepGoingRow) string {
		var b strings.Builder
		for _, r := range rows {
			b.WriteString(r.full + "\n")
		}
		return b.String()
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := tc.run(base, 0)
			if err != nil {
				t.Fatal(err)
			}

			dir := t.TempDir()
			st, err := checkpoint.Open(filepath.Join(dir, "ck.json"), false)
			if err != nil {
				t.Fatal(err)
			}
			sc := base
			sc.Robust = &RobustOptions{Store: st, KeepGoing: true}
			outs, err := tc.run(sc, tc.fuse)
			if err != nil {
				t.Fatalf("keep-going sweep aborted: %v", err)
			}
			if len(outs) != len(want) {
				t.Fatalf("keep-going sweep returned %d outcomes, want %d", len(outs), len(want))
			}
			failed := -1
			for i, o := range outs {
				var rf *parwork.RowFailure
				if errors.As(o.err, &rf) {
					if failed != -1 {
						t.Fatalf("rows %d and %d both failed; want exactly one", failed, i)
					}
					failed = i
					if rf.Index != i {
						t.Errorf("RowFailure.Index = %d in slot %d", rf.Index, i)
					}
					if rf.PanicValue != "injected row panic" {
						t.Errorf("PanicValue = %q", rf.PanicValue)
					}
					if rf.Stack == "" {
						t.Error("RowFailure carries no stack")
					}
					if rf.Info != tc.info {
						t.Errorf("RowFailure.Info = %q, want %q", rf.Info, tc.info)
					}
					if o.point != want[i].point {
						t.Errorf("failed slot %d lost its fault point: %s != %s", i, o.point, want[i].point)
					}
					continue
				}
				if o.err != nil {
					t.Errorf("row %d: unexpected error %v", i, o.err)
				}
				if o.full != want[i].full {
					t.Errorf("healthy row %d diverged from the clean sweep", i)
				}
			}
			if failed == -1 {
				t.Fatal("the injected panic produced no RowFailure")
			}

			// Resume with a healthy scheduler factory: only the failed row
			// is recomputed, and the output now matches the clean sweep
			// everywhere.
			st2, err := checkpoint.Open(filepath.Join(dir, "ck.json"), true)
			if err != nil {
				t.Fatal(err)
			}
			var computed atomic.Int64
			scR := base
			scR.Robust = &RobustOptions{Store: st2,
				AfterRow: func(done int) { computed.Store(int64(done)) }}
			outs2, err := tc.run(scR, 0)
			if err != nil {
				t.Fatal(err)
			}
			if computed.Load() != 1 {
				t.Errorf("resume recomputed %d rows, want just the failed one", computed.Load())
			}
			if renderRows(outs2) != renderRows(want) {
				t.Error("resumed sweep diverged from the clean sweep")
			}
		})
	}
}

// TestSweepFailFastPanic: with no robust options on the scenario and no
// process default, a row whose scheduler panics re-raises the original
// panic value on the caller, serial or parallel.
func TestSweepFailFastPanic(t *testing.T) {
	prev := DefaultRobust()
	SetDefaultRobust(nil)
	t.Cleanup(func() { SetDefaultRobust(prev) })
	newAlg := func() memmodel.Algorithm { return core.New(core.FLog) }

	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			sc := Scenario{NReaders: 2, NWriters: 1, ReaderPassages: 1, WriterPassages: 1, Parallel: workers}
			defer func() {
				if v := recover(); v != "injected row panic" {
					t.Errorf("sweep panicked with %v, want the row's own panic value", v)
				}
			}()
			_, _ = CrashSweep(newAlg, sc, 0, bombAfter(5))
			t.Error("sweep returned despite a panicking row")
		})
	}
}

// TestSweepCheckpointMismatchRejected: resuming under a changed
// configuration must fail with the typed mismatch error, never silently
// merge stale rows.
func TestSweepCheckpointMismatchRejected(t *testing.T) {
	newAlg := func() memmodel.Algorithm { return core.New(core.FLog) }
	base := Scenario{NReaders: 2, NWriters: 1, ReaderPassages: 1, WriterPassages: 1, Parallel: 1}
	seeds := []int64{1, 2}

	t.Run("changed scenario", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "ck.json")
		st, _ := checkpoint.Open(path, false)
		sc := base
		sc.Robust = &RobustOptions{Store: st}
		if _, err := CrashSweep(newAlg, sc, 0, nil); err != nil {
			t.Fatal(err)
		}
		st2, err := checkpoint.Open(path, true)
		if err != nil {
			t.Fatal(err)
		}
		changed := base
		changed.CSReads = 2
		changed.Robust = &RobustOptions{Store: st2}
		_, err = CrashSweep(newAlg, changed, 0, nil)
		var mm *checkpoint.MismatchError
		if !errors.As(err, &mm) {
			t.Fatalf("changed scenario resumed with err = %v, want *checkpoint.MismatchError", err)
		}
	})

	t.Run("changed seed set", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "ck.json")
		st, _ := checkpoint.Open(path, false)
		sc := base
		sc.Robust = &RobustOptions{Store: st}
		if _, err := StallSweepSampled(newAlg, sc, []int{0}, seeds, 3, nil); err != nil {
			t.Fatal(err)
		}
		st2, err := checkpoint.Open(path, true)
		if err != nil {
			t.Fatal(err)
		}
		sc2 := base
		sc2.Robust = &RobustOptions{Store: st2}
		_, err = StallSweepSampled(newAlg, sc2, []int{0}, []int64{1, 3}, 3, nil)
		var mm *checkpoint.MismatchError
		if !errors.As(err, &mm) {
			t.Fatalf("changed seeds resumed with err = %v, want *checkpoint.MismatchError", err)
		}
	})
}

// TestWireRenderFidelity: every outcome produced by the real sweeps must
// survive its JSON wire format with an identical %+v rendering — the
// property resume determinism rests on. Error fields and the
// RecoverOutcome Scenario (live scheduler) are the nontrivial parts.
func TestWireRenderFidelity(t *testing.T) {
	newAlg := func() memmodel.Algorithm { return core.New(core.FLog) }
	newRec := func() memmodel.RecoverableAlgorithm { return recoverable.NewCentralized() }
	sc := Scenario{NReaders: 2, NWriters: 1, ReaderPassages: 1, WriterPassages: 1, Parallel: 1}

	roundTrip := func(t *testing.T, in, out any) {
		t.Helper()
		p, err := json.Marshal(in)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		if err := json.Unmarshal(p, out); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
	}

	t.Run("CrashOutcome", func(t *testing.T) {
		outs, err := CrashSweep(newAlg, sc, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Append a synthetic errored outcome so the Err path is covered
		// even when the sweep produces none.
		outs = append(outs, CrashOutcome{Algorithm: "x",
			Err: fmt.Errorf("wrapped: %w", errors.New("inner"))})
		for i, o := range outs {
			var back CrashOutcome
			roundTrip(t, o, &back)
			if fmt.Sprintf("%+v", o) != fmt.Sprintf("%+v", back) {
				t.Fatalf("outcome %d changed rendering across the wire:\n %+v\nvs\n %+v", i, o, back)
			}
		}
	})

	t.Run("StallOutcome", func(t *testing.T) {
		outs, err := StallSweep(newAlg, sc, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, o := range outs {
			var back StallOutcome
			roundTrip(t, o, &back)
			if fmt.Sprintf("%+v", o) != fmt.Sprintf("%+v", back) {
				t.Fatalf("outcome %d changed rendering across the wire:\n %+v\nvs\n %+v", i, o, back)
			}
		}
	})

	t.Run("RecoverOutcome", func(t *testing.T) {
		outs, err := RecoverySweep(newRec, sc, 0, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, o := range outs {
			var back RecoverOutcome
			roundTrip(t, o, &back)
			if fmt.Sprintf("%+v", *o) != fmt.Sprintf("%+v", back) {
				t.Fatalf("outcome %d changed rendering across the wire:\n %+v\nvs\n %+v", i, *o, back)
			}
		}
	})
}

// TestSweepFingerprintsStable pins the checkpoint identity of every sweep
// entry point — section key, configuration fingerprint and row count — on
// one fixed scenario. A checkpoint written by an earlier build resumes only
// if all three still match, so a change to any of them silently orphans
// existing checkpoint files (they fail with *checkpoint.MismatchError).
func TestSweepFingerprintsStable(t *testing.T) {
	newAlg := func() memmodel.Algorithm { return core.New(core.FLog) }
	newRec := func() memmodel.RecoverableAlgorithm { return recoverable.NewCentralized() }
	base := Scenario{NReaders: 2, NWriters: 1, ReaderPassages: 1, WriterPassages: 1, Parallel: 2}
	seeds := []int64{1, 2}

	cases := []struct {
		name string
		run  func(sc Scenario) error
		key  string
		fp   string
		rows int
	}{
		{"CrashSweep", func(sc Scenario) error {
			_, err := CrashSweep(newAlg, sc, 0, nil)
			return err
		}, "crash/af-log#1",
			"25e769b1b7ece547b73bbf5baab37523909a5ff4e93c7c96d310917257cbc451", 81},
		{"CrashSweepSampled", func(sc Scenario) error {
			_, err := CrashSweepSampled(newAlg, sc, []int{0, 2}, seeds, 4, nil)
			return err
		}, "crash-sampled/af-log#1",
			"b67b9c6a69c68ade6ee8b2fc94bb42d3b6d5ba53db64982ede8964b23ad28aa7", 8},
		{"StallSweep", func(sc Scenario) error {
			_, err := StallSweep(newAlg, sc, 2, nil)
			return err
		}, "stall/af-log#1",
			"cf0f2e5952b963a82b71c24f6be3cd4ef420dde8ced41570858ff673de1d8399", 162},
		{"StallSweepSampled", func(sc Scenario) error {
			_, err := StallSweepSampled(newAlg, sc, []int{0, 2}, seeds, 4, nil)
			return err
		}, "stall-sampled/af-log#1",
			"da154df59cb8462c4b215001fb78208603bdafb6f6b1e6e9a590b5bd7028399d", 8},
		{"MixedSweepSampled", func(sc Scenario) error {
			_, err := MixedSweepSampled(newAlg, sc, []int{0, 1}, []int{1, 2}, seeds, 4, nil)
			return err
		}, "mixed-sampled/af-log#1",
			"524a5d0eaba57867f732e2a4e6625a1ab457d7c685da7dcaa6c830a3cb89c283", 3},
		{"RecoverySweep", func(sc Scenario) error {
			_, err := RecoverySweep(newRec, sc, 0, 1, nil)
			return err
		}, "recover/r-centralized#1",
			"d449c45852c84a11292224ca6777efc6e1b9de7011b99d2bd8c1d8d9a0bba66c", 35},
		{"RecoverySweepRecrash", func(sc Scenario) error {
			_, err := RecoverySweepRecrash(newRec, sc, 2, 3, []int{1, 2}, nil)
			return err
		}, "recover-recrash/r-centralized#1",
			"c70e886fae98eb2dd6d202a03e1df1c703bc2948ff07a2e780c946e6591109e1", 24},
		{"RecoverySweepSampled", func(sc Scenario) error {
			_, err := RecoverySweepSampled(newRec, sc, []int{0, 2}, seeds, 4, 1, nil)
			return err
		}, "recover-sampled/r-centralized#1",
			"f16e355e725c0ff716c2154ef5169ddce6bc951a871e3404362325bd74f3c6a8", 8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "ck.json")
			st, err := checkpoint.Open(path, false)
			if err != nil {
				t.Fatal(err)
			}
			sc := base
			sc.Robust = &RobustOptions{Store: st}
			if err := tc.run(sc); err != nil {
				t.Fatal(err)
			}
			buf, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var file struct {
				Sections map[string]struct {
					Fingerprint string `json:"fingerprint"`
					Total       int    `json:"total"`
				} `json:"sections"`
			}
			if err := json.Unmarshal(buf, &file); err != nil {
				t.Fatal(err)
			}
			if len(file.Sections) != 1 {
				t.Fatalf("sweep wrote %d checkpoint sections, want 1", len(file.Sections))
			}
			for key, sec := range file.Sections {
				if key != tc.key || sec.Fingerprint != tc.fp || sec.Total != tc.rows {
					t.Errorf("checkpoint identity changed:\n got %s %s rows=%d\nwant %s %s rows=%d",
						key, sec.Fingerprint, sec.Total, tc.key, tc.fp, tc.rows)
				}
			}
		})
	}
}
