package lint_test

import (
	"sort"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/analysis"
)

// TestAlgorithmPackageScope pins the memdiscipline/spinloop boundary: the
// algorithm-only analyzers cover exactly the five packages written against
// memmodel.Proc, and in particular do NOT cover internal/parwork — the
// parallel sweep engine deliberately lives outside the simulated
// shared-memory discipline (it coordinates whole simulator executions with
// real goroutines and sync). Widening the scope map to include a harness
// package, or dropping an algorithm package from it, is a deliberate
// decision this test forces into review.
func TestAlgorithmPackageScope(t *testing.T) {
	want := []string{
		"repro/internal/baseline",
		"repro/internal/core",
		"repro/internal/counter",
		"repro/internal/mutex",
		"repro/internal/recoverable",
	}
	var got []string
	for p := range lint.AlgorithmPackages {
		got = append(got, p)
	}
	sort.Strings(got)
	if len(got) != len(want) {
		t.Fatalf("AlgorithmPackages = %v, want exactly %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("AlgorithmPackages = %v, want exactly %v", got, want)
		}
	}

	harness := []string{
		// parwork now also carries the work-stealing scheduler's sync/atomic
		// stats counters (steals, claims, idle probes) — real host atomics,
		// intentionally outside the simulated memory discipline.
		"repro/internal/parwork",
		"repro/internal/sim",
		"repro/internal/spec",
		"repro/internal/explore",
		// The lock service is real concurrency by design: goroutines, sync,
		// TCP. Its per-shard passage counters are plain words under a
		// conventional mutex, not simulated memory.
		"repro/internal/lockd",
		"repro/internal/lockd/wire",
		// Durability layer: WAL framing, snapshots, fsync goroutines — all
		// host I/O and real sync, never simulated memory.
		"repro/internal/lockd/durable",
	}
	for _, pkg := range harness {
		if lint.DefaultScope(lint.MemDiscipline, pkg) {
			t.Errorf("memdiscipline covers harness package %s; it must stay out of scope", pkg)
		}
		if lint.DefaultScope(lint.SpinLoop, pkg) {
			t.Errorf("spinloop covers harness package %s; it must stay out of scope", pkg)
		}
	}
	for pkg := range lint.AlgorithmPackages {
		if !lint.DefaultScope(lint.MemDiscipline, pkg) {
			t.Errorf("memdiscipline does not cover algorithm package %s", pkg)
		}
	}
	// The repo-wide analyzers still see everything, parwork included.
	if !lint.DefaultScope(lint.PurePred, "repro/internal/parwork") {
		t.Error("purepred must remain repo-wide")
	}
	// The service-layer analyzers DO cover lockd and the durability
	// layer — that is their reason to exist — while memdiscipline stays
	// out (asserted above). They are module-wide, so a rogue durable
	// state write or sentinel == in any package is visible.
	for _, a := range []*analysis.Analyzer{lint.LockGuard, lint.DurDiscipline, lint.ErrDiscipline} {
		for _, pkg := range []string{"repro/internal/lockd", "repro/internal/lockd/durable", "repro/internal/lockd/wire"} {
			if !lint.DefaultScope(a, pkg) {
				t.Errorf("%s does not cover service package %s", a.Name, pkg)
			}
		}
	}
}
