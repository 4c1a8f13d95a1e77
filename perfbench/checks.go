package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"

	"repro/internal/experiments"
	"repro/internal/lockd/wire"
	"repro/internal/sim"
	"repro/internal/spec"
)

// Correctness checks. Each returns the failures it found; an empty result
// means the check passed. The package test feeds every check a corrupted
// input to show that it fails.

// goldenE2 is the committed E2 table for n in {9, 27}, write-through.
const goldenE2 = "internal/experiments/testdata/e2_wt.golden"

// checkE2Row applies Lemma 1 (every expanding step is an RMR), Lemma 2
// (M grows by at most 3 per round) and Lemma 4 (the writer is aware of
// all n readers) to one E2 cell. Lemma 2 covers read/write/CAS steps only,
// so the fetch-and-add baseline is exempt from it, as in the experiments'
// own tests.
func checkE2Row(r experiments.E2Row) []string {
	var bad []string
	if r.Lemma1Violations != 0 {
		bad = append(bad, fmt.Sprintf("E2 %s n=%d: %d Lemma 1 violations", r.Alg, r.N, r.Lemma1Violations))
	}
	if r.Alg != "faa-phasefair" && r.MaxGrowth > 3+1e-9 {
		bad = append(bad, fmt.Sprintf("E2 %s n=%d: round growth %.2f breaks Lemma 2", r.Alg, r.N, r.MaxGrowth))
	}
	if r.WriterAware != r.N {
		bad = append(bad, fmt.Sprintf("E2 %s n=%d: writer aware of %d readers breaks Lemma 4", r.Alg, r.N, r.WriterAware))
	}
	return bad
}

// checkE2Golden requires the rows for n in {9, 27} to render exactly the
// committed golden table. They must equal the rows E2LowerBound produces
// for that grid alone, whose table is then compared byte for byte.
func checkE2Golden(root string, rows []experiments.E2Row) []string {
	want, err := os.ReadFile(filepath.Join(root, goldenE2))
	if err != nil {
		return []string{fmt.Sprintf("E2 golden: %v", err)}
	}
	var small []experiments.E2Row
	for _, r := range rows {
		if r.N == 9 || r.N == 27 {
			small = append(small, r)
		}
	}
	ref, table, err := experiments.E2LowerBound([]int{9, 27}, sim.WriteThrough)
	if err != nil {
		return []string{fmt.Sprintf("E2 golden: %v", err)}
	}
	if !reflect.DeepEqual(small, ref) {
		return []string{"E2 rows for n in {9, 27} differ from those of the n in {9, 27} grid"}
	}
	if got := table.String(); got != string(want) {
		return []string{fmt.Sprintf("E2 table for n in {9, 27} differs from %s:\n%s", goldenE2, got)}
	}
	return nil
}

// checkCrashRow requires zero Mutual Exclusion violations and zero step
// budget overruns in one E13 cell.
func checkCrashRow(r experiments.E13CrashRow) []string {
	if r.MEViol == 0 && r.Budget == 0 {
		return nil
	}
	return []string{fmt.Sprintf("E13 %s %s %s: %d ME violations, %d budget overruns",
		r.Alg, r.Victim, r.Section, r.MEViol, r.Budget)}
}

// checkStallRow requires zero ME violations, budget overruns and
// watchdog misclassifications, and every finite stall to complete.
func checkStallRow(r experiments.E15StallRow) []string {
	if r.MEViol == 0 && r.Budget == 0 && r.Misclass == 0 && r.FinOK == r.FinPoints {
		return nil
	}
	return []string{fmt.Sprintf("E15 %s %s %s: %d ME violations, %d budget overruns, %d misclassified, %d/%d finite stalls completed",
		r.Alg, r.Victim, r.Section, r.MEViol, r.Budget, r.Misclass, r.FinOK, r.FinPoints)}
}

// checkMixed holds the safety and watchdog axes on one mixed crash+stall
// outcome.
func checkMixed(o spec.StallOutcome) []string {
	if o.Err == nil && len(o.MEViolations) == 0 && !o.BudgetExceeded && len(o.Misclassified) == 0 {
		return nil
	}
	return []string{fmt.Sprintf("mixed %s %s: err=%v, %d ME violations, budget=%t, %d misclassified",
		o.Algorithm, o.Point, o.Err, len(o.MEViolations), o.BudgetExceeded, len(o.Misclassified))}
}

// ledger is the client side of the lockd passage ledger: every write
// fencing token a client was granted, per key, and the number of write
// grants the clients observed.
type ledger struct {
	writeTokens map[string][]uint64
	writes      int64
}

func newLedger() *ledger { return &ledger{writeTokens: map[string][]uint64{}} }

func (l *ledger) add(key string, token uint64) {
	l.writeTokens[key] = append(l.writeTokens[key], token)
	l.writes++
}

func (l *ledger) merge(other *ledger) {
	for k, toks := range other.writeTokens {
		l.writeTokens[k] = append(l.writeTokens[k], toks...)
	}
	l.writes += other.writes
}

// checkLedger requires that no write token was granted twice for a key,
// and that the server's write grants over the window equal the write
// grants the clients observed plus the write holds it revoked.
func checkLedger(l *ledger, before, after wire.Stats) []string {
	var bad []string
	for key, toks := range l.writeTokens {
		toks = slices.Clone(toks)
		slices.Sort(toks)
		for i := 1; i < len(toks); i++ {
			if toks[i] == toks[i-1] {
				bad = append(bad, fmt.Sprintf("ledger: write token %d granted twice on %q", toks[i], key))
			}
		}
	}
	grants := sumShards(after, func(s wire.ShardStats) uint64 { return s.WriteGrants }) -
		sumShards(before, func(s wire.ShardStats) uint64 { return s.WriteGrants })
	revoked := sumShards(after, func(s wire.ShardStats) uint64 { return s.RevokedWrite }) -
		sumShards(before, func(s wire.ShardStats) uint64 { return s.RevokedWrite })
	if grants != uint64(l.writes)+revoked {
		bad = append(bad, fmt.Sprintf("ledger: server granted %d writes, clients observed %d and %d were revoked",
			grants, l.writes, revoked))
	}
	return bad
}

func sumShards(st wire.Stats, f func(wire.ShardStats) uint64) uint64 {
	var n uint64
	for _, s := range st.Shards {
		n += f(s)
	}
	return n
}
