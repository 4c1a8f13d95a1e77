// Package cliutil holds the small flag-parsing helpers shared by the cmd/
// binaries.
package cliutil

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/parwork"
)

// ParallelFlag registers the shared -parallel flag. The returned apply
// function must be called after flag.Parse: it installs the chosen worker
// count as the process-wide sweep default (parwork.SetDefault), so every
// sweep and experiment grid in the invocation fans out across it. 0 (the
// default) selects GOMAXPROCS; 1 forces serial execution. Results are
// byte-identical at every worker count.
func ParallelFlag() (apply func()) {
	n := flag.Int("parallel", 0,
		"sweep worker count (0 = GOMAXPROCS, 1 = serial; results identical either way)")
	return func() { parwork.SetDefault(*n) }
}

// exit is swapped out by tests.
var exit = os.Exit

// NoArgs enforces that a parsed flag set received no positional arguments.
// The cmd/ binaries take configuration through flags only; a stray operand
// is almost always a mistyped flag, so it is reported and the process
// exits with the same status code the flag package uses for bad flags (2).
func NoArgs(fs *flag.FlagSet) {
	if fs.NArg() == 0 {
		return
	}
	fmt.Fprintf(fs.Output(), "%s: unexpected argument %q (flags only)\n", fs.Name(), fs.Arg(0))
	fs.Usage()
	Exit(2)
}

// ParseInts parses a comma-separated list of positive integers ("8,64,512").
func ParseInts(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("bad integer %q: %w", p, err)
		}
		if v <= 0 {
			return nil, fmt.Errorf("value %d must be positive", v)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list %q", s)
	}
	return out, nil
}

// ParseSeeds parses a comma-separated list of int64 seeds.
func ParseSeeds(s string) ([]int64, error) {
	parts := strings.Split(s, ",")
	out := make([]int64, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		v, err := strconv.ParseInt(p, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q: %w", p, err)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty seed list %q", s)
	}
	return out, nil
}
