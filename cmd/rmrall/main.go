// Command rmrall regenerates the simulator experiment tables of
// EXPERIMENTS.md, all of them or the sections named by -only (native
// throughput, E7, has its own binary: rwbench).
//
// Usage:
//
//	rmrall [-only E1,E3,...] [-n 8,32,...] [-seeds 1,2,3] [-quick] [-parallel N]
//
// -n replaces the reader-count grid of every selected section that has one
// (E1, E2, E3a, E5, E8, E9, E11, E12); -seeds replaces the seed list of E4,
// E6 and E11. A grid flag that feeds none of the selected sections is an
// error. -only E3 selects both E3a and E3b.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/cliutil"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/tablefmt"
)

func main() {
	only := flag.String("only", "", "comma-separated section IDs, e.g. E1,E3 (E3 = E3a+E3b); default all")
	ns := flag.String("n", "", "comma-separated reader counts for every selected section with a reader grid")
	seeds := flag.String("seeds", "", "comma-separated scheduler seeds for E4, E6 and E11")
	quick := flag.Bool("quick", false, "smaller grids (faster)")
	applyParallel := cliutil.ParallelFlag()
	flag.Parse()
	cliutil.NoArgs(flag.CommandLine)
	applyParallel()

	cfg := config{only: *only, quick: *quick}
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "n":
			cfg.ns = ns
		case "seeds":
			cfg.seeds = seeds
		}
	})
	if err := run(os.Stdout, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "rmrall:", err)
		os.Exit(1)
	}
}

// config is rmrall's command line. ns and seeds hold the raw -n and -seeds
// values, nil when the flag was not given.
type config struct {
	only      string
	ns, seeds *string
	quick     bool
}

// grid is one section's parameters: ns is the reader-count grid -n
// replaces, seeds the seed list -seeds replaces, ms a fixed writer grid.
// A nil field is one the section does not take.
type grid struct {
	ns    []int
	ms    []int
	seeds []int64
}

// section is one table: its ID for -only, its heading, its default and
// -quick grids, and the experiment that renders it.
type section struct {
	id, title   string
	full, quick grid
	gen         func(grid) (*tablefmt.Table, error)
}

// table drops an experiment's rows, keeping its rendered table.
func table[R any](_ []R, t *tablefmt.Table, err error) (*tablefmt.Table, error) { return t, err }

var sections = []section{
	{"E1", "E1: A_f tradeoff (Theorem 18), write-through",
		grid{ns: []int{8, 32, 128, 512}}, grid{ns: []int{8, 32}},
		func(g grid) (*tablefmt.Table, error) {
			return table(experiments.E1Tradeoff(g.ns, sim.WriteThrough))
		}},
	{"E2", "E2: Theorem-5 adversarial construction",
		grid{ns: []int{9, 27, 81, 243}}, grid{ns: []int{9, 27}},
		func(g grid) (*tablefmt.Table, error) {
			return table(experiments.E2LowerBound(g.ns, sim.WriteThrough))
		}},
	{"E3a", "E3a: Corollary 6 (max side vs log2 n)",
		grid{ns: []int{8, 32, 128}}, grid{ns: []int{8}},
		func(g grid) (*tablefmt.Table, error) { return table(experiments.E3MaxBound(g.ns)) }},
	{"E3b", "E3b: Corollary 7 (writer RMR vs log2 m)",
		grid{ms: []int{1, 4, 16, 64}}, grid{ms: []int{1, 16}},
		func(g grid) (*tablefmt.Table, error) { return table(experiments.E3WriterMutex(g.ms)) }},
	{"E4", "E4: algorithm comparison across mixes",
		grid{seeds: []int64{1, 2, 3}}, grid{seeds: []int64{1}},
		func(g grid) (*tablefmt.Table, error) {
			return table(experiments.E4Baselines(16, 2, g.seeds, sim.WriteThrough))
		}},
	{"E5", "E5: write-through vs write-back",
		grid{ns: []int{8, 32, 128}}, grid{ns: []int{8}},
		func(g grid) (*tablefmt.Table, error) { return table(experiments.E5Protocols(g.ns)) }},
	{"E6", "E6: property matrix",
		grid{seeds: []int64{1, 2, 3}}, grid{seeds: []int64{1}},
		func(g grid) (*tablefmt.Table, error) { return table(experiments.E6Properties(g.seeds)) }},
	{"E8", "E8: CC vs DSM",
		grid{ns: []int{8, 32, 128}}, grid{ns: []int{8}},
		func(g grid) (*tablefmt.Table, error) { return table(experiments.E8ModelContrast(g.ns)) }},
	{"E9", "E9: counter ablation",
		grid{ns: []int{1, 4, 16}}, grid{ns: []int{1}},
		func(g grid) (*tablefmt.Table, error) { return table(experiments.E9CounterAblation(g.ns)) }},
	{"E10", "E10: WL substrate ablation",
		grid{ms: []int{1, 4, 16, 64}}, grid{ms: []int{1, 16}},
		func(g grid) (*tablefmt.Table, error) { return table(experiments.E10MutexSubstrates(g.ms)) }},
	{"E11", "E11: adversary vs random sampling",
		grid{ns: []int{9, 27}, seeds: []int64{1, 2, 3, 4}}, grid{ns: []int{9, 27}, seeds: []int64{1, 2, 3, 4}},
		func(g grid) (*tablefmt.Table, error) { return table(experiments.E11AdversaryValue(g.ns, g.seeds)) }},
	{"E12", "E12: Theorem-18 shape fits",
		grid{ns: []int{8, 32, 128, 512}}, grid{ns: []int{8, 32}},
		func(g grid) (*tablefmt.Table, error) {
			return table(experiments.E12ShapeFits(g.ns, sim.WriteThrough))
		}},
}

// selectSections returns the sections named by a comma-separated -only
// list, in table order; "" selects all, and E3 names both E3a and E3b.
func selectSections(only string) ([]section, error) {
	if only == "" {
		return sections, nil
	}
	picked := make([]bool, len(sections))
	for _, id := range strings.Split(only, ",") {
		id = strings.TrimSpace(id)
		found := false
		for i, s := range sections {
			if id == s.id || id == strings.TrimRight(s.id, "ab") {
				picked[i], found = true, true
			}
		}
		if !found {
			return nil, fmt.Errorf("-only: unknown section %q", id)
		}
	}
	var out []section
	for i, s := range sections {
		if picked[i] {
			out = append(out, s)
		}
	}
	return out, nil
}

// override applies a grid flag: it parses raw (nil when the flag was not
// given) and installs the list in every grid whose field takes it. A flag
// that feeds none of the grids is an error.
func override[T any](name string, raw *string, parse func(string) ([]T, error),
	grids []grid, field func(*grid) *[]T) error {
	if raw == nil {
		return nil
	}
	v, err := parse(*raw)
	if err != nil {
		return fmt.Errorf("-%s: %w", name, err)
	}
	fed := false
	for i := range grids {
		if f := field(&grids[i]); *f != nil {
			*f, fed = v, true
		}
	}
	if !fed {
		return fmt.Errorf("-%s feeds none of the selected sections", name)
	}
	return nil
}

func run(w io.Writer, cfg config) error {
	selected, err := selectSections(cfg.only)
	if err != nil {
		return err
	}
	grids := make([]grid, len(selected))
	for i, s := range selected {
		grids[i] = s.full
		if cfg.quick {
			grids[i] = s.quick
		}
	}
	if err := override("n", cfg.ns, cliutil.ParseInts, grids,
		func(g *grid) *[]int { return &g.ns }); err != nil {
		return err
	}
	if err := override("seeds", cfg.seeds, cliutil.ParseSeeds, grids,
		func(g *grid) *[]int64 { return &g.seeds }); err != nil {
		return err
	}

	for i, s := range selected {
		fmt.Fprintln(w, "=== "+s.title)
		t, err := s.gen(grids[i])
		if err != nil {
			return fmt.Errorf("%s: %w", s.title, err)
		}
		fmt.Fprintln(w, t)
	}
	return nil
}
