// Command perfbench is the repository's benchmark: two workloads drive the
// reproduction engine (experiments -> lowerbound/spec -> sim under parwork)
// and two drive the rwlockd lock service in process over loopback TCP
// (lockd client -> wire -> lockd sessions/shards -> durable). See README.md
// in this directory for the workloads, the metrics and what each layer
// metric should move.
//
//	bash perfbench/run.sh --workload sim-faultsweep --seed 1 --seconds 20 --trace 0
//
// With --trace 0 a run measures the end-to-end metrics with tracing off;
// with --trace 1 it times calls into each layer's public functions from the
// benchmark's own code, writes the spans, and reports the per-layer
// metrics. The last line of standard output is one JSON object with the
// keys correct, attempted, failed and metrics; the line before it is the
// full report, including provenance.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/parwork"
)

type metricDef struct{ name, unit string }

// endToEnd is what a user of either half sees. An op is one checked
// execution on the sim workloads (an E2 cell or one fault point) and one
// lock passage (acquire, then release) on the lockd workloads.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_heap_mb", "MB"},
	{"ok_ratio", "ratio"},
	{"ops_per_s", "1/s"},
	{"cpu_us_per_op", "us"},
	{"alloc_kb_per_op", "KB"},
}

// perLayer is reported by traced runs. A layer that is not on a workload's
// path reads 0 there; a percentile that fails the guard is null.
var perLayer = []metricDef{
	{"lowerbound.cell_ms.p50", "ms"},
	{"lowerbound.cell_ms.max", "ms"},
	{"lowerbound.steps", "count"},
	{"lowerbound.ns_per_step", "ns"},
	{"lowerbound.alloc_b_per_step", "B"},
	{"spec.rows", "count"},
	{"spec.ref_steps", "count"},
	{"sim.ns_per_step", "ns"},
	{"spec.crash_row_us.p50", "us"},
	{"spec.crash_row_us.p99", "us"},
	{"spec.stall_row_us.p50", "us"},
	{"spec.stall_row_us.p99", "us"},
	{"spec.alloc_b_per_row", "B"},
	{"parwork.busy_s", "s"},
	{"parwork.idle_s", "s"},
	{"parwork.chunks", "count"},
	{"parwork.local_claims", "count"},
	{"parwork.steals", "count"},
	{"parwork.idle_probes", "count"},
	{"wire.encode_ns", "ns"},
	{"wire.decode_ns", "ns"},
	{"wire.bytes_per_passage", "B"},
	{"wire.allocs_per_passage", "count"},
	{"lockd.read_grants", "count"},
	{"lockd.write_grants", "count"},
	{"lockd.timeouts", "count"},
	{"lockd.sheds", "count"},
	{"lockd.queued_max", "count"},
	{"lockd.max_writer_bypass", "count"},
	{"lockd.self_us_per_passage", "us"},
	{"durable.records_per_passage", "count"},
	{"durable.wal_bytes_per_passage", "B"},
	{"durable.append_us.p50", "us"},
	{"durable.append_us.p99", "us"},
	{"durable.snapshot_ms", "ms"},
	{"durable.snapshots", "count"},
	{"durable.recovery_ms", "ms"},
	{"durable.replayed_records", "count"},
	{"durable.torn_bytes", "B"},
	{"host.fsync_us.p50", "us"},
	{"host.fsync_us.p99", "us"},
	{"client.read_acquire_p50_ms", "ms"},
	{"client.read_acquire_p99_ms", "ms"},
	{"client.write_acquire_p50_ms", "ms"},
	{"client.write_acquire_p99_ms", "ms"},
	{"client.release_p50_ms", "ms"},
	{"client.release_p99_ms", "ms"},
	{"client.read_acquires", "count"},
	{"client.write_acquires", "count"},
	{"client.releases", "count"},
	{"trace.overhead_pct", "%"},
}

// workloads maps each workload name to the function that runs it, in
// BENCHMARK.json order.
var workloads = []struct {
	name string
	run  func(*env, *outcome) error
}{
	{"sim-lowerbound", runSimLowerbound},
	{"sim-faultsweep", runSimFaultsweep},
	{"lockd-memory-readmostly", func(e *env, o *outcome) error { return runLockd(e, o, memoryReadMostly) }},
	{"lockd-wal-writeheavy", func(e *env, o *outcome) error { return runLockd(e, o, walWriteHeavy) }},
}

// env is what a workload's run function gets: its inputs come from seed
// alone.
type env struct {
	workload string
	seed     int64
	window   time.Duration
	traced   bool
	root     string // checkout root, for the golden tables
	dir      string // this run's scratch directory, removed at the end
	workers  int
	tr       *tracer // nil in untraced runs
}

// outcome collects a run's counts, metric values and check failures.
type outcome struct {
	attempted, failed int64
	problems          []string
	values            map[string]float64
	missing           map[string]string
	samples           map[string]int // sample count behind each percentile
	details           map[string]any
}

func newOutcome() *outcome {
	return &outcome{values: map[string]float64{}, missing: map[string]string{}, samples: map[string]int{},
		details: map[string]any{}}
}

func (o *outcome) set(name string, v float64) { o.values[name] = v }

// setPct records the p-th percentile of xs times scale, or marks the
// metric missing when the percentile guard fails.
func (o *outcome) setPct(name string, xs []float64, p, scale float64) {
	v, ok := percentile(xs, p)
	o.samples[name] = len(xs)
	if !ok {
		o.missing[name] = fmt.Sprintf("%d samples: fewer than %d beyond p%g", len(xs), minBeyond, p)
		return
	}
	o.set(name, v*scale)
}

// problem records a failed correctness check.
func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

type metricOut struct {
	Value *float64 `json:"value"`
	Unit  string   `json:"unit"`
}

type finalLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	traceFlag := flag.Int("trace", 0, "1 for the traced per-layer run")
	root := flag.String("root", ".", "root of the checkout")
	out := flag.String("out", ".bench_build", "directory for run data, spans and reports")
	flag.Parse()

	var drive func(*env, *outcome) error
	for _, w := range workloads {
		if w.name == *workload {
			drive = w.run
		}
	}
	if drive == nil || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	if _, err := os.Stat(filepath.Join(*root, goldenE2)); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v (run from the root of a full checkout)\n", err)
		return 1
	}

	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	parwork.SetDefault(nproc)
	runDir := filepath.Join(*out, "run", fmt.Sprintf("%s-%d", *workload, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(runDir)

	e := &env{workload: *workload, seed: *seed, window: time.Duration(*seconds) * time.Second,
		traced: *traceFlag == 1, root: *root, dir: runDir, workers: nproc}
	if e.traced {
		e.tr = newTracer()
	}
	o := newOutcome()
	steal0, total0 := hostCPU()
	if err := drive(e, o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	steal1, total1 := hostCPU()
	prov := probeHost(e, o)
	if total1 > total0 {
		prov.StealPct = 100 * float64(steal1-steal0) / float64(total1-total0)
	}

	report := map[string]any{"workload": e.workload, "seed": e.seed, "trace": e.traced,
		"provenance": prov, "metrics": o.values, "missing": o.missing, "samples": o.samples, "details": o.details,
		"problems": firstN(o.problems, 20)}
	defs := endToEnd
	if e.traced {
		defs = perLayer
		kept, dropped := e.tr.stored()
		spansPath := filepath.Join(*out, "trace", e.workload+".spans.jsonl")
		if err := os.MkdirAll(filepath.Dir(spansPath), 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		if err := e.tr.write(spansPath); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		report["spans"] = map[string]any{"file": spansPath, "kept": kept, "dropped": dropped,
			"by_name": e.tr.summary()}
	}
	final := finalLine{Correct: len(o.problems) == 0 && o.failed == 0, Attempted: o.attempted,
		Failed: o.failed, Metrics: map[string]metricOut{}}
	var offPath []string
	for _, d := range defs {
		m := metricOut{Unit: d.unit}
		if v, ok := o.values[d.name]; ok {
			m.Value = &v
		} else if _, ok := o.missing[d.name]; !ok {
			zero := 0.0
			m.Value = &zero
			offPath = append(offPath, d.name)
		}
		final.Metrics[d.name] = m
	}
	report["not_on_path"] = offPath
	if final.Attempted < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: the run attempted no operation")
		return 1
	}

	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	for _, line := range []any{report, final} {
		b, err := json.Marshal(line)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintf(w, "%s\n", b)
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

func firstN(xs []string, n int) []string { return xs[:min(len(xs), n)] }

// provenance says where and how a result was measured.
type provenance struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	Seed       int64   `json:"seed"`
	Workers    int     `json:"workers"`
	FsyncP50US float64 `json:"host_fsync_us_p50"`
	FsyncP99US float64 `json:"host_fsync_us_p99"`
	FsyncN     int     `json:"host_fsync_samples"`
	StealPct   float64 `json:"host_steal_pct"`
	Note       string  `json:"note"`
}

// probeHost records the provenance of the run, including the fsync probe
// on the filesystem that holds the run's data directories. Traced runs
// also report the probe as the host.* layer metrics.
func probeHost(e *env, o *outcome) provenance {
	fs := fsyncProbe(e.dir)
	p := provenance{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), CPUModel: cpuModel(), Seed: e.seed, Workers: e.workers,
		FsyncN: len(fs),
		Note: "latencies are measured in the container that ran the benchmark (a shared host, " +
			"loopback TCP, the container filesystem's fsync), not on a dedicated machine or storage device"}
	p.FsyncP50US, _ = percentile(fs, 50)
	p.FsyncP99US, _ = percentile(fs, 99)
	if e.traced {
		o.setPct("host.fsync_us.p50", fs, 50, 1)
		o.setPct("host.fsync_us.p99", fs, 99, 1)
	}
	return p
}

// fsyncProbe appends small records to a file in dir and times each fsync,
// in microseconds: up to 1000 of them or 1.5 seconds, whichever is first.
func fsyncProbe(dir string) []float64 {
	f, err := os.Create(filepath.Join(dir, "fsync.probe"))
	if err != nil {
		return nil
	}
	defer f.Close()
	rec := make([]byte, 256)
	var us []float64
	deadline := time.Now().Add(1500 * time.Millisecond)
	for len(us) < 1000 && time.Now().Before(deadline) {
		if _, err := f.Write(rec); err != nil {
			break
		}
		t0 := time.Now()
		if err := f.Sync(); err != nil {
			break
		}
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return us
}

// hostCPU reads the host's steal and total CPU ticks from /proc/stat, so
// a report shows how much CPU other tenants took from the run.
func hostCPU() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
