package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/lockd"
	"repro/internal/lockd/wire"
)

// lockdSpec is one rwlockd traffic mix. Clients run a closed loop: each
// has one passage outstanding (acquire, then release) and starts the next
// when the release returns, because lock callers wait for their grant.
type lockdSpec struct {
	keys      int
	writeFrac float64
	durable   bool
}

var (
	// memoryReadMostly: no data directory, 64 uniform keys, 5% writes.
	memoryReadMostly = lockdSpec{keys: 64, writeFrac: 0.05}
	// walWriteHeavy: WAL with fsync on every append and the default
	// snapshot rotation, 4 hot keys, 30% writes.
	walWriteHeavy = lockdSpec{keys: 4, writeFrac: 0.30, durable: true}
)

const (
	acquireWait = 500 * time.Millisecond
	// warmupPassages is the fixed-length seeded run whose crashed data
	// directory every durable set-up reopens.
	warmupPassages = 2000
	setupReps      = 21
	// keepPassages bounds the passages a traced run keeps for replaying
	// their messages through the wire codec.
	keepPassages = 20_000
)

func (s lockdSpec) config(dir string) lockd.Config {
	cfg := lockd.Config{Addr: "127.0.0.1:0"}
	if s.durable {
		cfg.DataDir = dir
		cfg.Fsync = "always"
	}
	return cfg
}

func keyNames(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%02d", i)
	}
	return keys
}

// clientRNGs gives every client its own input stream, derived from seed.
func clientRNGs(seed int64, clients int) []*rand.Rand {
	rngs := make([]*rand.Rand, clients)
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(seed*7919 + int64(i)))
	}
	return rngs
}

// service is an in-process rwlockd server and its connected clients.
type service struct {
	srv     *lockd.Server
	served  chan error
	clients []*lockd.Client
}

// startService opens the server (replaying its WAL when durable), waits
// until it serves (after the durable epoch bump) and dials the clients.
func startService(cfg lockd.Config, clients int) (*service, error) {
	srv, err := lockd.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("start lockd: %w", err)
	}
	s := &service{srv: srv, served: make(chan error, 1)}
	go func() { s.served <- srv.Serve() }()
	select {
	case <-srv.Ready():
	case err := <-s.served:
		return nil, fmt.Errorf("lockd stopped before serving: %v", err)
	}
	for i := 0; i < clients; i++ {
		c, err := lockd.Dial(context.Background(), srv.Addr().String(), lockd.Options{})
		if err != nil {
			s.stop(false)
			return nil, fmt.Errorf("dial lockd: %w", err)
		}
		s.clients = append(s.clients, c)
	}
	return s, nil
}

// stop shuts the service down and waits for Serve to return. crash stops
// it as kill -9 would, leaving the WAL as it was.
func (s *service) stop(crash bool) {
	if crash {
		s.srv.Crash()
		for _, c := range s.clients {
			c.Abandon()
		}
	} else {
		for _, c := range s.clients {
			c.Close()
		}
		s.srv.Close() //nolint:errcheck // the run is over; its checks already ran
	}
	<-s.served
}

// passage is a completed passage, kept to replay its messages.
type passage struct {
	key, mode string
	token     uint64
}

// loopLog is what a closed loop observed: latencies in microseconds, the
// operation counts and the write tokens for the ledger.
type loopLog struct {
	readAcq, writeAcq, release []float64
	passageUS                  float64 // summed passage latency
	passages                   int64
	attempted, failed          int64
	problems                   []string
	ledger                     *ledger
	kept                       []passage
}

// fail counts a failed operation, keeping the first few messages.
func (l *loopLog) fail(format string, args ...any) {
	l.failed++
	if len(l.problems) < 20 {
		l.problems = append(l.problems, fmt.Sprintf(format, args...))
	}
}

func (l *loopLog) merge(o *loopLog) {
	l.readAcq = append(l.readAcq, o.readAcq...)
	l.writeAcq = append(l.writeAcq, o.writeAcq...)
	l.release = append(l.release, o.release...)
	l.passageUS += o.passageUS
	l.passages += o.passages
	l.attempted += o.attempted
	l.failed += o.failed
	l.problems = append(l.problems, o.problems...)
	l.ledger.merge(o.ledger)
	l.kept = append(l.kept, o.kept...)
}

// loopOpts says how long a closed loop runs and what it records.
type loopOpts struct {
	d time.Duration // run every client for d,
	n int           // or for n passages in all when n > 0
	// tr, when set, makes each passage a trace whose children span the
	// two client calls.
	tr *tracer
	// latencies keeps every operation's latency; keep is how many
	// passages to keep for the wire replay.
	latencies bool
	keep      int
	// done, when set, counts completed passages as they happen.
	done *atomic.Int64
}

// closedLoop runs every client until the loop is over and merges what
// they observed.
func closedLoop(svc *service, s lockdSpec, keys []string, rngs []*rand.Rand, opt loopOpts) *loopLog {
	logs := make([]*loopLog, len(svc.clients))
	var wg sync.WaitGroup
	deadline := time.Now().Add(opt.d)
	perClient, keep := opt.n/len(svc.clients), opt.keep/len(svc.clients)
	for i, c := range svc.clients {
		i, c := i, c
		wg.Add(1)
		go func() {
			defer wg.Done()
			l := &loopLog{ledger: newLedger()}
			logs[i] = l
			rng := rngs[i]
			ctx := context.Background()
			tr := opt.tr
			for k := 0; ; k++ {
				if opt.n > 0 && k >= perClient || opt.n <= 0 && !time.Now().Before(deadline) {
					return
				}
				key := keys[rng.Intn(len(keys))]
				mode := wire.ModeRead
				if rng.Float64() < s.writeFrac {
					mode = wire.ModeWrite
				}
				var root, sp openSpan
				if tr != nil {
					root = tr.begin("passage", nil)
					sp = tr.begin("lockd.Client.Acquire", &root)
				}
				t0 := time.Now()
				h, err := c.Acquire(ctx, key, mode, acquireWait)
				t1 := time.Now()
				if tr != nil {
					tr.end(sp)
				}
				l.attempted++
				if err != nil {
					l.fail("acquire %s/%s: %v", key, mode, err)
					if tr != nil {
						tr.end(root)
					}
					continue
				}
				if mode == wire.ModeWrite {
					l.ledger.add(key, h.Passage)
				}
				if tr != nil {
					sp = tr.begin("lockd.Client.Release", &root)
				}
				err = h.Release(ctx)
				t2 := time.Now()
				if tr != nil {
					tr.end(sp)
					tr.end(root)
				}
				l.attempted++
				if err != nil {
					l.fail("release %s/%s: %v", key, mode, err)
					continue
				}
				l.passageUS += float64(t2.Sub(t0).Nanoseconds()) / 1e3
				l.passages++
				if opt.done != nil {
					opt.done.Add(1)
				}
				if opt.latencies {
					acq := float64(t1.Sub(t0).Nanoseconds()) / 1e3
					if mode == wire.ModeWrite {
						l.writeAcq = append(l.writeAcq, acq)
					} else {
						l.readAcq = append(l.readAcq, acq)
					}
					l.release = append(l.release, float64(t2.Sub(t1).Nanoseconds())/1e3)
				}
				if len(l.kept) < keep {
					l.kept = append(l.kept, passage{key: key, mode: mode, token: h.Passage})
				}
			}
		}()
	}
	wg.Wait()
	all := &loopLog{ledger: newLedger()}
	for _, l := range logs {
		all.merge(l)
	}
	return all
}

// warmUp runs the fixed-length seeded warm-up against a fresh data
// directory and crashes the server, leaving the directory a restart
// recovers from.
func warmUp(dir string, s lockdSpec, keys []string, seed int64, clients int) error {
	svc, err := startService(s.config(dir), clients)
	if err != nil {
		return err
	}
	l := closedLoop(svc, s, keys, clientRNGs(^seed, clients), loopOpts{n: warmupPassages})
	svc.stop(true)
	if l.failed > 0 {
		return fmt.Errorf("warm-up: %d operations failed, first: %s", l.failed, l.problems[0])
	}
	return nil
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		b, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func runLockd(e *env, o *outcome, s lockdSpec) error {
	keys := keyNames(s.keys)
	rngs := clientRNGs(e.seed, e.workers)
	warm := filepath.Join(e.dir, "warm")
	if s.durable {
		if err := warmUp(warm, s, keys, e.seed, e.workers); err != nil {
			return err
		}
	}

	// Set-up: open the server (for a durable one, replay a copy of the
	// warm-up's data directory and bump the epoch) and dial the clients.
	reps := setupReps
	if e.traced {
		reps = 1
	}
	var setups []float64
	var svc *service
	var data string
	for i := 0; i < reps; i++ {
		if svc != nil {
			svc.stop(false)
			os.RemoveAll(data)
		}
		data = filepath.Join(e.dir, fmt.Sprintf("data%d", i))
		if s.durable {
			if err := copyDir(warm, data); err != nil {
				return err
			}
		}
		t0 := time.Now()
		var err error
		if svc, err = startService(s.config(data), e.workers); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	o.set("setup_s", median(setups))
	o.details["setup_s_each"] = setups
	var lsn walMarks
	if s.durable {
		lsn = markWAL(data)
	}

	before := svc.srv.Stats()
	if !e.traced {
		var done atomic.Int64
		stopSlicing := sliceWindow(e.window, &done)
		l := closedLoop(svc, s, keys, rngs, loopOpts{d: e.window, done: &done})
		st := stopSlicing()
		after := svc.srv.Stats()
		svc.stop(s.durable)
		accountLoop(o, l, before, after)
		st.report(o)
		o.set("ok_ratio", 1-float64(o.failed)/float64(o.attempted))
		o.details["passages"] = l.passages
		return nil
	}

	// Traced: untraced and traced stretches of equal length, alternating
	// twice, over 80% of the window; the rest goes to the layer probes.
	// The client latencies come from the untraced stretches.
	qs := sampleQueues(svc.srv)
	w := e.window / 5
	plain, traced := &loopLog{ledger: newLedger()}, &loopLog{ledger: newLedger()}
	for round := 0; round < 2; round++ {
		plain.merge(closedLoop(svc, s, keys, rngs, loopOpts{d: w, latencies: true, keep: keepPassages - len(plain.kept)}))
		traced.merge(closedLoop(svc, s, keys, rngs, loopOpts{d: w, tr: e.tr}))
	}
	queuedMax := qs.Stop()
	after := svc.srv.Stats()
	svc.stop(s.durable)
	all := &loopLog{ledger: newLedger()}
	all.merge(plain)
	all.merge(traced)
	accountLoop(o, all, before, after)

	o.setPct("client.read_acquire_p50_ms", plain.readAcq, 50, 1e-3)
	o.setPct("client.read_acquire_p99_ms", plain.readAcq, 99, 1e-3)
	o.setPct("client.write_acquire_p50_ms", plain.writeAcq, 50, 1e-3)
	o.setPct("client.write_acquire_p99_ms", plain.writeAcq, 99, 1e-3)
	o.setPct("client.release_p50_ms", plain.release, 50, 1e-3)
	o.setPct("client.release_p99_ms", plain.release, 99, 1e-3)
	o.set("client.read_acquires", float64(len(plain.readAcq)))
	o.set("client.write_acquires", float64(len(plain.writeAcq)))
	o.set("client.releases", float64(len(plain.release)))

	delta := func(f func(wire.ShardStats) uint64) float64 {
		return float64(sumShards(after, f) - sumShards(before, f))
	}
	o.set("lockd.read_grants", delta(func(s wire.ShardStats) uint64 { return s.ReadGrants }))
	o.set("lockd.write_grants", delta(func(s wire.ShardStats) uint64 { return s.WriteGrants }))
	o.set("lockd.timeouts", delta(func(s wire.ShardStats) uint64 { return s.Timeouts }))
	o.set("lockd.sheds", delta(func(s wire.ShardStats) uint64 { return s.Sheds }))
	o.set("lockd.queued_max", float64(queuedMax))
	bypass := 0
	for _, sh := range after.Shards {
		bypass = max(bypass, sh.MaxWriterBypass)
	}
	o.set("lockd.max_writer_bypass", float64(bypass))

	wireUS, err := replayWire(o, plain.kept)
	if err != nil {
		return err
	}
	durableUS := 0.0
	if s.durable {
		if durableUS, err = durableProbes(e, o, data, lsn, all.passages); err != nil {
			return err
		}
	}
	passUS := plain.passageUS / float64(max(plain.passages, 1))
	tracedUS := traced.passageUS / float64(max(traced.passages, 1))
	o.set("lockd.self_us_per_passage", passUS-wireUS-durableUS)
	o.set("trace.overhead_pct", (tracedUS-passUS)/passUS*100)
	o.details["passage_us_untraced"] = passUS
	o.details["passage_us_traced"] = tracedUS
	o.details["wire_us_per_passage"] = wireUS
	o.details["durable_us_per_passage"] = durableUS
	return nil
}

// accountLoop adds a loop's operations to the outcome and checks the
// passage ledger over the same stretch.
func accountLoop(o *outcome, l *loopLog, before, after wire.Stats) {
	o.attempted += l.attempted
	o.failed += l.failed
	o.problems = append(o.problems, l.problems...)
	o.problems = append(o.problems, checkLedger(l.ledger, before, after)...)
	o.details["write_grants_observed"] = l.ledger.writes
}

// sliceWindow cuts a measured window into 40 equal slices, recording
// each slice's passages (counted by done), CPU, allocation and heap peak.
// The returned function ends slicing, drops the unfinished slice and
// returns the rest.
func sliceWindow(window time.Duration, done *atomic.Int64) func() *sliceStats {
	var st sliceStats
	stop, finished := make(chan struct{}), make(chan struct{})
	hp := startHeapPeak()
	go func() {
		defer close(finished)
		tick := time.NewTicker(window / 40)
		defer tick.Stop()
		prev, n0 := mark(), done.Load()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				wall, cpu, alloc := prev.since()
				n := done.Load()
				st.add(float64(n-n0), wall, cpu, alloc, hp.Take())
				prev, n0 = mark(), n
			}
		}
	}()
	return func() *sliceStats {
		close(stop)
		<-finished
		hp.Stop()
		return &st
	}
}

// queueSampler polls the server's queue depth and keeps its maximum.
type queueSampler struct {
	stop, done chan struct{}
	max        int
}

func sampleQueues(srv *lockd.Server) *queueSampler {
	q := &queueSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(q.done)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-q.stop:
				return
			case <-tick.C:
				n := 0
				for _, sh := range srv.Stats().Shards {
					n += sh.Queued
				}
				q.max = max(q.max, n)
			}
		}
	}()
	return q
}

// Stop ends sampling and returns the deepest total queue seen.
func (q *queueSampler) Stop() int {
	close(q.stop)
	<-q.done
	return q.max
}
