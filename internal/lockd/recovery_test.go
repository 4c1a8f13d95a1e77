package lockd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/lockd/durable"
	"repro/internal/lockd/wire"
)

// fsyncPolicies are the WAL policies the restart tests run under: "never"
// (kill -9 safety does not depend on fsync) and "always" (every response
// waits for a covering group-commit fsync).
var fsyncPolicies = []string{"never", "always"}

// startDurable builds and serves a durable server on addr with WAL policy
// fsync, waiting for recovery install (the epoch bump) to finish.
func startDurable(t *testing.T, addr, dir, fsync string) *Server {
	t.Helper()
	srv, err := New(Config{
		Addr:          addr,
		DataDir:       dir,
		Fsync:         fsync,
		Shards:        4,
		KeysPerShard:  64,
		DefaultTTL:    400 * time.Millisecond,
		MinTTL:        50 * time.Millisecond,
		SweepInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	go srv.Serve() //nolint:errcheck // exercised paths close cleanly or crash on purpose
	select {
	case <-srv.Ready():
	case <-time.After(5 * time.Second):
		t.Fatal("server never became ready")
	}
	return srv
}

// TestRecoveringStateServed holds recovery install at the gate and checks
// that the server answers (typed) instead of hanging, then serves once
// install completes.
func TestRecoveringStateServed(t *testing.T) {
	srv, err := New(Config{Addr: "127.0.0.1:0", DataDir: t.TempDir(), Fsync: "never"})
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	srv.installGate = gate
	go srv.Serve() //nolint:errcheck // closed at test end
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_, err = Dial(ctx, srv.Addr().String(), Options{})
	if !errors.Is(err, ErrRecovering) {
		t.Fatalf("dial during recovery: got %v, want ErrRecovering", err)
	}

	close(gate)
	select {
	case <-srv.Ready():
	case <-time.After(5 * time.Second):
		t.Fatal("server never became ready after gate opened")
	}
	c, err := Dial(context.Background(), srv.Addr().String(), Options{})
	if err != nil {
		t.Fatalf("dial after recovery: %v", err)
	}
	defer c.Close()
	if c.Epoch() != 1 {
		t.Fatalf("fresh data dir epoch = %d, want 1", c.Epoch())
	}
}

// TestEpochFencingAcrossRestart is the core no-double-grant story: a
// write hold granted before a kill -9 is fenced by the restart — the
// resumed session keeps its lease and seq numbering but not the hold, a
// release quoting the stale token gets ErrEpochFenced, and the
// re-acquired grant's token strictly dominates the old one.
func TestEpochFencingAcrossRestart(t *testing.T) {
	for _, fsync := range fsyncPolicies {
		t.Run(fsync, func(t *testing.T) { epochFencingAcrossRestart(t, fsync) })
	}
}

func epochFencingAcrossRestart(t *testing.T, fsync string) {
	dir := t.TempDir()
	srv := startDurable(t, "127.0.0.1:0", dir, fsync)
	addr := srv.Addr().String()

	c, err := Dial(context.Background(), addr, Options{TTL: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Abandon()
	if c.Epoch() != 1 {
		t.Fatalf("first-boot epoch = %d, want 1", c.Epoch())
	}
	h, err := c.Acquire(context.Background(), "k", ModeWrite, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	oldTok := h.Passage
	if durable.TokenEpoch(oldTok) != 1 {
		t.Fatalf("pre-crash token epoch = %d, want 1", durable.TokenEpoch(oldTok))
	}
	oldSession := c.SessionID()

	srv.Crash()
	srv2 := startDurable(t, addr, dir, fsync)
	defer srv2.Close()
	if srv2.Epoch() != 2 {
		t.Fatalf("post-restart epoch = %d, want 2", srv2.Epoch())
	}

	c2, err := Dial(context.Background(), addr, Options{ResumeSession: oldSession})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if !c2.Resumed() {
		t.Fatal("session did not resume across the restart")
	}
	if c2.SessionID() != oldSession {
		t.Fatalf("resumed session id %s, want %s", c2.SessionID(), oldSession)
	}
	if c2.Epoch() != 2 {
		t.Fatalf("resumed client epoch = %d, want 2", c2.Epoch())
	}

	// The stale holder must be fenced, not silently accepted.
	err = c2.Release(context.Background(), "k", ModeWrite, oldTok)
	if !errors.Is(err, ErrEpochFenced) {
		t.Fatalf("stale-token release: got %v, want ErrEpochFenced", err)
	}

	// The hold is gone server-side, so the same key grants again — with a
	// strictly dominating token.
	h2, err := c2.Acquire(context.Background(), "k", ModeWrite, time.Second)
	if err != nil {
		t.Fatalf("re-acquire after fencing: %v", err)
	}
	if h2.Passage <= oldTok {
		t.Fatalf("post-restart token %#x does not dominate pre-crash token %#x", h2.Passage, oldTok)
	}
	if durable.TokenEpoch(h2.Passage) != 2 {
		t.Fatalf("post-restart token epoch = %d, want 2", durable.TokenEpoch(h2.Passage))
	}
	if err := h2.Release(context.Background()); err != nil {
		t.Fatalf("fresh release: %v", err)
	}

	// Fencing shows up in the ledger counters.
	st := srv2.Stats()
	var fencedW uint64
	for _, sh := range st.Shards {
		fencedW += sh.FencedWrite
	}
	if fencedW != 1 {
		t.Fatalf("fenced-write counter = %d, want 1", fencedW)
	}
	if st.Epoch != 2 {
		t.Fatalf("stats epoch = %d, want 2", st.Epoch)
	}
}

// TestResumeContinuesSeqNumbering: the resumed session's MaxSeq keeps a
// reconnecting client's seqs above everything it used before the crash,
// so the restored at-most-once response cache can never answer a fresh
// request.
func TestResumeContinuesSeqNumbering(t *testing.T) {
	dir := t.TempDir()
	srv := startDurable(t, "127.0.0.1:0", dir, "never")
	addr := srv.Addr().String()

	c, err := Dial(context.Background(), addr, Options{TTL: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Abandon()
	var lastSeq uint64
	for i := 0; i < 5; i++ {
		h, aerr := c.Acquire(context.Background(), fmt.Sprintf("k%d", i), ModeWrite, time.Second)
		if aerr != nil {
			t.Fatal(aerr)
		}
		if rerr := h.Release(context.Background()); rerr != nil {
			t.Fatal(rerr)
		}
	}
	lastSeq = c.seq.Load()
	sid := c.SessionID()

	srv.Crash()
	srv2 := startDurable(t, addr, dir, "never")
	defer srv2.Close()

	c2, err := Dial(context.Background(), addr, Options{ResumeSession: sid})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if !c2.Resumed() {
		t.Fatal("session did not resume")
	}
	if got := c2.seq.Load(); got < lastSeq {
		t.Fatalf("resumed client seq %d below pre-crash high water %d", got, lastSeq)
	}
	// And the resumed session still works end to end.
	h, err := c2.Acquire(context.Background(), "fresh", ModeWrite, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Release(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestAtMostOnceAcrossRestart: a response cached before a kill -9 is
// restored from the WAL, so a retransmit after the restart is answered
// from the cache — the original passage token, and no second grant.
func TestAtMostOnceAcrossRestart(t *testing.T) {
	for _, fsync := range fsyncPolicies {
		t.Run(fsync, func(t *testing.T) { atMostOnceAcrossRestart(t, fsync) })
	}
}

func atMostOnceAcrossRestart(t *testing.T, fsync string) {
	dir := t.TempDir()
	srv := startDurable(t, "127.0.0.1:0", dir, fsync)
	addr := srv.Addr().String()

	conn := rawDial(t, srv)
	hello := conn.roundTrip(t, &wire.Request{Seq: 1, Op: wire.OpHello, TTLMS: 30_000})
	if !hello.OK {
		t.Fatalf("hello: %+v", hello)
	}
	acquire := &wire.Request{Seq: 2, Op: wire.OpAcquire, Key: "k", Mode: wire.ModeWrite, WaitMS: 1000}
	first := conn.roundTrip(t, acquire)
	if !first.OK || first.Passage == 0 {
		t.Fatalf("acquire: %+v", first)
	}

	srv.Crash()
	srv2 := startDurable(t, addr, dir, fsync)
	defer srv2.Close()
	grants := sumWriteGrants(srv2.Stats())
	// The replayed response record holds the bytes the socket carried
	// (minus the newline), which are json.Marshal's.
	want, err := json.Marshal(first)
	if err != nil {
		t.Fatal(err)
	}
	if rs := srv2.store.State().Sessions[hello.Session].Resps; len(rs) != 1 || !bytes.Equal(rs[0].Resp, want) {
		t.Fatalf("replayed response cache %+v, want one entry %s", rs, want)
	}

	conn2 := rawDial(t, srv2)
	resumed := conn2.roundTrip(t, &wire.Request{Seq: 1, Op: wire.OpHello, Session: hello.Session})
	if !resumed.OK || !resumed.Resumed || resumed.MaxSeq < acquire.Seq {
		t.Fatalf("resume hello: %+v, want a resumed session with max_seq >= %d", resumed, acquire.Seq)
	}
	retrans := conn2.roundTrip(t, acquire)
	if !retrans.OK || retrans.Passage != first.Passage {
		t.Fatalf("retransmit after restart got %+v, want the original grant %+v", retrans, first)
	}
	if got := sumWriteGrants(srv2.Stats()); got != grants {
		t.Fatalf("write grants went %d -> %d on the retransmit, want no new grant", grants, got)
	}
}

// TestLedgerAcrossServerCrashes is the chaos gate: concurrent write
// traffic through three kill -9 / restart cycles on one data directory.
// Required invariants: every observed fencing token is globally unique
// per key (zero duplicated passages), the reconciled ledger loses nothing
// (every server-side write grant is observed or revoked/fenced), and the
// epoch increases by exactly one per restart.
func TestLedgerAcrossServerCrashes(t *testing.T) {
	for _, fsync := range fsyncPolicies {
		t.Run(fsync, func(t *testing.T) { ledgerAcrossServerCrashes(t, fsync) })
	}
}

func ledgerAcrossServerCrashes(t *testing.T, fsync string) {
	dir := t.TempDir()
	srv := startDurable(t, "127.0.0.1:0", dir, fsync)
	addr := srv.Addr().String()

	var (
		mu       sync.Mutex
		tokens   = map[string]map[uint64]int{}
		dups     int
		observed uint64
	)
	record := func(key string, tok uint64) {
		mu.Lock()
		defer mu.Unlock()
		if tokens[key] == nil {
			tokens[key] = map[uint64]int{}
		}
		tokens[key][tok]++
		if tokens[key][tok] > 1 {
			dups++
		}
		observed++
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	const workers = 8
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			key := fmt.Sprintf("k%d", id%4)
			var c *Client
			defer func() {
				if c != nil {
					c.Abandon()
				}
			}()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if c == nil {
					ctx, cancel := context.WithTimeout(context.Background(), time.Second)
					nc, err := Dial(ctx, addr, Options{TTL: 300 * time.Millisecond})
					cancel()
					if err != nil {
						time.Sleep(10 * time.Millisecond)
						continue
					}
					c = nc
				}
				ctx, cancel := context.WithTimeout(context.Background(), time.Second)
				h, err := c.Acquire(ctx, key, ModeWrite, 200*time.Millisecond)
				if err == nil {
					record(key, h.Passage)
					h.Release(ctx) //nolint:errcheck // lost acks are revoked by lease expiry
					cancel()
					continue
				}
				cancel()
				if errors.Is(err, ErrDisconnected) || errors.Is(err, ErrSessionExpired) || errors.Is(err, ErrRecovering) {
					c.Abandon()
					c = nil
					time.Sleep(10 * time.Millisecond)
				}
			}
		}(i)
	}

	const crashes = 3
	for i := 0; i < crashes; i++ {
		time.Sleep(250 * time.Millisecond)
		srv.Crash()
		srv = startDurable(t, addr, dir, fsync)
		want := uint64(2 + i)
		if got := srv.Epoch(); got != want {
			t.Errorf("epoch after crash %d = %d, want %d", i+1, got, want)
		}
	}
	time.Sleep(250 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Let in-flight lease revocations settle before reconciling.
	time.Sleep(600 * time.Millisecond)
	st := srv.Stats()
	srv.Close()

	var grants, revokedW, fencedW uint64
	for _, sh := range st.Shards {
		grants += sh.WriteGrants
		revokedW += sh.RevokedWrite
		fencedW += sh.FencedWrite
	}
	mu.Lock()
	defer mu.Unlock()
	if dups != 0 {
		t.Fatalf("%d duplicated write passages across %d crashes", dups, crashes)
	}
	var unique uint64
	for _, m := range tokens {
		unique += uint64(len(m))
	}
	lost := int64(grants) - int64(unique) - int64(revokedW)
	if lost > 0 {
		t.Fatalf("ledger lost %d write passages (grants=%d observed-unique=%d revoked-write=%d fenced-write=%d)",
			lost, grants, unique, revokedW, fencedW)
	}
	if observed == 0 {
		t.Fatal("no passages completed under chaos")
	}
	if st.Epoch != uint64(1+crashes) {
		t.Fatalf("final epoch = %d, want %d", st.Epoch, 1+crashes)
	}
	t.Logf("chaos gate: grants=%d unique-observed=%d revoked-write=%d fenced-write=%d epoch=%d",
		grants, unique, revokedW, fencedW, st.Epoch)
}
