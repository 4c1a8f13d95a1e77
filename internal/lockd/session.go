package lockd

import (
	"crypto/rand"
	"encoding/hex"
	"sync"
	"time"

	"repro/internal/lockd/durable"
	"repro/internal/lockd/wire"
)

// responseCacheCap bounds the per-session at-most-once response cache. A
// retransmit older than the cache window re-executes its operation; with
// monotonically increasing client seqs and clients that give up on a
// request long before 512 newer ones complete, that window is never hit in
// practice.
const responseCacheCap = 512

// holdKey identifies one hold of a session: a (lock name, mode) pair. A
// session holds a given key in a given mode at most once.
type holdKey struct {
	key  string
	mode string
}

// session is the server-side state of one client connection's lease. A
// session is created by hello, renewed by every subsequent request, and
// torn down either by a clean bye or by the lease sweeper once its TTL
// passes without renewal — at which point all its holds are revoked and
// all its queued waiters cancelled, so a crashed client can never wedge a
// lock (crash-stop ↔ lease expiry).
//
// Lock ordering: shard.mu may be held when taking session.mu, never the
// reverse. The sweeper therefore snapshots holds and waiters under
// session.mu first, releases it, and then revokes through the shards.
type session struct {
	id   string
	slot int // stable small index used by the shard fairness monitors

	mu      sync.Mutex
	ttl     time.Duration        // immutable after create/restore
	expiry  time.Time            //rwguard:mu
	expired bool                 //rwguard:mu
	holds   map[holdKey]struct{} //rwguard:mu
	waiters map[*waiter]struct{} //rwguard:mu

	// At-most-once bookkeeping: responses caches completed requests by
	// seq so a retransmit is answered without re-executing; inflight
	// tracks seqs still being processed so their retransmits are dropped.
	// maxSeq is the highest seq ever begun — a resuming client continues
	// its numbering above it, so a fresh request can never collide with a
	// cached or in-flight seq from before the reconnect.
	inflight  map[uint64]struct{}       //rwguard:mu
	responses map[uint64]*wire.Response //rwguard:mu
	order     []uint64                  //rwguard:mu FIFO of cached seqs, for eviction
	maxSeq    uint64                    //rwguard:mu

	// durableExpiry is the lease deadline last written to the WAL; renew
	// records are coalesced to one per TTL/4 of advance, so a replayed
	// deadline is stale by at most a quarter lease.
	durableExpiry time.Time //rwguard:mu
}

// renew extends the lease by its TTL; it fails once the session expired.
// The second result asks the caller to append a durable renew record: it
// fires when the deadline advanced at least TTL/4 past the last one
// logged, bounding WAL traffic to four renew records per lease period no
// matter how chatty the client is.
func (s *session) renew(now time.Time) (ok, logRenew bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.expired {
		return false, false
	}
	s.expiry = now.Add(s.ttl)
	if s.expiry.Sub(s.durableExpiry) >= s.ttl/4 {
		s.durableExpiry = s.expiry
		return true, true
	}
	return true, false
}

// expiryUnixNano returns the current lease deadline for durable records.
func (s *session) expiryUnixNano() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.expiry.UnixNano()
}

// addHold records a hold; it fails if the session already expired (the
// caller must then not grant) or already holds key in that mode.
func (s *session) addHold(h holdKey) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.expired {
		return false
	}
	if _, dup := s.holds[h]; dup {
		return false
	}
	s.holds[h] = struct{}{}
	return true
}

func (s *session) removeHold(h holdKey) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.holds, h)
}

func (s *session) holdsKey(h holdKey) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.holds[h]
	return ok
}

// addWaiter registers a queued waiter; it fails once the session expired.
func (s *session) addWaiter(w *waiter) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.expired {
		return false
	}
	s.waiters[w] = struct{}{}
	return true
}

func (s *session) removeWaiter(w *waiter) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.waiters, w)
}

// begin starts processing seq. It returns the cached response when seq
// already completed (resend it), drop when seq is still in flight (the
// original will answer), and process when the request is new.
func (s *session) begin(seq uint64) (cached *wire.Response, drop, process bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if seq > s.maxSeq {
		s.maxSeq = seq
	}
	if resp, ok := s.responses[seq]; ok {
		return resp, false, false
	}
	if _, ok := s.inflight[seq]; ok {
		return nil, true, false
	}
	s.inflight[seq] = struct{}{}
	return nil, false, true
}

// seqHighWater returns the highest seq the session ever began (resume
// handshake).
func (s *session) seqHighWater() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.maxSeq
}

// finish completes seq with resp, entering it into the bounded response
// cache.
func (s *session) finish(seq uint64, resp *wire.Response) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.inflight, seq)
	s.responses[seq] = resp
	s.order = append(s.order, seq)
	for len(s.order) > responseCacheCap {
		delete(s.responses, s.order[0])
		s.order = s.order[1:]
	}
}

// snapshotForRevoke marks the session expired and returns its holds and
// waiters at that instant. After it returns, addHold/addWaiter/renew all
// fail, so no new state can attach to the session while the sweeper
// revokes the snapshot through the shards.
func (s *session) snapshotForRevoke() (holds []holdKey, waiters []*waiter) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expired = true
	for h := range s.holds {
		holds = append(holds, h)
	}
	for w := range s.waiters {
		waiters = append(waiters, w)
	}
	return holds, waiters
}

func (s *session) isExpired() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.expired
}

// sessionTable holds every live session and drives lease expiry.
type sessionTable struct {
	mu       sync.Mutex
	byID     map[string]*session //rwguard:mu
	nextSlot int                 //rwguard:mu
}

func newSessionTable() *sessionTable {
	return &sessionTable{byID: map[string]*session{}}
}

// create mints a session with the given (already clamped) TTL.
func (t *sessionTable) create(ttl time.Duration, now time.Time) *session {
	id := make([]byte, 8)
	if _, err := rand.Read(id); err != nil {
		panic("lockd: session id entropy unavailable: " + err.Error())
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &session{
		id:        hex.EncodeToString(id),
		slot:      t.nextSlot,
		ttl:       ttl,
		expiry:    now.Add(ttl),
		holds:     map[holdKey]struct{}{},
		waiters:   map[*waiter]struct{}{},
		inflight:  map[uint64]struct{}{},
		responses: map[uint64]*wire.Response{},
	}
	s.durableExpiry = s.expiry
	t.nextSlot++
	t.byID[s.id] = s
	return s
}

// lookup returns the live session with the given id, if any (hello
// resume).
func (t *sessionTable) lookup(id string) *session {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.byID[id]
}

// restore rebuilds the table from recovered durable state. Holds and
// queued entries were already fenced by the epoch bump; what survives a
// restart is the lease itself (with its persisted absolute expiry, so the
// sweeper re-arms exactly where it left off), the fairness slot, and the
// at-most-once response cache.
func (t *sessionTable) restore(st *durable.State) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if st.NextSlot > t.nextSlot {
		t.nextSlot = st.NextSlot
	}
	for _, id := range st.SessionIDs() {
		ss := st.Sessions[id]
		s := &session{
			id:        id,
			slot:      ss.Slot,
			ttl:       time.Duration(ss.TTLMS) * time.Millisecond,
			expiry:    time.Unix(0, ss.Expiry),
			holds:     map[holdKey]struct{}{},
			waiters:   map[*waiter]struct{}{},
			inflight:  map[uint64]struct{}{},
			responses: map[uint64]*wire.Response{},
			maxSeq:    ss.MaxSeq,
		}
		s.durableExpiry = s.expiry
		for _, cr := range ss.Resps {
			resp, err := wire.DecodeResponse(cr.Resp)
			if err != nil {
				continue // an unreadable cached response degrades to re-execution
			}
			s.responses[cr.Seq] = resp
			s.order = append(s.order, cr.Seq)
		}
		t.byID[id] = s
	}
}

// remove deletes a session (clean bye).
func (t *sessionTable) remove(s *session) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.byID, s.id)
}

func (t *sessionTable) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.byID)
}

// expire removes and returns every session whose lease deadline passed.
// The returned sessions are already marked expired; the caller revokes
// their holds and waiters through the shards.
func (t *sessionTable) expire(now time.Time) []*session {
	t.mu.Lock()
	var out []*session
	for _, s := range t.byID {
		s.mu.Lock()
		dead := !s.expired && now.After(s.expiry)
		if dead {
			// Mark immediately so a late renewal cannot slip in between
			// the scan and the revocation pass.
			s.expired = true
		}
		s.mu.Unlock()
		if dead {
			out = append(out, s)
			delete(t.byID, s.id)
		}
	}
	t.mu.Unlock()
	return out
}
