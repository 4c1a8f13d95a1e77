// Package wire defines the rwlockd client/server protocol: newline-
// delimited JSON messages over a byte stream, one Request or Response per
// line. The framing is deliberately trivial — every message fits in one
// Write call, which is what lets the chaos transport (internal/lockd)
// drop, delay, duplicate, or reorder whole messages without having to
// understand a binary format.
//
// Reliability model: the transport between client and server is assumed
// lossy (the chaos layer makes it so on purpose). Every request carries a
// client-chosen sequence number; the server keeps, per session, a bounded
// cache of recent responses and answers a retransmitted seq from the cache
// instead of re-executing the operation. Acquire/release are therefore
// at-most-once: a retried acquire whose original response was lost returns
// the original grant (same passage token), never a second grant.
//
// Codec: Append and the Decode functions are a hand-written codec for the
// two flat message types, with no encoding/json reflection on the request
// path. Append emits exactly the bytes json.Marshal would: same field
// order, omitempty, and string escaping (<, > and & as \u003c-style
// escapes, U+2028/U+2029 escaped, invalid UTF-8 as \ufffd). A line the
// decoders accept, json.Unmarshal accepts to an equal value, with one
// deliberate exception: keys match field names exactly as written, while
// encoding/json also matches them case-insensitively. As in encoding/json,
// a key that names no field has its value validated and skipped. Op, mode
// and code strings are interned to the package constants. Only the nested
// Stats object, which only OpStats responses carry, still goes through
// encoding/json.
package wire

import (
	"bufio"
	"errors"
	"fmt"
	"io"
)

// Ops. The first request on a connection must be OpHello, which creates
// the connection's session and lease; every subsequent request implicitly
// renews the lease.
const (
	OpHello     = "hello"
	OpHeartbeat = "heartbeat"
	OpAcquire   = "acquire"
	OpRelease   = "release"
	OpStats     = "stats"
	OpBye       = "bye"
)

// Lock modes.
const (
	ModeRead  = "r"
	ModeWrite = "w"
)

// Error codes carried in Response.Code. internal/lockd maps each to a
// typed sentinel error on the client side.
const (
	CodeTimeout    = "timeout"     // deadline passed (or tryacquire found the lock busy)
	CodeShed       = "shed"        // bounded wait queue full, load shed
	CodeRevoked    = "revoked"     // session lease expired while waiting
	CodeDraining   = "draining"    // server is draining, no new acquires
	CodeExpired    = "expired"     // session lease already expired
	CodeBadRequest = "bad-request" // malformed or semantically invalid request
	// CodeRecovering: the server is replaying its WAL after a restart and
	// not yet serving; retry after a reconnect backoff.
	CodeRecovering = "recovering"
	// CodeEpochFenced: the request carried a fencing token minted under
	// an earlier server epoch. The hold it refers to did not survive the
	// restart — the client must surrender it and reacquire.
	CodeEpochFenced = "epoch-fenced"
)

// Request is one client->server message.
type Request struct {
	// Seq is the client-chosen sequence number, strictly increasing per
	// connection. Retransmits of the same logical request reuse the seq so
	// the server can deduplicate.
	Seq uint64 `json:"seq"`
	Op  string `json:"op"`
	// Key names the lock for acquire/release.
	Key string `json:"key,omitempty"`
	// Mode is ModeRead or ModeWrite for acquire/release.
	Mode string `json:"mode,omitempty"`
	// WaitMS bounds how long an acquire may block server-side before
	// failing with CodeTimeout. Zero means tryacquire: fail immediately
	// when the lock is not grantable.
	WaitMS int64 `json:"wait_ms,omitempty"`
	// TTLMS is the requested session lease TTL (hello only); the server
	// clamps it to its configured bounds and returns the granted value.
	TTLMS int64 `json:"ttl_ms,omitempty"`
	// Session, on hello, asks to resume an existing session after a
	// reconnect (its lease, holds, and response cache survive a server
	// restart via the WAL). If the session is unknown or expired the
	// server mints a fresh one; Response.Resumed says which happened.
	Session string `json:"session,omitempty"`
	// Passage, on release, is the hold's fencing token. A token minted
	// under an earlier server epoch is answered with CodeEpochFenced:
	// the hold was fenced out during restart recovery and the client
	// must surrender it. Zero skips the check (legacy clients).
	Passage uint64 `json:"passage,omitempty"`
}

// Response is one server->client message, matched to its request by Seq.
type Response struct {
	Seq uint64 `json:"seq"`
	OK  bool   `json:"ok"`
	// Code classifies a failure (OK == false); Err is the human-readable
	// detail.
	Code string `json:"code,omitempty"`
	Err  string `json:"err,omitempty"`
	// Session and TTLMS answer a hello. Resumed reports that the hello
	// re-attached to the requested existing session; MaxSeq is then the
	// highest request seq that session has ever begun — the client must
	// continue its numbering above it so a stale cached response can
	// never answer a fresh request.
	Session string `json:"session,omitempty"`
	TTLMS   int64  `json:"ttl_ms,omitempty"`
	Resumed bool   `json:"resumed,omitempty"`
	MaxSeq  uint64 `json:"max_seq,omitempty"`
	// Epoch is the server epoch (hello and stats responses). It bumps on
	// every restart; fencing tokens fold it into their high bits.
	Epoch uint64 `json:"server_epoch,omitempty"`
	// Passage is the fencing token of a granted acquire: for write grants
	// it is unique and strictly increasing per key, so duplicated or
	// replayed grants are detectable; for read grants it is the key's
	// current write-passage count.
	Passage uint64 `json:"passage,omitempty"`
	// Stats answers an OpStats request.
	Stats *Stats `json:"stats,omitempty"`
}

// Stats is the server-state snapshot returned by OpStats.
type Stats struct {
	Draining bool `json:"draining"`
	Sessions int  `json:"sessions"`
	// Epoch is the server epoch (bumped on every restart of a durable
	// server; always 1 for an in-memory server).
	Epoch  uint64       `json:"epoch"`
	Shards []ShardStats `json:"shards"`
}

// ShardStats aggregates one shard's counters and fairness readings.
type ShardStats struct {
	Locks  int `json:"locks"`  // named locks ever touched
	Held   int `json:"held"`   // holds currently outstanding
	Queued int `json:"queued"` // waiters currently queued

	ReadGrants  uint64 `json:"read_grants"`
	WriteGrants uint64 `json:"write_grants"`
	Releases    uint64 `json:"releases"`
	// Revoked counts holds torn down by lease expiry or restart fencing;
	// RevokedWrite is the write-mode subset (the passage-ledger term in
	// rwload). Fenced/FencedWrite are the restart-fencing subset of
	// those: holds cleared because an epoch bump invalidated them.
	Revoked      uint64 `json:"revoked"`
	RevokedWrite uint64 `json:"revoked_write"`
	Fenced       uint64 `json:"fenced"`
	FencedWrite  uint64 `json:"fenced_write"`
	Sheds        uint64 `json:"sheds"`
	Timeouts     uint64 `json:"timeouts"`

	// Bypass readings from the shard's fairness monitors: the worst
	// single-wait overtake count any reader/writer suffered on any lock in
	// this shard.
	MaxReaderBypass int `json:"max_reader_bypass"`
	MaxWriterBypass int `json:"max_writer_bypass"`
}

// MaxLine bounds one encoded message; a line longer than this is a
// protocol violation and kills the connection.
const MaxLine = 1 << 20

// Append encodes msg, which must be a *Request or a *Response, and
// appends it plus the newline terminator to buf, returning the extended
// buffer. The bytes are exactly what json.Marshal produces for msg.
// Callers hand the result to a single Write so every message is one write
// call (the chaos layer depends on this framing). On error buf is
// returned with its original length.
func Append(buf []byte, msg any) ([]byte, error) {
	n := len(buf)
	switch m := msg.(type) {
	case *Request:
		if m == nil {
			return buf, errNilMessage
		}
		buf = m.appendJSON(buf)
	case *Response:
		if m == nil {
			return buf, errNilMessage
		}
		var err error
		if buf, err = m.appendJSON(buf); err != nil {
			return buf[:n], err
		}
	default:
		return buf, fmt.Errorf("wire: cannot encode %T", msg)
	}
	if len(buf)-n+1 > MaxLine {
		return buf[:n], fmt.Errorf("wire: message exceeds %d bytes", MaxLine)
	}
	return append(buf, '\n'), nil
}

var errNilMessage = errors.New("wire: cannot encode a nil message")

// NewScanner returns a line scanner over r sized for protocol messages.
func NewScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 4096), MaxLine)
	return sc
}

// DecodeError reports a message that could not be parsed: truncated,
// bit-flipped, or not JSON at all. Both protocol ends return it typed —
// a malformed message is a protocol verdict, never a panic or a silent
// zero-value misparse.
type DecodeError struct {
	// What is "request" or "response".
	What string
	Err  error
}

func (e *DecodeError) Error() string {
	return fmt.Sprintf("wire: malformed %s: %v", e.What, e.Err)
}

func (e *DecodeError) Unwrap() error { return e.Err }

// DecodeRequest parses one request line. A request without an op is
// rejected: it cannot be dispatched, and treating it as a zero-value
// request would silently misparse garbage that happens to be valid JSON.
func DecodeRequest(b []byte) (*Request, error) {
	req := new(Request)
	d := decoder{b: b}
	for d.next() {
		switch string(d.key) {
		case "seq":
			d.uint(&req.Seq)
		case "op":
			d.string(&req.Op, opNames)
		case "key":
			d.string(&req.Key, nil)
		case "mode":
			d.string(&req.Mode, modeNames)
		case "wait_ms":
			d.int(&req.WaitMS)
		case "ttl_ms":
			d.int(&req.TTLMS)
		case "session":
			d.string(&req.Session, nil)
		case "passage":
			d.uint(&req.Passage)
		default:
			d.skip(memberDepth)
		}
	}
	if d.err != nil {
		return nil, &DecodeError{What: "request", Err: d.err}
	}
	if req.Op == "" {
		return nil, &DecodeError{What: "request", Err: fmt.Errorf("missing op")}
	}
	return req, nil
}

// DecodeResponse parses one response line. A response with neither OK nor
// a failure code is rejected for the same reason.
func DecodeResponse(b []byte) (*Response, error) {
	resp := new(Response)
	d := decoder{b: b}
	for d.next() {
		switch string(d.key) {
		case "seq":
			d.uint(&resp.Seq)
		case "ok":
			d.bool(&resp.OK)
		case "code":
			d.string(&resp.Code, codeNames)
		case "err":
			d.string(&resp.Err, nil)
		case "session":
			d.string(&resp.Session, nil)
		case "ttl_ms":
			d.int(&resp.TTLMS)
		case "resumed":
			d.bool(&resp.Resumed)
		case "max_seq":
			d.uint(&resp.MaxSeq)
		case "server_epoch":
			d.uint(&resp.Epoch)
		case "passage":
			d.uint(&resp.Passage)
		case "stats":
			d.stats(&resp.Stats)
		default:
			d.skip(memberDepth)
		}
	}
	if d.err != nil {
		return nil, &DecodeError{What: "response", Err: d.err}
	}
	if !resp.OK && resp.Code == "" {
		return nil, &DecodeError{What: "response", Err: fmt.Errorf("failure without code")}
	}
	return resp, nil
}
