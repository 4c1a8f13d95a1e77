package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/lockd/durable"
	"repro/internal/lockd/wire"
)

// Layer probes for the lockd workloads. They call each layer's public
// functions from outside with the run's own data, so no program code
// carries instrumentation.

// replayWire re-encodes a run's own passages (acquire request and
// response, release request and response) with wire.Append and decodes
// them with wire.DecodeRequest / wire.DecodeResponse. It returns the
// codec's microseconds per passage.
func replayWire(o *outcome, ps []passage) (float64, error) {
	if len(ps) == 0 {
		return 0, fmt.Errorf("wire replay: no passages kept")
	}
	msgs := make([]any, 0, 4*len(ps))
	for i, p := range ps {
		seq := uint64(2*i + 2)
		msgs = append(msgs,
			&wire.Request{Seq: seq, Op: wire.OpAcquire, Key: p.key, Mode: p.mode, WaitMS: acquireWait.Milliseconds()},
			&wire.Response{Seq: seq, OK: true, Passage: p.token},
			&wire.Request{Seq: seq + 1, Op: wire.OpRelease, Key: p.key, Mode: p.mode, Passage: p.token},
			&wire.Response{Seq: seq + 1, OK: true})
	}
	lines := make([][]byte, len(msgs))
	var total int
	for i, m := range msgs {
		b, err := wire.Append(nil, m)
		if err != nil {
			return 0, fmt.Errorf("wire replay: %w", err)
		}
		total += len(b)
		lines[i] = b[:len(b)-1] // the scanner hands the decoder lines without '\n'
	}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	buf := make([]byte, 0, 512)
	t0 := time.Now()
	for _, m := range msgs {
		buf, _ = wire.Append(buf[:0], m)
	}
	t1 := time.Now()
	for i, line := range lines {
		var err error
		if i%2 == 0 {
			_, err = wire.DecodeRequest(line)
		} else {
			_, err = wire.DecodeResponse(line)
		}
		if err != nil {
			return 0, fmt.Errorf("wire replay: %w", err)
		}
	}
	t2 := time.Now()
	runtime.ReadMemStats(&m1)

	n, perPassage := float64(len(msgs)), float64(len(ps))
	enc, dec := float64(t1.Sub(t0).Nanoseconds())/n, float64(t2.Sub(t1).Nanoseconds())/n
	o.set("wire.encode_ns", enc)
	o.set("wire.decode_ns", dec)
	o.set("wire.bytes_per_passage", float64(total)/perPassage)
	o.set("wire.allocs_per_passage", float64(m1.Mallocs-m0.Mallocs)/perPassage)
	o.details["wire_messages"] = len(msgs)
	return 4 * (enc + dec) / 1e3, nil
}

// walMagic is the header every WAL file starts with.
const walMagic = "rwlockd-wal\x01\n"

// snapshotEvery is lockd's default snapshot rotation, in records.
const snapshotEvery = 4096

// readWAL returns the records in dir's WAL (those since the last rotation),
// their framed size, and the last LSN the directory holds, counting the
// snapshot's.
func readWAL(dir string) (recs []*durable.Record, frameBytes int64, last uint64, err error) {
	b, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		return nil, 0, 0, err
	}
	b = bytes.TrimPrefix(b, []byte(walMagic))
	// A torn tail (a frame still being written) ends the scan; the records
	// before it are whole.
	recs, frameBytes, _ = durable.ReadLog(b)
	for _, r := range recs {
		last = max(last, r.LSN)
	}
	if sb, err := os.ReadFile(filepath.Join(dir, "snapshot.json")); err == nil {
		var snap struct {
			LastLSN uint64 `json:"last_lsn"`
		}
		if json.Unmarshal(sb, &snap) == nil {
			last = max(last, snap.LastLSN)
		}
	}
	return recs, frameBytes, last, nil
}

// walMarks are log positions taken once the durable server serves: open
// is the last LSN recovery found (just before the epoch bump), start the
// last LSN when the measured window begins.
type walMarks struct{ open, start uint64 }

func markWAL(dir string) walMarks {
	recs, _, last, err := readWAL(dir)
	if err != nil {
		return walMarks{}
	}
	m := walMarks{start: last}
	for _, r := range recs {
		if r.Type == durable.RecEpoch && r.LSN > 0 {
			m.open = r.LSN - 1
		}
	}
	return m
}

// durableOptions is the store configuration of the measured server.
func durableOptions() durable.Options {
	return durable.Options{Fsync: durable.FsyncAlways, Shards: 8, WordsPerShard: 512}
}

// reappendCount is how many records the append probe writes.
const reappendCount = 2000

// durableProbes reads the crashed data directory the traced run left
// behind: its record and byte rates per passage, then re-appends its
// records through Store.Append under the same policy, times
// Store.Snapshot, and times durable.Open on copies of it. It returns the
// WAL's microseconds per passage.
func durableProbes(e *env, o *outcome, data string, m walMarks, passages int64) (float64, error) {
	recs, frameBytes, last, err := readWAL(data)
	if err != nil {
		return 0, fmt.Errorf("durable probe: %w", err)
	}
	perPassage := float64(last-m.start) / float64(max(passages, 1))
	o.set("durable.records_per_passage", perPassage)
	if len(recs) > 0 {
		o.set("durable.wal_bytes_per_passage", perPassage*float64(frameBytes)/float64(len(recs)))
	}
	o.set("durable.snapshots", float64((last-m.open)/snapshotEvery-(m.start-m.open)/snapshotEvery))
	if len(recs) == 0 {
		if recs, _, _, err = readWAL(filepath.Join(e.dir, "warm")); err != nil || len(recs) == 0 {
			return 0, fmt.Errorf("durable probe: no WAL records to re-append")
		}
	}

	st, _, err := durable.Open(filepath.Join(e.dir, "reappend"), durableOptions())
	if err != nil {
		return 0, fmt.Errorf("durable probe: %w", err)
	}
	app := make([]float64, 0, reappendCount)
	for i := 0; i < reappendCount; i++ {
		rec := *recs[i%len(recs)]
		rec.LSN = 0
		t0 := time.Now()
		if err := st.Append(&rec); err != nil {
			st.Close() //nolint:errcheck // the append error is the one reported
			return 0, fmt.Errorf("durable probe: append: %w", err)
		}
		app = append(app, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	var snaps []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if err := st.Snapshot(); err != nil {
			st.Close() //nolint:errcheck // the snapshot error is the one reported
			return 0, fmt.Errorf("durable probe: snapshot: %w", err)
		}
		snaps = append(snaps, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	if err := st.Close(); err != nil {
		return 0, fmt.Errorf("durable probe: %w", err)
	}
	o.setPct("durable.append_us.p50", app, 50, 1)
	o.setPct("durable.append_us.p99", app, 99, 1)
	o.set("durable.snapshot_ms", median(snaps))

	var recov []float64
	var info *durable.RecoveryInfo
	for i := 0; i < 3; i++ {
		dir := filepath.Join(e.dir, fmt.Sprintf("recover%d", i))
		if err := copyDir(data, dir); err != nil {
			return 0, fmt.Errorf("durable probe: %w", err)
		}
		t0 := time.Now()
		rs, ri, err := durable.Open(dir, durableOptions())
		if err != nil {
			return 0, fmt.Errorf("durable probe: recovery: %w", err)
		}
		recov = append(recov, float64(time.Since(t0).Nanoseconds())/1e6)
		rs.Crash()
		info = ri
	}
	o.set("durable.recovery_ms", median(recov))
	o.set("durable.replayed_records", float64(info.Replayed))
	o.set("durable.torn_bytes", float64(info.TornBytes))
	return perPassage * mean(app), nil
}
