package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
)

// FuzzDecodeRequest: any byte string is either a valid request or a typed
// *DecodeError — never a panic, and never a zero-value misparse (a
// request without an op cannot dispatch and must be rejected).
func FuzzDecodeRequest(f *testing.F) {
	f.Add([]byte(`{"seq":1,"op":"hello","ttl_ms":500}`))
	f.Add([]byte(`{"seq":2,"op":"acquire","key":"k","mode":"w","wait_ms":100}`))
	f.Add([]byte(`{"seq":3,"op":"release","key":"k","mode":"w","passage":281474976710657}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"seq":4}`))
	f.Add([]byte(`garbage`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, b []byte) {
		req, err := DecodeRequest(b)
		if err != nil {
			var de *DecodeError
			if !errors.As(err, &de) {
				t.Fatalf("untyped error %T: %v", err, err)
			}
			if req != nil {
				t.Fatal("request returned alongside error")
			}
			return
		}
		if req.Op == "" {
			t.Fatal("decoded request with empty op")
		}
		// Round trip: a decoded request must re-encode and re-decode.
		buf, aerr := Append(nil, req)
		if aerr != nil {
			t.Fatalf("re-encode: %v", aerr)
		}
		req2, derr := DecodeRequest(buf[:len(buf)-1])
		if derr != nil {
			t.Fatalf("re-decode: %v", derr)
		}
		if req2.Seq != req.Seq || req2.Op != req.Op || req2.Key != req.Key ||
			req2.Mode != req.Mode || req2.Passage != req.Passage || req2.Session != req.Session {
			t.Fatalf("round trip mismatch: %+v vs %+v", req, req2)
		}
	})
}

// FuzzDecodeResponse mirrors FuzzDecodeRequest for the server->client
// direction: failures without a code are rejected rather than silently
// treated as generic errors.
func FuzzDecodeResponse(f *testing.F) {
	f.Add([]byte(`{"seq":1,"ok":true,"session":"abc","ttl_ms":500,"server_epoch":3}`))
	f.Add([]byte(`{"seq":2,"ok":false,"code":"timeout","err":"waited too long"}`))
	f.Add([]byte(`{"seq":3,"ok":true,"resumed":true,"max_seq":17,"passage":9}`))
	f.Add([]byte(`{"seq":4,"ok":false}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`[1,2,3]`))
	f.Fuzz(func(t *testing.T, b []byte) {
		resp, err := DecodeResponse(b)
		if err != nil {
			var de *DecodeError
			if !errors.As(err, &de) {
				t.Fatalf("untyped error %T: %v", err, err)
			}
			if resp != nil {
				t.Fatal("response returned alongside error")
			}
			return
		}
		if !resp.OK && resp.Code == "" {
			t.Fatal("decoded failure response without a code")
		}
		buf, aerr := Append(nil, resp)
		if aerr != nil {
			t.Fatalf("re-encode: %v", aerr)
		}
		resp2, derr := DecodeResponse(buf[:len(buf)-1])
		if derr != nil {
			t.Fatalf("re-decode: %v", derr)
		}
		if resp2.Seq != resp.Seq || resp2.OK != resp.OK || resp2.Code != resp.Code ||
			resp2.Passage != resp.Passage || resp2.Epoch != resp.Epoch || resp2.MaxSeq != resp.MaxSeq {
			t.Fatalf("round trip mismatch: %+v vs %+v", resp, resp2)
		}
	})
}

// FuzzCodecMatchesJSON is the differential check against encoding/json:
// every line the decoder accepts, json.Unmarshal accepts to an equal
// value (unless a key matches a field only case-insensitively, encoding/
// json's key folding, which the codec does not reproduce), and every
// decoded value re-encodes to json.Marshal's bytes. The input also seeds
// the string fields of a request and a response, whose encoding must
// equal json.Marshal's for arbitrary bytes.
func FuzzCodecMatchesJSON(f *testing.F) {
	f.Add([]byte(`{"seq":2,"op":"acquire","key":"k","mode":"w","wait_ms":100}`))
	f.Add([]byte(`{"seq":3,"ok":true,"resumed":true,"max_seq":17,"passage":9}`))
	f.Add([]byte(`{"ok":true,"stats":{"draining":true,"shards":[{"locks":2}]},"stats":null}`))
	f.Add([]byte(`{"OP":"hello","op":"bye","Seq":1,"ſeq":2,"x":[{"y":null}]}`))
	f.Add([]byte(`{"op":"😀\ud800<&>","key":" \u0000"}`))
	f.Add([]byte("{\"op\":\"a\xff\",\"key\":\"\xe2\x80\xa8\"}"))
	f.Fuzz(func(t *testing.T, b []byte) {
		checkDecode(t, b)
		s := string(b)
		for _, m := range []any{
			&Request{Seq: uint64(len(b)), Op: s, Key: s, Mode: s, Session: s},
			&Response{Seq: uint64(len(b)), Code: s, Err: s, Session: s},
		} {
			want, err := json.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Append(nil, m)
			if len(want)+1 > MaxLine {
				continue
			}
			if err != nil || !bytes.Equal(got, append(want, '\n')) {
				t.Fatalf("Append(%+v) = %q (%v), want %q", m, got, err, want)
			}
		}
	})
}
