package wire

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"unicode"
)

// awkward holds every string class encoding/json escapes specially.
var awkward = []string{
	"",
	"plain-key_17",
	`<script>&amp;</script>`,
	"line\u2028para\u2029end",
	"ctl\x00\x01\x07\b\f\n\r\t\x1f\x7f",
	`quote" back\ slash/`,
	"bad\xffutf8\xc3(\xed\xa0\x80",
	"ünïcødé ✓ 😀",
}

// TestAppendMatchesJSON pins the codec's encoder to encoding/json: for
// every op, every error code, a Stats response and every awkward string,
// Append emits exactly json.Marshal's bytes plus the newline.
func TestAppendMatchesJSON(t *testing.T) {
	var msgs []any
	for _, op := range opNames {
		msgs = append(msgs,
			&Request{Seq: 1, Op: op},
			&Request{Seq: 1<<64 - 1, Op: op, Key: "k", Mode: ModeWrite, WaitMS: -1 << 63,
				TTLMS: 1<<63 - 1, Session: "0123456789abcdef", Passage: 1<<48 | 7})
	}
	msgs = append(msgs, &Request{}, &Response{}, &Response{OK: true},
		&Response{Seq: 9, OK: true, Session: "s", TTLMS: 500, Resumed: true, MaxSeq: 17, Epoch: 3, Passage: 5},
		&Response{Seq: 2, OK: true, Stats: &Stats{}},
		&Response{Seq: 2, OK: true, Epoch: 2, Stats: &Stats{Draining: true, Sessions: 3, Epoch: 2,
			Shards: []ShardStats{{Locks: 1, ReadGrants: 4, MaxWriterBypass: 2}, {}}}})
	for _, code := range codeNames {
		msgs = append(msgs, &Response{Seq: 4, Code: code, Err: "detail: " + code})
	}
	for _, s := range awkward {
		msgs = append(msgs,
			&Request{Seq: 3, Op: s, Key: s, Mode: s, Session: s},
			&Response{Seq: 3, Code: s, Err: s, Session: s})
	}
	for _, m := range msgs {
		want, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Append([]byte("prefix"), m)
		if err != nil {
			t.Fatalf("Append(%+v): %v", m, err)
		}
		if !bytes.Equal(got, append(append([]byte("prefix"), want...), '\n')) {
			t.Errorf("Append(%+v)\n got %q\nwant %q", m, got, want)
		}
	}
}

func TestAppendRejectsOtherTypes(t *testing.T) {
	for _, m := range []any{Request{Op: OpHello}, (*Request)(nil), (*Response)(nil), &Stats{}, nil} {
		if got, err := Append([]byte("x"), m); err == nil || string(got) != "x" {
			t.Errorf("Append(%T) = %q, %v; want an error and the buffer unchanged", m, got, err)
		}
	}
}

// TestDecodeMatchesJSON: the decoder reads every line encoding/json reads
// the same way (exact-case keys), and rejects what encoding/json rejects.
func TestDecodeMatchesJSON(t *testing.T) {
	accept := []string{
		`{"seq":1,"op":"hello","ttl_ms":500}`,
		`{"seq":2,"op":"acquire","key":"k","mode":"w","wait_ms":100}`,
		"\t{ \"op\" : \"release\" ,\r\n\"seq\":18446744073709551615 , \"passage\":0 }\n ",
		`{"op":"x","wait_ms":-9223372036854775808,"ttl_ms":9223372036854775807}`,
		`{"op":"hello","key":null,"seq":null,"session":"s","session":"t"}`,
		`{"op":"a\u0063quire","k\u0065y":"\ud83d\ude00\ud800\u0041\/\"\\\b\f\n\r\t","mode":"\u0072"}`,
		`{"op":"\udc00\ud800\ud800\udc00\ud800"}`,
		"{\"op\":\"stats\",\"key\":\"bad\xff\xfe\"}",
		`{"op":"bye","extra":{"a":[1,-2.5e+3,true,false,null,{"b":"c"}],"d":[]},"more":-0.0E1}`,
		`{"seq":1,"ok":true,"session":"abc","ttl_ms":500,"server_epoch":3}`,
		`{"seq":2,"ok":false,"code":"timeout","err":"waited too long"}`,
		`{"ok":true,"stats":{"draining":true,"shards":[{"locks":2}]},"stats":{"sessions":4}}`,
		`{"ok":true,"stats":{"epoch":1},"stats":null,"resumed":null}`,
		`{"ok":true,"stats":{"Sessions":2,"unknown":[1]}}`,
	}
	for _, in := range accept {
		if !checkDecode(t, []byte(in)) {
			t.Errorf("%q rejected by both decoders", in)
		}
	}
	reject := []string{
		``, ` `, `null`, `[]`, `"op"`, `{`, `{"op":"hello"`, `{"op":"hello",}`, `{"op":"hello"}x`,
		`{"op":"hello"}{}`, `{op:"hello"}`, `{"op":'hello'}`, `{"op":"hel` + "\n" + `lo"}`,
		`{"op":"\x"}`, `{"op":"\u12"}`, `{"op":"hello","seq":01}`, `{"op":"hello","seq":-1}`,
		`{"op":"hello","seq":1.0}`, `{"op":"hello","seq":1e2}`, `{"op":"hello","seq":18446744073709551616}`,
		`{"op":"hello","wait_ms":9223372036854775808}`, `{"op":"hello","wait_ms":-9223372036854775809}`,
		`{"op":"hello","seq":"1"}`, `{"op":1}`, `{"op":"hello","key":true}`, `{"ok":"true","code":"x"}`,
		`{"op":"hello","x":[1,]}`, `{"op":"hello","x":{"a"}}`, `{"op":"hello","x":-}`, `{"op":"hello","x":1.}`,
		`{"op":"hello","x":nul}`, `{"op":"hello","x":.5}`, `{"op":"hello","x":1e}`,
		`{"ok":true,"stats":{"sessions":"many"}}`, `{"ok":true,"stats":[]}`,
		`{"op":"hello","x":` + strings.Repeat("[", maxDepth) + strings.Repeat("]", maxDepth) + `}`,
	}
	for _, in := range reject {
		if checkDecode(t, []byte(in)) {
			t.Errorf("%q accepted", in)
		}
	}
}

// checkDecode decodes b as a request and as a response, compares each
// accepted value with encoding/json's, and reports whether either
// decoder accepted b.
func checkDecode(t *testing.T, b []byte) bool {
	t.Helper()
	req, rerr := DecodeRequest(b)
	if rerr == nil {
		var want Request
		compareDecoded(t, b, req, &want, json.Unmarshal(b, &want))
	}
	resp, perr := DecodeResponse(b)
	if perr == nil {
		var want Response
		compareDecoded(t, b, resp, &want, json.Unmarshal(b, &want))
	}
	return rerr == nil || perr == nil
}

// compareDecoded checks one accepted line: encoding/json accepts it too,
// to an equal value, and the value re-encodes to json.Marshal's bytes. A
// key that names a field only case-insensitively is exempt from the
// first part: encoding/json folds it onto the field (and may then reject
// its value), the codec skips it as unknown.
func compareDecoded(t *testing.T, b []byte, got, want any, jerr error) {
	t.Helper()
	if jerr != nil || !reflect.DeepEqual(got, want) {
		if !hasFoldedKey(b, reflect.TypeOf(got).Elem()) {
			t.Fatalf("decode %q:\n got %+v\nwant %+v (encoding/json error: %v)", b, got, want, jerr)
		}
	}
	enc, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Append(nil, got)
	if len(enc)+1 > MaxLine {
		return
	}
	if err != nil || !bytes.Equal(out, append(enc, '\n')) {
		t.Fatalf("re-encode of %q:\n got %q (%v)\nwant %q", b, out, err, enc)
	}
}

// hasFoldedKey reports whether the object b has a top-level key that
// names a field of typ only under encoding/json's case folding.
func hasFoldedKey(b []byte, typ reflect.Type) bool {
	var members map[string]json.RawMessage
	if json.Unmarshal(b, &members) != nil {
		return false
	}
	fold := func(s string) string { return strings.Map(unicode.ToUpper, s) }
	for key := range members {
		for i := 0; i < typ.NumField(); i++ {
			name, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
			if key != name && fold(key) == fold(name) {
				return true
			}
		}
	}
	return false
}

var (
	benchAcquire = &Request{Seq: 1 << 20, Op: OpAcquire, Key: "key-17", Mode: ModeRead, WaitMS: 1000}
	benchRelease = &Request{Seq: 1<<20 + 1, Op: OpRelease, Key: "key-17", Mode: ModeRead, Passage: 1<<48 | 12345}
	benchGrant   = &Response{Seq: 1 << 20, OK: true, Passage: 1<<48 | 12345}
	benchSink    any
)

func line(t testing.TB, m any) []byte {
	b, err := Append(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	return b[:len(b)-1]
}

// TestCodecAllocs gates the codec's allocations: encoding into a reused
// buffer allocates nothing; decoding a request allocates the struct and
// its key, a grant response only the struct.
func TestCodecAllocs(t *testing.T) {
	buf := make([]byte, 0, 256)
	acquire, release, grant := line(t, benchAcquire), line(t, benchRelease), line(t, benchGrant)
	for _, tc := range []struct {
		name string
		max  float64
		f    func()
	}{
		{"Append/acquire", 0, func() { buf, _ = Append(buf[:0], benchAcquire) }},
		{"Append/grant", 0, func() { buf, _ = Append(buf[:0], benchGrant) }},
		{"DecodeRequest/acquire", 2, func() { benchSink, _ = DecodeRequest(acquire) }},
		{"DecodeRequest/release", 2, func() { benchSink, _ = DecodeRequest(release) }},
		{"DecodeResponse/grant", 1, func() { benchSink, _ = DecodeResponse(grant) }},
	} {
		if got := testing.AllocsPerRun(100, tc.f); got > tc.max {
			t.Errorf("%s: %.1f allocs, want at most %.0f", tc.name, got, tc.max)
		}
	}
}

func BenchmarkCodec(b *testing.B) {
	reqLine, respLine := line(b, benchAcquire), line(b, benchGrant)
	b.Run("AppendRequest", func(b *testing.B) {
		b.ReportAllocs()
		buf := make([]byte, 0, 256)
		for i := 0; i < b.N; i++ {
			buf, _ = Append(buf[:0], benchAcquire)
		}
		benchSink = buf
	})
	b.Run("AppendResponse", func(b *testing.B) {
		b.ReportAllocs()
		buf := make([]byte, 0, 256)
		for i := 0; i < b.N; i++ {
			buf, _ = Append(buf[:0], benchGrant)
		}
		benchSink = buf
	})
	b.Run("DecodeRequest", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchSink, _ = DecodeRequest(reqLine)
		}
	})
	b.Run("DecodeResponse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchSink, _ = DecodeResponse(respLine)
		}
	})
}
