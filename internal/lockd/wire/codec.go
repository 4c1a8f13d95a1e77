package wire

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"
)

// Interning tables: a decoded op, mode or code equal to one of these is
// set to the constant itself rather than to a fresh string.
var (
	opNames   = []string{OpAcquire, OpRelease, OpHeartbeat, OpHello, OpStats, OpBye}
	modeNames = []string{ModeRead, ModeWrite}
	codeNames = []string{CodeTimeout, CodeShed, CodeRevoked, CodeDraining, CodeExpired,
		CodeBadRequest, CodeRecovering, CodeEpochFenced}
)

// appendJSON appends r as json.Marshal encodes it.
func (r *Request) appendJSON(b []byte) []byte {
	b = strconv.AppendUint(append(b, `{"seq":`...), r.Seq, 10)
	b = appendString(append(b, `,"op":`...), r.Op)
	b = appendStringField(b, `,"key":`, r.Key)
	b = appendStringField(b, `,"mode":`, r.Mode)
	b = appendIntField(b, `,"wait_ms":`, r.WaitMS)
	b = appendIntField(b, `,"ttl_ms":`, r.TTLMS)
	b = appendStringField(b, `,"session":`, r.Session)
	b = appendUintField(b, `,"passage":`, r.Passage)
	return append(b, '}')
}

// appendJSON appends r as json.Marshal encodes it.
func (r *Response) appendJSON(b []byte) ([]byte, error) {
	b = strconv.AppendUint(append(b, `{"seq":`...), r.Seq, 10)
	b = strconv.AppendBool(append(b, `,"ok":`...), r.OK)
	b = appendStringField(b, `,"code":`, r.Code)
	b = appendStringField(b, `,"err":`, r.Err)
	b = appendStringField(b, `,"session":`, r.Session)
	b = appendIntField(b, `,"ttl_ms":`, r.TTLMS)
	if r.Resumed {
		b = append(b, `,"resumed":true`...)
	}
	b = appendUintField(b, `,"max_seq":`, r.MaxSeq)
	b = appendUintField(b, `,"server_epoch":`, r.Epoch)
	b = appendUintField(b, `,"passage":`, r.Passage)
	if r.Stats != nil {
		st, err := json.Marshal(r.Stats)
		if err != nil {
			return b, err
		}
		b = append(append(b, `,"stats":`...), st...)
	}
	return append(b, '}'), nil
}

// The append*Field helpers implement omitempty: a zero value adds nothing.

func appendStringField(b []byte, name, s string) []byte {
	if s == "" {
		return b
	}
	return appendString(append(b, name...), s)
}

func appendIntField(b []byte, name string, v int64) []byte {
	if v == 0 {
		return b
	}
	return strconv.AppendInt(append(b, name...), v, 10)
}

func appendUintField(b []byte, name string, v uint64) []byte {
	if v == 0 {
		return b
	}
	return strconv.AppendUint(append(b, name...), v, 10)
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a quoted JSON string with encoding/json's
// escaping: control bytes, '"', '\\' and the HTML-significant '<', '>'
// and '&' are escaped, U+2028 and U+2029 become \u2028 and \u2029, and
// each byte of invalid UTF-8 becomes \ufffd.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}

// maxDepth is encoding/json's nesting limit; the message object itself
// is depth 1, so a container member value opens depth memberDepth.
const (
	maxDepth    = 10000
	memberDepth = 2
)

// decoder reads one flat JSON object, member by member:
//
//	d := decoder{b: line}
//	for d.next() {
//		switch string(d.key) { ... call exactly one value method ... }
//	}
//	// d.err is nil iff the whole line was one well-formed object.
//
// The first error sticks in d.err and ends the loop. Keys are matched
// exactly as written (after unescaping): encoding/json's case-insensitive
// key folding is deliberately not reproduced.
type decoder struct {
	b       []byte
	i       int
	started bool
	key     []byte
	err     error
}

// next consumes the separator before the object's next member and that
// member's key and colon, and reports whether there is a member. At the
// closing brace it checks that only whitespace follows and returns false.
func (d *decoder) next() bool {
	if d.err != nil {
		return false
	}
	d.ws()
	if !d.started {
		d.started = true
		if !d.eat('{') {
			return d.fail()
		}
		d.ws()
		if d.eat('}') {
			return d.end()
		}
	} else {
		if d.eat('}') {
			return d.end()
		}
		if !d.eat(',') {
			return d.fail()
		}
		d.ws()
	}
	raw, plain, ok := d.str()
	if !ok {
		return false
	}
	if !plain {
		raw = unquote(raw)
	}
	d.key = raw
	d.ws()
	if !d.eat(':') {
		return d.fail()
	}
	d.ws()
	return true
}

// end checks that nothing but whitespace follows the closing brace.
func (d *decoder) end() bool {
	d.ws()
	if d.i < len(d.b) {
		d.fail()
	}
	return false
}

// fail records a syntax error at the current offset and returns false.
func (d *decoder) fail() bool {
	if d.i >= len(d.b) {
		d.err = errors.New("unexpected end of input")
	} else {
		d.err = fmt.Errorf("invalid character %q at offset %d", d.b[d.i], d.i)
	}
	return false
}

func (d *decoder) peek() byte {
	if d.i < len(d.b) {
		return d.b[d.i]
	}
	return 0
}

func (d *decoder) eat(c byte) bool {
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

func (d *decoder) ws() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// literal consumes lit (true, false or null) if the input continues with it.
func (d *decoder) literal(lit string) bool {
	if len(d.b)-d.i >= len(lit) && string(d.b[d.i:d.i+len(lit)]) == lit {
		d.i += len(lit)
		return true
	}
	return false
}

// uint reads a non-negative integer into *p; null leaves *p unchanged.
func (d *decoder) uint(p *uint64) {
	if d.literal("null") {
		return
	}
	if v, ok := d.digits(); ok {
		*p = v
	}
}

// int reads an integer into *p; null leaves *p unchanged.
func (d *decoder) int(p *int64) {
	if d.literal("null") {
		return
	}
	neg := d.eat('-')
	v, ok := d.digits()
	switch {
	case !ok:
	case neg && v <= 1<<63:
		*p = -int64(v) // v == 1<<63 wraps to math.MinInt64, as wanted
	case !neg && v <= math.MaxInt64:
		*p = int64(v)
	default:
		d.err = fmt.Errorf("integer overflows int64 at offset %d", d.i)
	}
}

// digits reads the integer part of a JSON number and rejects a fraction
// or exponent (the fields are integers) and values above MaxUint64.
func (d *decoder) digits() (uint64, bool) {
	c := d.peek()
	if c < '0' || c > '9' {
		return 0, d.fail()
	}
	var v uint64
	if c == '0' {
		d.i++ // JSON numbers have no leading zeros: "0" stands alone
	} else {
		start := d.i
		for ; d.i < len(d.b) && '0' <= d.b[d.i] && d.b[d.i] <= '9'; d.i++ {
			v = v*10 + uint64(d.b[d.i]-'0')
		}
		// 19 digits always fit; 20 fit up to MaxUint64 (compared as text,
		// since v may have wrapped).
		if n := d.i - start; n > 20 || n == 20 && string(d.b[start:d.i]) > "18446744073709551615" {
			d.err = fmt.Errorf("integer overflows uint64 at offset %d", start)
			return 0, false
		}
	}
	if c := d.peek(); c == '.' || c == 'e' || c == 'E' {
		d.err = fmt.Errorf("non-integer number at offset %d", d.i)
		return 0, false
	}
	return v, true
}

// bool reads true or false into *p; null leaves *p unchanged.
func (d *decoder) bool(p *bool) {
	switch {
	case d.literal("true"):
		*p = true
	case d.literal("false"):
		*p = false
	case d.literal("null"):
	default:
		d.fail()
	}
}

// string reads a string into *p, interning it when it equals an entry of
// known; null leaves *p unchanged.
func (d *decoder) string(p *string, known []string) {
	if d.literal("null") {
		return
	}
	raw, plain, ok := d.str()
	if !ok {
		return
	}
	if !plain {
		raw = unquote(raw)
	}
	for _, k := range known {
		if string(raw) == k {
			*p = k
			return
		}
	}
	*p = string(raw)
}

// stats decodes a Stats object with encoding/json into *p, reusing an
// existing *p and setting it to nil for null, as encoding/json does.
func (d *decoder) stats(p **Stats) {
	if d.literal("null") {
		*p = nil
		return
	}
	start := d.i
	if !d.skip(memberDepth) {
		return
	}
	if *p == nil {
		*p = new(Stats)
	}
	if err := json.Unmarshal(d.b[start:d.i], *p); err != nil {
		d.err = fmt.Errorf("stats: %w", err)
	}
}

// str consumes a string and returns the bytes between its quotes. plain
// reports that they are the value as is: no escapes, valid UTF-8.
// Otherwise unquote yields the value. Escapes are validated here.
func (d *decoder) str() (raw []byte, plain, ok bool) {
	if !d.eat('"') {
		return nil, false, d.fail()
	}
	start := d.i
	plain = true
	ascii := true
	for d.i < len(d.b) {
		switch c := d.b[d.i]; {
		case c == '"':
			raw = d.b[start:d.i]
			d.i++
			if plain && !ascii {
				plain = utf8.Valid(raw)
			}
			return raw, plain, true
		case c == '\\':
			plain = false
			d.i++
			switch d.peek() {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				d.i++
			case 'u':
				d.i++
				for n := 0; n < 4; n++ {
					if !isHex(d.peek()) {
						return nil, false, d.fail()
					}
					d.i++
				}
			default:
				return nil, false, d.fail()
			}
		case c < ' ':
			return nil, false, d.fail()
		default:
			ascii = ascii && c < utf8.RuneSelf
			d.i++
		}
	}
	return nil, false, d.fail()
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

func hexValue(s []byte) rune {
	var r rune
	for _, c := range s[:4] {
		switch {
		case c <= '9':
			r = r<<4 | rune(c-'0')
		case c >= 'a':
			r = r<<4 | rune(c-'a'+10)
		default:
			r = r<<4 | rune(c-'A'+10)
		}
	}
	return r
}

// unquote decodes the contents of a string str has validated, as
// encoding/json does: a surrogate escape that is not half of a valid pair
// and each byte of invalid UTF-8 become U+FFFD.
func unquote(s []byte) []byte {
	out := make([]byte, 0, len(s)+utf8.UTFMax)
	for i := 0; i < len(s); {
		c := s[i]
		switch {
		case c == '\\' && s[i+1] == 'u':
			r := hexValue(s[i+2:])
			i += 6
			if utf16.IsSurrogate(r) {
				if i+6 <= len(s) && s[i] == '\\' && s[i+1] == 'u' {
					if pair := utf16.DecodeRune(r, hexValue(s[i+2:])); pair != utf8.RuneError {
						out = utf8.AppendRune(out, pair)
						i += 6
						continue
					}
				}
				r = utf8.RuneError
			}
			out = utf8.AppendRune(out, r)
		case c == '\\':
			switch e := s[i+1]; e {
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			default: // '"', '\\' or '/'
				out = append(out, e)
			}
			i += 2
		case c < utf8.RuneSelf:
			out = append(out, c)
			i++
		default:
			r, size := utf8.DecodeRune(s[i:])
			out = utf8.AppendRune(out, r)
			i += size
		}
	}
	return out
}

// skip consumes one value of any type, validating it; a container opens
// nesting depth depth.
func (d *decoder) skip(depth int) bool {
	switch c := d.peek(); {
	case c == '{' || c == '[':
		if depth > maxDepth {
			d.err = fmt.Errorf("exceeded max depth at offset %d", d.i)
			return false
		}
		d.i++
		d.ws()
		closer := byte(']')
		if c == '{' {
			closer = '}'
		}
		if d.eat(closer) {
			return true
		}
		for {
			if c == '{' {
				if _, _, ok := d.str(); !ok {
					return false
				}
				d.ws()
				if !d.eat(':') {
					return d.fail()
				}
				d.ws()
			}
			if !d.skip(depth + 1) {
				return false
			}
			d.ws()
			if d.eat(closer) {
				return true
			}
			if !d.eat(',') {
				return d.fail()
			}
			d.ws()
		}
	case c == '"':
		_, _, ok := d.str()
		return ok
	case c == '-' || '0' <= c && c <= '9':
		return d.number()
	case d.literal("true") || d.literal("false") || d.literal("null"):
		return true
	}
	return d.fail()
}

// number consumes a number in JSON's grammar.
func (d *decoder) number() bool {
	d.eat('-')
	if !d.eat('0') {
		if c := d.peek(); c < '1' || c > '9' {
			return d.fail()
		}
		d.skipDigits()
	}
	if d.eat('.') {
		if !d.skipDigits() {
			return d.fail()
		}
	}
	if d.eat('e') || d.eat('E') {
		if !d.eat('+') {
			d.eat('-')
		}
		if !d.skipDigits() {
			return d.fail()
		}
	}
	return true
}

// skipDigits consumes a run of digits and reports whether it was non-empty.
func (d *decoder) skipDigits() bool {
	start := d.i
	for d.i < len(d.b) && '0' <= d.b[d.i] && d.b[d.i] <= '9' {
		d.i++
	}
	return d.i > start
}
