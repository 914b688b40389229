package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"securitykg/internal/cypher"
)

// cypherRequest is the /api/cypher request body, as decodeCypherRequest
// reads it. Params values are cypher.Values, which the engine binds as
// they are.
type cypherRequest struct {
	Query   string
	Params  map[string]any
	Explain bool   // render the plan instead of executing
	Stream  bool   // NDJSON row-by-row response
	Tx      string // transaction token (session.go)
	MinSeq  uint64 // read-your-writes token: wait for this seq on a replica
}

// stdCypherRequest is the same body as encoding/json decodes it.
// decodeCypherRequest accepts exactly the bodies json.Unmarshal accepts
// into it, with the same fields (FuzzCypherRequest); a refused body is
// decoded once more with it only to word the 400 as encoding/json does.
type stdCypherRequest struct {
	Query   string         `json:"query"`
	Params  map[string]any `json:"params"`
	Explain bool           `json:"explain"`
	Stream  bool           `json:"stream"`
	Tx      string         `json:"tx"`
	MinSeq  uint64         `json:"min_seq"`
}

// readCypherRequest reads the request body into body.buf, which it may
// grow, and decodes it into req on body's stacks. Nothing in req aliases
// body, so the caller can reuse the buffer for the response.
func readCypherRequest(r *http.Request, body *pooledBody, req *cypherRequest) error {
	b := body.buf[:0]
	if n := r.ContentLength; n > 0 {
		b = slices.Grow(b, int(min(n, maxPooledBody))+1) // one spare byte to read EOF into
	}
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			body.buf = b
			return fmt.Errorf("read request body: %w", err)
		}
	}
	body.buf = b
	if err := decodeCypherRequest(b, &body.decodeStacks, req); err != nil {
		if stdErr := json.Unmarshal(b, new(stdCypherRequest)); stdErr != nil {
			err = stdErr
		}
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

// maxJSONDepth is encoding/json's nesting limit. Counting it keeps a deep
// body — up to maxRequestBody of brackets — a 400 rather than a stack
// overflow in the recursive decode.
const maxJSONDepth = 10000

// envelopeFields are the cypherRequest members, in field order. A key
// matches one case-insensitively, as encoding/json matches field names.
var envelopeFields = [...]string{"query", "params", "explain", "stream", "tx", "min_seq"}

const (
	fieldQuery = iota
	fieldParams
	fieldExplain
	fieldStream
	fieldTx
	fieldMinSeq
)

func envelopeField(key []byte) int {
	for i, name := range envelopeFields {
		if string(key) == name {
			return i
		}
	}
	for i, name := range envelopeFields {
		if strings.EqualFold(string(key), name) {
			return i
		}
	}
	return -1
}

// decodeCypherRequest decodes a request body in one pass, with
// json.Unmarshal's grammar and semantics: strict numbers and strings,
// \u escapes with surrogate pairs, invalid UTF-8 read as U+FFFD, later
// duplicate members overwriting earlier ones (duplicate params objects
// merge, as json.Unmarshal fills an existing map), null leaving a field
// as it is (params: nil), and nothing but white space after the value.
// A member of the wrong type, a min_seq that is not a uint64, a params
// number no float64 holds and nesting deeper than maxJSONDepth are errors.
// Lists and objects are built on st, which is left empty.
func decodeCypherRequest(data []byte, st *decodeStacks, req *cypherRequest) error {
	d := bodyDecoder{data: data, decodeStacks: st}
	defer st.reset()
	d.space()
	if !d.literal("null") { // json.Unmarshal leaves the struct as it is
		if d.peek() != '{' {
			return d.fail("request body is not a JSON object")
		}
		if err := d.object(func(key []byte) error { return d.member(envelopeField(key), req) }); err != nil {
			return err
		}
	}
	d.space()
	if d.pos != len(d.data) {
		return d.fail("data after the request object")
	}
	return nil
}

// bodyDecoder is the read position in a JSON document.
type bodyDecoder struct {
	data    []byte
	pos     int
	depth   int
	scratch []byte // an unescaped string (str)
	*decodeStacks
}

// decodeStacks hold the elements of the lists and the fields of the
// objects being decoded, innermost on top. A closed list or object is
// popped off in one allocation of its exact size, so a 500-row $batch
// costs one array, not append's doublings of one, and a row one field
// array, not a Go map.
type decodeStacks struct {
	elems  []cypher.Value
	fields []cypher.Field
}

// reset empties the stacks, dropping what a failed decode left on them.
func (st *decodeStacks) reset() {
	clear(st.elems)
	clear(st.fields)
	st.elems, st.fields = st.elems[:0], st.fields[:0]
}

// pop takes the top of stack *s, from base, off the stack and returns
// its first n entries in an exact-size copy.
func pop[T any](s *[]T, base, n int) []T {
	out := make([]T, n)
	copy(out, (*s)[base:])
	clear((*s)[base:])
	*s = (*s)[:base]
	return out
}

func (d *bodyDecoder) fail(msg string) error { return fmt.Errorf("%s at offset %d", msg, d.pos) }

// member decodes the value of envelope field f (-1: an unknown member,
// which json.Unmarshal checks for syntax only).
func (d *bodyDecoder) member(f int, req *cypherRequest) error {
	switch f {
	case fieldQuery:
		return d.stringField(&req.Query)
	case fieldParams:
		return d.params(&req.Params)
	case fieldExplain:
		return d.boolField(&req.Explain)
	case fieldStream:
		return d.boolField(&req.Stream)
	case fieldTx:
		return d.stringField(&req.Tx)
	case fieldMinSeq:
		if d.literal("null") {
			return nil
		}
		tok, err := d.number()
		if err != nil {
			return err
		}
		n, err := strconv.ParseUint(string(tok), 10, 64)
		if err != nil {
			return d.fail("min_seq " + string(tok) + " is not a sequence number")
		}
		req.MinSeq = n
		return nil
	}
	return d.skip()
}

func (d *bodyDecoder) stringField(dst *string) error {
	if d.literal("null") {
		return nil
	}
	if d.peek() != '"' {
		return d.fail("expected a string")
	}
	s, err := d.str()
	*dst = string(s)
	return err
}

func (d *bodyDecoder) boolField(dst *bool) error {
	switch {
	case d.literal("null"):
	case d.literal("true"):
		*dst = true
	case d.literal("false"):
		*dst = false
	default:
		return d.fail("expected a boolean")
	}
	return nil
}

// params decodes the params object into *m, allocating it when nil.
func (d *bodyDecoder) params(m *map[string]any) error {
	if d.literal("null") {
		*m = nil
		return nil
	}
	if d.peek() != '{' {
		return d.fail("params is not an object")
	}
	if *m == nil {
		*m = map[string]any{}
	}
	return d.object(func(key []byte) error {
		k := string(key)
		v, err := d.value()
		(*m)[k] = v
		return err
	})
}

// value decodes any JSON value as the cypher.Value cypher.ToValue makes
// of what json.Unmarshal puts in an interface{}.
func (d *bodyDecoder) value() (cypher.Value, error) {
	switch c := d.peek(); {
	case c == '"':
		s, err := d.str()
		return cypher.StringValue(string(s)), err
	case c == '{':
		base := len(d.fields)
		err := d.object(func(key []byte) error {
			k := string(key)
			v, err := d.value()
			d.fields = append(d.fields, cypher.Field{Key: k, Val: v})
			return err
		})
		if err != nil {
			return cypher.Value{}, err
		}
		m := cypher.FieldsValue(d.fields[base:])
		m.Map = pop(&d.fields, base, len(m.Map))
		return m, nil
	case c == '[':
		base := len(d.elems)
		err := d.array(func() error {
			v, err := d.value()
			d.elems = append(d.elems, v)
			return err
		})
		if err != nil {
			return cypher.Value{}, err
		}
		// [] is an empty list, not null: make(_, 0) is not nil.
		return cypher.ListValue(pop(&d.elems, base, len(d.elems)-base)), nil
	case c == '-' || '0' <= c && c <= '9':
		tok, err := d.number()
		if err != nil {
			return cypher.Value{}, err
		}
		f, err := strconv.ParseFloat(string(tok), 64)
		if err != nil {
			return cypher.Value{}, d.fail("number " + string(tok) + " does not fit a float64")
		}
		return cypher.NumberValue(f), nil
	case d.literal("true"):
		return cypher.BoolValue(true), nil
	case d.literal("false"):
		return cypher.BoolValue(false), nil
	case d.literal("null"):
		return cypher.NullValue(), nil
	}
	return cypher.Value{}, d.fail("expected a value")
}

// skip checks the syntax of the value at the read position and steps
// over it.
func (d *bodyDecoder) skip() error {
	var err error
	switch c := d.peek(); {
	case c == '"':
		_, err = d.str()
	case c == '{':
		err = d.object(func([]byte) error { return d.skip() })
	case c == '[':
		err = d.array(d.skip)
	case c == '-' || '0' <= c && c <= '9':
		_, err = d.number()
	case d.literal("true"), d.literal("false"), d.literal("null"):
	default:
		err = d.fail("expected a value")
	}
	return err
}

// array walks the elements of the array at the read position, calling
// elem with the position at each.
func (d *bodyDecoder) array(elem func() error) error {
	if err := d.open(); err != nil {
		return err
	}
	d.space()
	if d.consume(']') {
		d.depth--
		return nil
	}
	for {
		d.space()
		if err := elem(); err != nil {
			return err
		}
		d.space()
		if d.consume(']') {
			d.depth--
			return nil
		}
		if !d.consume(',') {
			return d.fail("expected , or ] in array")
		}
	}
}

// object walks the members of the object at the read position, calling
// member with each key and the position at its value. The key may live
// in the scratch buffer: member must copy it before decoding the value.
func (d *bodyDecoder) object(member func(key []byte) error) error {
	if err := d.open(); err != nil {
		return err
	}
	d.space()
	if d.consume('}') {
		d.depth--
		return nil
	}
	for {
		d.space()
		if d.peek() != '"' {
			return d.fail("expected a member name")
		}
		key, err := d.str()
		if err != nil {
			return err
		}
		d.space()
		if !d.consume(':') {
			return d.fail("expected : after member name")
		}
		d.space()
		if err := member(key); err != nil {
			return err
		}
		d.space()
		if d.consume('}') {
			d.depth--
			return nil
		}
		if !d.consume(',') {
			return d.fail("expected , or } in object")
		}
	}
}

// open consumes a '{' or '[' one level deeper.
func (d *bodyDecoder) open() error {
	if d.depth++; d.depth > maxJSONDepth {
		return d.fail("exceeded max depth")
	}
	d.pos++
	return nil
}

// str reads the string at the read position and returns its unescaped
// bytes: a slice of the document when it holds no escape and no invalid
// UTF-8, else of the scratch buffer. Either way the caller copies.
func (d *bodyDecoder) str() ([]byte, error) {
	d.pos++ // the opening quote
	start := d.pos
	for d.pos < len(d.data) {
		c := d.data[d.pos]
		if c == '"' {
			d.pos++
			return d.data[start : d.pos-1], nil
		}
		if c == '\\' || c < ' ' {
			break
		}
		if c < utf8.RuneSelf {
			d.pos++
			continue
		}
		r, size := utf8.DecodeRune(d.data[d.pos:])
		if r == utf8.RuneError && size == 1 {
			break
		}
		d.pos += size
	}
	b := append(d.scratch[:0], d.data[start:d.pos]...)
	for d.pos < len(d.data) {
		switch c := d.data[d.pos]; {
		case c == '"':
			d.pos++
			d.scratch = b
			return b, nil
		case c < ' ':
			return nil, d.fail("control character in string")
		case c == '\\':
			if d.pos+1 == len(d.data) {
				return nil, d.fail("unexpected end of string")
			}
			switch e := d.data[d.pos+1]; e {
			case '"', '\\', '/':
				b = append(b, e)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r := d.u4(d.pos)
				if r < 0 {
					return nil, d.fail("malformed \\u escape")
				}
				d.pos += 6
				if utf16.IsSurrogate(r) {
					// A pair decodes to one rune; a lone half, as
					// encoding/json reads it, to U+FFFD.
					if dec := utf16.DecodeRune(r, d.u4(d.pos)); dec != unicode.ReplacementChar {
						r = dec
						d.pos += 6
					} else {
						r = unicode.ReplacementChar
					}
				}
				b = utf8.AppendRune(b, r)
				continue
			default:
				return nil, d.fail("invalid escape in string")
			}
			d.pos += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			d.pos++
		default:
			r, size := utf8.DecodeRune(d.data[d.pos:])
			b = utf8.AppendRune(b, r) // invalid UTF-8 becomes U+FFFD
			d.pos += size
		}
	}
	return nil, d.fail("unexpected end of string")
}

// u4 reads the \uXXXX escape at i, -1 when there is none.
func (d *bodyDecoder) u4(i int) rune {
	if i+6 > len(d.data) || d.data[i] != '\\' || d.data[i+1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range d.data[i+2 : i+6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// number reads a number token with JSON's grammar:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (d *bodyDecoder) number() ([]byte, error) {
	start := d.pos
	d.consume('-')
	if !d.consume('0') && !d.digits() {
		return nil, d.fail("malformed number")
	}
	if d.consume('.') && !d.digits() {
		return nil, d.fail("malformed number")
	}
	if d.consume('e') || d.consume('E') {
		if !d.consume('+') {
			d.consume('-')
		}
		if !d.digits() {
			return nil, d.fail("malformed number")
		}
	}
	return d.data[start:d.pos], nil
}

// digits consumes a run of decimal digits, reporting whether there was one.
func (d *bodyDecoder) digits() bool {
	start := d.pos
	for d.pos < len(d.data) && '0' <= d.data[d.pos] && d.data[d.pos] <= '9' {
		d.pos++
	}
	return d.pos > start
}

func (d *bodyDecoder) space() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// peek returns the byte at the read position, 0 at the end.
func (d *bodyDecoder) peek() byte {
	if d.pos < len(d.data) {
		return d.data[d.pos]
	}
	return 0
}

func (d *bodyDecoder) consume(c byte) bool {
	if d.peek() == c {
		d.pos++
		return true
	}
	return false
}

func (d *bodyDecoder) literal(lit string) bool {
	if len(d.data)-d.pos >= len(lit) && string(d.data[d.pos:d.pos+len(lit)]) == lit {
		d.pos += len(lit)
		return true
	}
	return false
}
