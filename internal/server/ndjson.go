package server

import (
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"time"
	"unicode/utf8"

	"securitykg/internal/cypher"
)

// flushEvery bounds how long a streamed row may sit in the response
// buffer behind an earlier one before it is pushed to the client.
const flushEvery = 2 * time.Millisecond

// ndjsonWriter writes the lines of a streamed result. Row lines are
// built in a reused buffer with an escaper byte-identical to
// encoding/json (so a warm row costs no allocation and no reflection)
// and handed to the transport, whose own buffer batches them. Flushing
// is what costs a system call, so it is rationed: the header and the
// first row go out together at once — the client's first-row latency is
// the executor's — and after that a written row arms a flushEvery timer
// unless one is pending. A fast producer is therefore flushed every
// flushEvery (or whenever the transport's buffer fills), a slow one row
// by row, and no row waits longer than flushEvery for the next one.
//
// The timer flushes from its own goroutine; mu serializes it with the
// handler's writes, and close (which the handler must call before it
// returns) guarantees the ResponseWriter is never touched afterwards.
type ndjsonWriter struct {
	mu      sync.Mutex
	w       io.Writer
	flusher http.Flusher // nil when the transport cannot flush
	timer   *time.Timer
	buf     []byte
	started bool // the first row has been flushed
	dirty   bool // bytes written since the last flush
	armed   bool // the timer is pending
	closed  bool
}

func newNDJSONWriter(w http.ResponseWriter) *ndjsonWriter {
	flusher, _ := w.(http.Flusher)
	return &ndjsonWriter{w: w, flusher: flusher}
}

// header writes the {"columns": [...]} line. It is not flushed on its
// own: it leaves with the first row, or with the trailer.
func (nw *ndjsonWriter) header(cols []string) error {
	nw.buf = append(nw.buf[:0], `{"columns":`...)
	if cols == nil {
		nw.buf = append(nw.buf, "null"...)
	} else {
		nw.buf = append(nw.buf, '[')
		for i, c := range cols {
			if i > 0 {
				nw.buf = append(nw.buf, ',')
			}
			nw.buf = appendJSONString(nw.buf, c)
		}
		nw.buf = append(nw.buf, ']')
	}
	nw.buf = append(nw.buf, "}\n"...)
	return nw.write(false)
}

// row writes one {"row": [...]} line, cells rendered as strings.
func (nw *ndjsonWriter) row(vals []cypher.Value) error {
	nw.buf = append(nw.buf[:0], `{"row":[`...)
	for i := range vals {
		if i > 0 {
			nw.buf = append(nw.buf, ',')
		}
		if v := &vals[i]; v.Kind == cypher.KindString {
			nw.buf = appendJSONString(nw.buf, v.Str)
		} else {
			nw.buf = appendJSONString(nw.buf, v.String())
		}
	}
	nw.buf = append(nw.buf, "]}\n"...)
	return nw.write(true)
}

// object writes v as one line (the error and done trailers). Map keys
// marshal sorted, so the line's bytes are deterministic.
func (nw *ndjsonWriter) object(v map[string]any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	nw.buf = append(append(nw.buf[:0], line...), '\n')
	return nw.write(false)
}

// write hands nw.buf to the transport and, for a row, applies the flush
// rule.
func (nw *ndjsonWriter) write(isRow bool) error {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if _, err := nw.w.Write(nw.buf); err != nil {
		return err
	}
	if !isRow || nw.flusher == nil {
		return nil
	}
	if !nw.started {
		nw.started = true
		nw.flusher.Flush()
		return nil
	}
	nw.dirty = true
	if !nw.armed {
		nw.armed = true
		if nw.timer == nil {
			nw.timer = time.AfterFunc(flushEvery, nw.timedFlush)
		} else {
			nw.timer.Reset(flushEvery)
		}
	}
	return nil
}

func (nw *ndjsonWriter) timedFlush() {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	nw.armed = false
	if nw.dirty && !nw.closed {
		nw.dirty = false
		nw.flusher.Flush()
	}
}

// close ends the writer's use of the ResponseWriter: a pending timer is
// stopped, a running one is waited for, a late one finds closed set.
// What is still buffered leaves when the handler returns.
func (nw *ndjsonWriter) close() {
	if nw.timer != nil {
		nw.timer.Stop()
	}
	nw.mu.Lock()
	nw.closed = true
	nw.mu.Unlock()
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string exactly as encoding/json
// does with HTML escaping on (json.Marshal, json.Encoder's default):
// quote, backslash and control characters escaped, <, > and & as \u00XX,
// U+2028/U+2029 as \u202X, invalid UTF-8 as \ufffd. FuzzJSONString holds
// it to json.Marshal byte for byte.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
