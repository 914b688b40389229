package server

import (
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"securitykg/internal/cypher"
	"securitykg/internal/jsonenc"
	"securitykg/internal/search"
)

// flushEvery bounds how long a streamed row may sit in the response
// buffer behind an earlier one before it is pushed to the client.
const flushEvery = 2 * time.Millisecond

// ndjsonWriter writes the lines of a streamed result. Every line is
// built in a reused buffer with the appenders below, byte-identical to
// encoding/json (so a warm row costs no allocation and no reflection),
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
	cell    []byte // a non-string cell's text (appendCells)
	started bool   // the first row has been flushed
	dirty   bool   // bytes written since the last flush
	armed   bool   // the timer is pending
	closed  bool
}

func newNDJSONWriter(w http.ResponseWriter) *ndjsonWriter {
	flusher, _ := w.(http.Flusher)
	return &ndjsonWriter{w: w, flusher: flusher}
}

// header writes the {"columns": [...]} line. It is not flushed on its
// own: it leaves with the first row, or with the trailer.
func (nw *ndjsonWriter) header(cols []string) error {
	nw.buf = append(appendStrings(append(nw.buf[:0], `{"columns":`...), cols), "}\n"...)
	return nw.write(false)
}

// row writes one {"row": [...]} line, cells rendered as strings.
func (nw *ndjsonWriter) row(vals []cypher.Value) error {
	b, cell := appendCells(append(nw.buf[:0], `{"row":`...), nw.cell, vals)
	nw.buf, nw.cell = append(b, "}\n"...), cell
	return nw.write(true)
}

// done writes the {"done": n} trailer of a statement that returned n rows.
// A writing statement's trailer adds its counters and, when seq is set,
// the read-your-writes token — the keys in sorted order, as encoding/json
// wrote the map this line once was.
func (nw *ndjsonWriter) done(n int, ws *cypher.WriteStats, seq func() uint64) error {
	b := strconv.AppendInt(append(nw.buf[:0], `{"done":`...), int64(n), 10)
	if ws != nil {
		if seq != nil {
			b = strconv.AppendUint(append(b, `,"seq":`...), seq(), 10)
		}
		b = appendWrites(append(b, `,"writes":`...), ws)
	}
	nw.buf = append(b, "}\n"...)
	return nw.write(false)
}

// fail writes the {"error": msg} trailer of a stream that failed.
func (nw *ndjsonWriter) fail(msg string) error {
	nw.buf = append(jsonenc.AppendString(append(nw.buf[:0], `{"error":`...), msg), "}\n"...)
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

// The appenders below build every hot response body byte for byte as
// json.NewEncoder(w).Encode built it from the structs the handlers used
// to encode (TestEncodersMatchEncodingJSON): fields in declaration order,
// omitempty honored, nil slices as null, strings and floats through
// jsonenc, and the Encoder's trailing newline where a body ends.

// appendStrings appends ss as a JSON array of strings, null when nil.
func appendStrings(dst []byte, ss []string) []byte {
	if ss == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, s := range ss {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = jsonenc.AppendString(dst, s)
	}
	return append(dst, ']')
}

// appendCells appends a row as the JSON array of its cells' strings
// (Value.String), rendering a cell that is not a string into cell first.
// It returns dst and cell, either possibly grown.
func appendCells(dst, cell []byte, vals []cypher.Value) ([]byte, []byte) {
	dst = append(dst, '[')
	for i := range vals {
		if i > 0 {
			dst = append(dst, ',')
		}
		if v := &vals[i]; v.Kind == cypher.KindString {
			dst = jsonenc.AppendString(dst, v.Str)
		} else {
			cell = v.Append(cell[:0])
			dst = jsonenc.AppendString(dst, cell)
		}
	}
	return append(dst, ']'), cell
}

func appendWrites(dst []byte, ws *cypher.WriteStats) []byte {
	dst = strconv.AppendInt(append(dst, `{"nodes_created":`...), int64(ws.NodesCreated), 10)
	dst = strconv.AppendInt(append(dst, `,"edges_created":`...), int64(ws.EdgesCreated), 10)
	dst = strconv.AppendInt(append(dst, `,"props_set":`...), int64(ws.PropsSet), 10)
	dst = strconv.AppendInt(append(dst, `,"nodes_deleted":`...), int64(ws.NodesDeleted), 10)
	dst = strconv.AppendInt(append(dst, `,"edges_deleted":`...), int64(ws.EdgesDeleted), 10)
	return append(dst, '}')
}

// appendRows drains rows into a materialized /api/cypher body: the
// columns, each row as an array of cell strings, then the writes and,
// when seq is set, the read-your-writes token it returns once the
// statement has committed. It returns the body and its row count.
func appendRows(dst []byte, rows *cypher.Rows, seq func() uint64) ([]byte, int, error) {
	dst = appendStrings(append(dst, `{"columns":`...), rows.Columns())
	dst = append(dst, `,"rows":`...)
	open, cell, n := len(dst), make([]byte, 0, 64), 0
	err := rows.Drain(func(row []cypher.Value) error {
		dst = append(dst, ',') // the first becomes the array's '['
		dst, cell = appendCells(dst, cell, row)
		n++
		return nil
	})
	if err != nil {
		return dst, 0, err
	}
	if n == 0 {
		dst = append(dst, "null"...)
	} else {
		dst[open] = '['
		dst = append(dst, ']')
	}
	if ws := rows.Writes(); ws != nil {
		dst = appendWrites(append(dst, `,"writes":`...), ws)
	}
	if seq != nil {
		if s := seq(); s != 0 {
			dst = strconv.AppendUint(append(dst, `,"seq":`...), s, 10)
		}
	}
	return append(dst, "}\n"...), n, nil
}

// appendHits appends an /api/search body: [{"id": ..., "score": ...}, ...].
func appendHits(dst []byte, hits []search.Hit) []byte {
	dst = append(dst, '[')
	for i, h := range hits {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = jsonenc.AppendString(append(dst, `{"id":`...), h.ID)
		dst = append(jsonenc.AppendFloat(append(dst, `,"score":`...), h.Score), '}')
	}
	return append(dst, "]\n"...)
}

// appendView appends a ViewGraph body (/api/expand, /api/random,
// /api/back): each node's fields, then its position and color.
func appendView(dst []byte, vg *ViewGraph) []byte {
	dst = append(dst, `{"nodes":`...)
	if vg.Nodes == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range vg.Nodes {
			if i > 0 {
				dst = append(dst, ',')
			}
			vn := &vg.Nodes[i]
			dst = strconv.AppendInt(append(dst, `{"id":`...), int64(vn.ID), 10)
			dst = jsonenc.AppendString(append(dst, `,"type":`...), vn.Type)
			dst = jsonenc.AppendString(append(dst, `,"name":`...), vn.Name)
			if len(vn.Attrs) > 0 {
				dst = vn.Attrs.AppendJSON(append(dst, `,"attrs":`...))
			}
			dst = jsonenc.AppendFloat(append(dst, `,"x":`...), vn.X)
			dst = jsonenc.AppendFloat(append(dst, `,"y":`...), vn.Y)
			dst = append(jsonenc.AppendString(append(dst, `,"color":`...), vn.Color), '}')
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"edges":`...)
	if vg.Edges == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, e := range vg.Edges {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(append(dst, `{"id":`...), int64(e.ID), 10)
			dst = jsonenc.AppendString(append(dst, `,"type":`...), e.Type)
			dst = strconv.AppendInt(append(dst, `,"from":`...), int64(e.From), 10)
			dst = strconv.AppendInt(append(dst, `,"to":`...), int64(e.To), 10)
			if len(e.Attrs) > 0 {
				dst = e.Attrs.AppendJSON(append(dst, `,"attrs":`...))
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return append(dst, "}\n"...)
}
