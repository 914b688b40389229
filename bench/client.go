package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// clients is the whole load: two closed-loop connections, each sending
// its next request only when the last one has been answered. It is a
// constant, not a function of the core count, so numbers from two
// machines with the same context stay comparable.
const clients = 2

// warmup runs before every timed run: connections open, plan cache
// filled, adjacency sealed.
var warmup = 2 * time.Second

// request is one generated HTTP call.
type request struct {
	class  string // request class, one of serverClasses
	method string
	path   string // path and query, appended to the target's base URL
	body   []byte
	key    int  // binding the model predicts from (rank or node id; meaning is per class)
	stream bool // NDJSON response: time the first row line
}

type response struct {
	status   int
	body     []byte
	total    time.Duration // request sent -> last byte read
	firstRow time.Duration // request sent -> first {"row": line (stream only)
}

// conn is one client connection: its transport may hold a single socket
// per host, so a conn never has two requests in flight.
type conn struct {
	c  *http.Client
	tr *http.Transport
}

func newConn() *conn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &conn{c: &http.Client{Transport: tr}, tr: tr}
}

func (c *conn) close() { c.tr.CloseIdleConnections() }

var rowMark = []byte(`{"row":`)

// do sends r to base and reads the whole answer. span, when nonzero,
// travels in a header so the decorated handler can parent its span.
func (c *conn) do(base string, r *request, span int, ref string) (response, error) {
	var rd io.Reader
	if r.body != nil {
		rd = bytes.NewReader(r.body)
	}
	req, err := http.NewRequest(r.method, base+r.path, rd)
	if err != nil {
		return response{}, err
	}
	if r.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if span != 0 {
		req.Header.Set("X-Bench-Span", strconv.Itoa(span))
		req.Header.Set("X-Bench-Class", r.class)
		req.Header.Set("X-Bench-Ref", ref)
	}
	t0 := time.Now()
	resp, err := c.c.Do(req)
	if err != nil {
		return response{}, err
	}
	defer resp.Body.Close()
	out := response{status: resp.StatusCode}
	if !r.stream {
		out.body, err = io.ReadAll(resp.Body)
		out.total = time.Since(t0)
		return out, err
	}
	buf := make([]byte, 0, 1<<16)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, rerr := resp.Body.Read(buf[len(buf):cap(buf)])
		from := max(len(buf)-len(rowMark), 0)
		buf = buf[:len(buf)+n]
		if out.firstRow == 0 && bytes.Contains(buf[from:], rowMark) {
			out.firstRow = time.Since(t0)
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return out, rerr
		}
	}
	out.body, out.total = buf, time.Since(t0)
	return out, nil
}

// seamHandler decorates the http.Handler seam around server.Server.
// With no tracer installed it forwards the call untouched.
type seamHandler struct {
	inner http.Handler
	tr    atomic.Pointer[tracer]
	bytes atomic.Int64
}

func (h *seamHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := h.tr.Load()
	if tr == nil {
		h.inner.ServeHTTP(w, r)
		return
	}
	parent, _ := strconv.Atoi(r.Header.Get("X-Bench-Span"))
	id := tr.begin("server.handler."+r.Header.Get("X-Bench-Class"), r.Header.Get("X-Bench-Ref"), parent)
	cw := &countingWriter{ResponseWriter: w}
	h.inner.ServeHTTP(cw, r)
	tr.end(id)
	h.bytes.Add(cw.n)
}

// countingWriter counts response bytes and keeps http.Flusher, which
// the server's NDJSON path needs.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

func (w *countingWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func statusErr(class string, resp response) error {
	return fmt.Errorf("%s: HTTP %d: %.200s", class, resp.status, resp.body)
}
