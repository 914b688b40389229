//go:build !race

// Allocation pins for the NDJSON row encoder, the point-read and
// write-batch request paths and the laid-out view.
// AllocsPerRun is meaningless under the race detector, so they run in the
// plain `Allocs` pass of `make test`.

package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"securitykg/internal/cypher"
	"securitykg/internal/graph"
)

type discardWriter struct{ io.Writer }

// rewindBody is a request body that can be read again.
type rewindBody struct{ bytes.Reader }

func (*rewindBody) Close() error { return nil }

// discardResponse is a ResponseWriter that keeps nothing but its header.
type discardResponse struct {
	hdr  http.Header
	code int
}

func (w *discardResponse) Header() http.Header         { return w.hdr }
func (w *discardResponse) WriteHeader(code int)        { w.code = code }
func (w *discardResponse) Write(p []byte) (int, error) { return len(p), nil }

// TestPointReadAllocs: a warm seek — the ledger's commonest request —
// through the /api/cypher handler, from request bytes to response bytes:
// the body is read into a pooled buffer and decoded without reflection
// straight into cypher values, the plan comes from the cache, and the
// response is appended into the same buffer. What is left is the body
// cap's reader, the decoded request's strings and map, the header value,
// a node cell's rendering and the engine's per-query state. The same
// request took 39 through json.Unmarshal and json.Encoder.
func TestPointReadAllocs(t *testing.T) {
	s := NewWith(goldenKG(), nil, cypher.DefaultOptions())
	body := []byte(`{"params":{"ioc":"10.0.1.3"},"query":"match (n {name:$ioc}) return n"}`)
	rb := &rewindBody{}
	req := httptest.NewRequest("POST", "/api/cypher", rb)
	req.ContentLength = int64(len(body))
	w := &discardResponse{hdr: http.Header{}}
	serve := func() {
		rb.Reset(body)
		req.Body = rb
		w.code = 0
		s.handleCypher(w, req)
		if w.code != 0 {
			t.Fatalf("status %d", w.code)
		}
	}
	serve()
	const maxPointReadAllocs = 22
	if allocs := testing.AllocsPerRun(200, serve); allocs > maxPointReadAllocs {
		t.Errorf("a warm seek allocates %.0f/op, want <= %d", allocs, maxPointReadAllocs)
	}
	q := goldenCases[0].query
	if allocs := testing.AllocsPerRun(100, func() { looksLikeWrite(q) }); allocs > 0 {
		t.Errorf("looksLikeWrite allocates %.0f/op", allocs)
	}
}

// TestWriteBatchAllocs: a warm 500-row $batch MERGE through the
// /api/cypher handler, 7 rows in 10 hitting an existing node. The list is
// decoded into one exact-size array and each row into one sorted field
// array, not a Go map, and the transaction borrows the store's undo maps
// and log buffer; what is left per row is the row's strings, the new
// node and its index entries, and the engine's bindings. With a Go map
// per row and fresh undo maps per transaction a row took 2253 B in 14.0
// allocations.
func TestWriteBatchAllocs(t *testing.T) {
	const rows, rounds = 500, 20
	g := graph.New()
	for i := 0; i < rows; i++ {
		if i%10 < 7 {
			g.MergeNode("IP", fmt.Sprintf("10.0.%d.%d", i/250, i%250), nil)
		}
	}
	s := NewWith(g, nil, cypher.DefaultOptions())
	bodies := make([][]byte, rounds+1)
	for r := range bodies {
		var b strings.Builder
		b.WriteString(`{"query":"UNWIND $batch AS row MERGE (i:IP {name: row.ip}) SET i.last_seen = row.seen","params":{"batch":[`)
		for i := 0; i < rows; i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			ip := fmt.Sprintf("10.0.%d.%d", i/250, i%250) // an existing node
			if i%10 >= 7 {
				ip = fmt.Sprintf("10.%d.%d.%d", r+1, i/250, i%250) // a new one
			}
			fmt.Fprintf(&b, `{"ip":%q,"seen":"2026-01-%02dT00:00:00Z"}`, ip, r%28+1)
		}
		b.WriteString(`]}}`)
		bodies[r] = []byte(b.String())
	}
	rb := &rewindBody{}
	req := httptest.NewRequest("POST", "/api/cypher", rb)
	w := &discardResponse{hdr: http.Header{}}
	serve := func(body []byte) {
		rb.Reset(body)
		req.Body = rb
		req.ContentLength = int64(len(body))
		w.code = 0
		s.handleCypher(w, req)
		if w.code != 0 {
			t.Fatalf("status %d", w.code)
		}
	}
	serve(bodies[0])
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, body := range bodies[1:] {
		serve(body)
	}
	runtime.ReadMemStats(&after)
	if n := g.CountNodes(); n != rows*7/10+(rounds+1)*rows*3/10 {
		t.Fatalf("%d nodes after %d batches", n, rounds+1)
	}
	perRow := float64(rounds * rows)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / perRow
	allocs := float64(after.Mallocs-before.Mallocs) / perRow
	const maxBytes, maxAllocs = 1300, 13.5
	if bytes > maxBytes || allocs > maxAllocs {
		t.Errorf("a warm batch row allocates %.0f B in %.1f objects, want <= %d B in <= %.1f", bytes, allocs, maxBytes, maxAllocs)
	} else {
		t.Logf("a warm batch row: %.0f B, %.2f allocs", bytes, allocs)
	}
}

// TestStreamEncodeAllocs: a warm row of string cells is escaped into the
// writer's reused buffer and handed on — no cell slice, no map, no
// reflection, no allocation.
func TestStreamEncodeAllocs(t *testing.T) {
	nw := &ndjsonWriter{w: discardWriter{io.Discard}}
	row := []cypher.Value{cypher.StringValue("c2-1234.example"), cypher.StringValue(`2021 "q" <&>`), cypher.NullValue()}
	if err := nw.row(row); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		if err := nw.row(row); err != nil {
			t.Fatal(err)
		}
	}); allocs > 0 {
		t.Errorf("encoding a warm row allocates %.1f/op, want 0", allocs)
	}
}

// TestLayoutViewAllocs: a 9-node Layout (the size of a typical
// /api/expand view) costs the engine's setup, the index map and the view
// slices, and no more.
func TestLayoutViewAllocs(t *testing.T) {
	sg := &graph.Subgraph{}
	for i := 0; i < 9; i++ {
		sg.Nodes = append(sg.Nodes, &graph.Node{ID: graph.NodeID(i + 1), Type: "IP", Name: fmt.Sprintf("10.0.0.%d", i)})
		if i > 0 {
			sg.Edges = append(sg.Edges, &graph.Edge{ID: graph.EdgeID(i), From: 1, To: graph.NodeID(i + 1), Type: "CONNECT"})
		}
	}
	const maxLayoutAllocs = 19 // 21 while every view built a quadtree
	if allocs := testing.AllocsPerRun(100, func() { Layout(sg, 1) }); allocs > maxLayoutAllocs {
		t.Errorf("9-node Layout allocates %.0f/op, want <= %d", allocs, maxLayoutAllocs)
	}
}
