package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"securitykg/internal/cypher"
	"securitykg/internal/graph"
	"securitykg/internal/search"
)

func testServer(t *testing.T) (*Server, *graph.Store, graph.NodeID) {
	t.Helper()
	store := graph.New()
	idx := search.NewIndex(nil)
	wc, _ := store.MergeNode("Malware", "wannacry", nil)
	fam, _ := store.MergeNode("MalwareFamily", "ransomware", nil)
	ip, _ := store.MergeNode("IP", "10.0.0.1", nil)
	rep, _ := store.MergeNode("MalwareReport", "r1", map[string]string{"report_id": "r1"})
	store.AddEdge(wc, "BELONG_TO", fam, nil)
	store.AddEdge(wc, "CONNECT", ip, nil)
	store.AddEdge(rep, "DESCRIBES", wc, nil)
	idx.Add(search.Document{ID: "r1", Fields: map[string]string{"title": "wannacry analysis"}})
	return New(store, idx), store, wc
}

func get(t *testing.T, s *Server, path string, out any) *http.Response {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	res := rec.Result()
	if out != nil && res.StatusCode == 200 {
		if err := json.NewDecoder(res.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", path, err)
		}
	}
	return res
}

func TestStatsEndpoint(t *testing.T) {
	s, _, _ := testServer(t)
	var st graph.Stats
	if res := get(t, s, "/api/stats", &st); res.StatusCode != 200 {
		t.Fatalf("status %d", res.StatusCode)
	}
	if st.Nodes != 4 || st.Edges != 3 {
		t.Errorf("stats: %+v", st)
	}
}

func TestSearchEndpoint(t *testing.T) {
	s, _, _ := testServer(t)
	var hits []struct {
		ID    string  `json:"id"`
		Score float64 `json:"score"`
	}
	if res := get(t, s, "/api/search?q=wannacry", &hits); res.StatusCode != 200 {
		t.Fatalf("status %d", res.StatusCode)
	}
	if len(hits) != 1 || hits[0].ID != "r1" {
		t.Errorf("hits: %+v", hits)
	}
	if res := get(t, s, "/api/search", nil); res.StatusCode != 400 {
		t.Errorf("missing q should 400, got %d", res.StatusCode)
	}
}

func TestCypherEndpoint(t *testing.T) {
	s, _, _ := testServer(t)
	body, _ := json.Marshal(map[string]string{
		"query": `match (n) where n.name = "wannacry" return n.name, n.type`,
	})
	req := httptest.NewRequest("POST", "/api/cypher", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var out struct {
		Columns []string
		Rows    [][]string
	}
	json.Unmarshal(rec.Body.Bytes(), &out)
	if len(out.Rows) != 1 || out.Rows[0][0] != "wannacry" || out.Rows[0][1] != "Malware" {
		t.Errorf("cypher result: %+v", out)
	}
	// Bad query -> 400 with error payload.
	bad, _ := json.Marshal(map[string]string{"query": "nonsense"})
	rec2 := httptest.NewRecorder()
	s.ServeHTTP(rec2, httptest.NewRequest("POST", "/api/cypher", bytes.NewReader(bad)))
	if rec2.Code != 400 {
		t.Errorf("bad query status %d", rec2.Code)
	}
	// GET not allowed.
	rec3 := httptest.NewRecorder()
	s.ServeHTTP(rec3, httptest.NewRequest("GET", "/api/cypher", nil))
	if rec3.Code != 405 {
		t.Errorf("GET cypher status %d", rec3.Code)
	}
}

func TestCypherExplainEndpoint(t *testing.T) {
	s, _, _ := testServer(t)
	body, _ := json.Marshal(map[string]any{
		"query":   `match (m:Malware)-[:CONNECT]->(ip) return ip.name limit 3`,
		"explain": true,
	})
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("POST", "/api/cypher", bytes.NewReader(body)))
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var out struct {
		Plan string `json:"plan"`
	}
	json.Unmarshal(rec.Body.Bytes(), &out)
	if !strings.Contains(out.Plan, "Expand") || !strings.Contains(out.Plan, "Limit 3") {
		t.Errorf("plan output: %q", out.Plan)
	}
	// An inline EXPLAIN statement returns plan lines as rows.
	body2, _ := json.Marshal(map[string]string{"query": `explain match (n) return n`})
	rec2 := httptest.NewRecorder()
	s.ServeHTTP(rec2, httptest.NewRequest("POST", "/api/cypher", bytes.NewReader(body2)))
	var out2 struct {
		Columns []string
		Rows    [][]string
	}
	json.Unmarshal(rec2.Body.Bytes(), &out2)
	if len(out2.Columns) != 1 || out2.Columns[0] != "plan" || len(out2.Rows) == 0 {
		t.Errorf("inline explain result: %+v", out2)
	}
}

func TestNodeEndpoint(t *testing.T) {
	s, _, wc := testServer(t)
	var out struct {
		Node      *graph.Node
		Degree    int
		Neighbors []*graph.Node
	}
	if res := get(t, s, fmt.Sprintf("/api/node?id=%d", wc), &out); res.StatusCode != 200 {
		t.Fatalf("status %d", res.StatusCode)
	}
	if out.Node.Name != "wannacry" || out.Degree != 3 || len(out.Neighbors) != 3 {
		t.Errorf("node detail: %+v", out)
	}
	if res := get(t, s, "/api/node?id=9999", nil); res.StatusCode != 404 {
		t.Errorf("missing node status %d", res.StatusCode)
	}
	if res := get(t, s, "/api/node?id=abc", nil); res.StatusCode != 400 {
		t.Errorf("bad id status %d", res.StatusCode)
	}
}

func TestExpandEndpointReturnsLayout(t *testing.T) {
	s, _, wc := testServer(t)
	var vg ViewGraph
	if res := get(t, s, fmt.Sprintf("/api/expand?id=%d", wc), &vg); res.StatusCode != 200 {
		t.Fatalf("status %d", res.StatusCode)
	}
	if len(vg.Nodes) != 4 {
		t.Fatalf("expanded nodes: %d", len(vg.Nodes))
	}
	// Positions must be laid out (not all zero) and colored by type.
	nonZero := false
	for _, n := range vg.Nodes {
		if n.X != 0 || n.Y != 0 {
			nonZero = true
		}
		if n.Color == "" {
			t.Errorf("node %s missing color", n.Name)
		}
	}
	if !nonZero {
		t.Error("layout did not assign positions")
	}
	// Distinct node types get distinct color groups.
	colors := map[string]string{}
	for _, n := range vg.Nodes {
		colors[n.Type] = n.Color
	}
	if colors["Malware"] == colors["IP"] {
		t.Error("malware and IOC share a color")
	}
}

// findNode reads the committed state through a snapshot held only for the
// read.
func findNode(s *graph.Store, typ, name string) *graph.Node {
	sn := s.Snapshot()
	defer sn.Release()
	return sn.FindNode(typ, name)
}

func TestCollapseEndpoint(t *testing.T) {
	s, store, wc := testServer(t)
	rep := findNode(store, "MalwareReport", "r1")
	fam := findNode(store, "MalwareFamily", "ransomware")
	ip := findNode(store, "IP", "10.0.0.1")
	view := fmt.Sprintf("%d,%d,%d,%d", rep.ID, wc, fam.ID, ip.ID)
	var out struct {
		Hidden []graph.NodeID `json:"hidden"`
	}
	path := fmt.Sprintf("/api/collapse?id=%d&view=%s&anchors=%d", wc, view, rep.ID)
	if res := get(t, s, path, &out); res.StatusCode != 200 {
		t.Fatalf("status %d", res.StatusCode)
	}
	if len(out.Hidden) != 2 {
		t.Errorf("collapse should hide the 2 leaves: %+v", out.Hidden)
	}
}

func TestRandomAndBackEndpoints(t *testing.T) {
	s, _, wc := testServer(t)
	var first ViewGraph
	if res := get(t, s, "/api/random?n=3&seed=7", &first); res.StatusCode != 200 {
		t.Fatalf("random status %d", res.StatusCode)
	}
	if len(first.Nodes) == 0 {
		t.Fatal("random subgraph empty")
	}
	// A second view, then back returns the first.
	var second ViewGraph
	get(t, s, fmt.Sprintf("/api/expand?id=%d", wc), &second)
	var back ViewGraph
	if res := get(t, s, "/api/back", &back); res.StatusCode != 200 {
		t.Fatalf("back status %d", res.StatusCode)
	}
	if len(back.Nodes) != len(first.Nodes) {
		t.Errorf("back returned wrong view: %d vs %d nodes", len(back.Nodes), len(first.Nodes))
	}
	// Exhausting history 404s.
	get(t, s, "/api/back", nil)
	if res := get(t, s, "/api/back", nil); res.StatusCode != 404 {
		t.Errorf("empty history should 404, got %d", res.StatusCode)
	}
}

func TestViewSizeLimit(t *testing.T) {
	s, _, wc := testServer(t)
	limit := fmt.Sprintf("exceeds the limit of %d nodes", maxViewNodes)
	for _, tc := range []struct{ path, want string }{
		{fmt.Sprintf("/api/expand?id=%d&nodes=%d", wc, maxViewNodes+1), limit},
		{fmt.Sprintf("/api/random?n=%d", maxViewNodes+1), limit},
		{"/api/random?n=100000", limit},
		// Sizes below the range are refused too, not read as a default
		// or an empty view.
		{fmt.Sprintf("/api/expand?id=%d&nodes=0", wc), "nodes=0 is below 1"},
		{fmt.Sprintf("/api/expand?id=%d&nodes=-5", wc), "nodes=-5 is below 1"},
		{"/api/random?n=0", "n=0 is below 1"},
		{"/api/random?n=-1", "n=-1 is below 1"},
		{fmt.Sprintf("/api/expand?id=%d&neighbors=0", wc), "neighbors=0 is below 1"},
		{fmt.Sprintf("/api/expand?id=%d&neighbors=-3", wc), "neighbors=-3 is below 1"},
		{fmt.Sprintf("/api/expand?id=%d&depth=-1", wc), "depth=-1 is below 0"},
		// A view parameter that does not parse is refused, not read as
		// its default.
		{fmt.Sprintf("/api/expand?id=%d&nodes=many", wc), "nodes=many is not an integer"},
		{fmt.Sprintf("/api/expand?id=%d&depth=2x", wc), "depth=2x is not an integer"},
		{fmt.Sprintf("/api/expand?id=%d&neighbors=1.5", wc), "neighbors=1.5 is not an integer"},
		{"/api/random?n=abc", "n=abc is not an integer"},
		{"/api/random?seed=0x1", "seed=0x1 is not an integer"},
	} {
		res := get(t, s, tc.path, nil)
		var body struct{ Error string }
		json.NewDecoder(res.Body).Decode(&body)
		if res.StatusCode != 400 || !strings.Contains(body.Error, tc.want) {
			t.Errorf("%s: status %d, error %q; want 400 with %q", tc.path, res.StatusCode, body.Error, tc.want)
		}
	}
	// At the limit both endpoints still answer.
	for _, path := range []string{
		fmt.Sprintf("/api/expand?id=%d&nodes=%d", wc, maxViewNodes),
		fmt.Sprintf("/api/random?n=%d", maxViewNodes),
	} {
		var vg ViewGraph
		if res := get(t, s, path, &vg); res.StatusCode != 200 || len(vg.Nodes) != 4 {
			t.Errorf("%s: status %d, %d nodes; want 200 and the test graph's 4", path, res.StatusCode, len(vg.Nodes))
		}
	}
	// So do the smallest sizes an expand takes.
	for path, nodes := range map[string]int{
		fmt.Sprintf("/api/expand?id=%d&depth=0", wc):             1,
		fmt.Sprintf("/api/expand?id=%d&nodes=1", wc):             1,
		fmt.Sprintf("/api/expand?id=%d&neighbors=1&depth=1", wc): 2,
		"/api/random?n=1": 1,
	} {
		var vg ViewGraph
		if res := get(t, s, path, &vg); res.StatusCode != 200 || len(vg.Nodes) != nodes {
			t.Errorf("%s: status %d, %d nodes; want 200 and %d", path, res.StatusCode, len(vg.Nodes), nodes)
		}
	}
}

func TestSearchSizeLimit(t *testing.T) {
	s, _, _ := testServer(t)
	limit := fmt.Sprintf("is outside 1..%d hits", maxSearchHits)
	for _, tc := range []struct{ k, want string }{
		{"0", limit},
		{"-1", limit},
		{fmt.Sprint(maxSearchHits + 1), limit},
		// A k that does not parse is refused too, not read as the default.
		{"abc", "k=abc is not an integer"},
		{"10x", "k=10x is not an integer"},
	} {
		path := "/api/search?q=wannacry&k=" + tc.k
		res := get(t, s, path, nil)
		var body struct{ Error string }
		json.NewDecoder(res.Body).Decode(&body)
		if res.StatusCode != 400 || !strings.Contains(body.Error, tc.want) {
			t.Errorf("%s: status %d, error %q; want 400 with %q", path, res.StatusCode, body.Error, tc.want)
		}
	}
	// At the limit the endpoint still answers.
	for _, k := range []int{1, maxSearchHits} {
		path := fmt.Sprintf("/api/search?q=wannacry&k=%d", k)
		var hits []map[string]any
		if res := get(t, s, path, &hits); res.StatusCode != 200 || len(hits) == 0 {
			t.Errorf("%s: status %d, %d hits; want 200 and a hit", path, res.StatusCode, len(hits))
		}
	}
}

func TestRandomDeterministicPerSeed(t *testing.T) {
	s, _, _ := testServer(t)
	var a, b ViewGraph
	get(t, s, "/api/random?n=3&seed=9", &a)
	get(t, s, "/api/random?n=3&seed=9", &b)
	if len(a.Nodes) != len(b.Nodes) {
		t.Fatal("same seed different sizes")
	}
	for i := range a.Nodes {
		if a.Nodes[i].ID != b.Nodes[i].ID {
			t.Fatal("same seed different subgraph")
		}
	}
}

// postCypher posts a query and decodes the result payload.
func postCypher(t *testing.T, s *Server, payload map[string]any) (*httptest.ResponseRecorder, struct {
	Columns []string
	Rows    [][]string
	Error   string
}) {
	t.Helper()
	body, _ := json.Marshal(payload)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("POST", "/api/cypher", bytes.NewReader(body)))
	var out struct {
		Columns []string
		Rows    [][]string
		Error   string
	}
	json.Unmarshal(rec.Body.Bytes(), &out)
	return rec, out
}

func TestCypherErrorPaths(t *testing.T) {
	s, _, _ := testServer(t)
	cases := []struct {
		name  string
		query string
	}{
		{"lex error", `match (n) where n.name = "unterminated return n`},
		{"parse error", `match (n)-[r->(m) return n`},
		{"missing return", `match (n) where n.name = "x"`},
		{"var-length binds var", `match (a)-[r:T*1..3]->(b) return a`},
		{"empty hop range", `match (a)-[:T*3..1]->(b) return a`},
		{"order-by under distinct", `match (n) return distinct n.name order by n.type`},
		{"with after return", `match (n) return n with n`},
	}
	for _, c := range cases {
		rec, out := postCypher(t, s, map[string]any{"query": c.query})
		if rec.Code != 400 {
			t.Errorf("%s: status %d, want 400 (%s)", c.name, rec.Code, rec.Body.String())
		}
		if out.Error == "" {
			t.Errorf("%s: missing error payload: %s", c.name, rec.Body.String())
		}
	}
	// Malformed body (not JSON) is a 400 too.
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("POST", "/api/cypher", strings.NewReader("{not json")))
	if rec.Code != 400 {
		t.Errorf("malformed body status %d", rec.Code)
	}
	// Explain of an invalid query reports the error instead of a plan.
	rec2, out2 := postCypher(t, s, map[string]any{"query": "nope", "explain": true})
	if rec2.Code != 400 || out2.Error == "" {
		t.Errorf("explain of bad query: status %d body %s", rec2.Code, rec2.Body.String())
	}
	// Explain of a transaction-control statement names what is wrong.
	rec3, out3 := postCypher(t, s, map[string]any{"query": "BEGIN", "explain": true})
	if rec3.Code != 400 || !strings.Contains(out3.Error, "transaction-control") {
		t.Errorf("explain of BEGIN: status %d body %s", rec3.Code, rec3.Body.String())
	}
}

// filler is an endless run of one byte: a request body of any length
// that costs the client no memory.
type filler byte

func (f filler) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(f)
	}
	return len(p), nil
}

// TestCypherBodyCap: a request body one byte past maxRequestBody is
// refused with 413 once the cap has been read, and the server goes on
// answering.
func TestCypherBodyCap(t *testing.T) {
	s, _, _ := testServer(t)
	ts := httptest.NewServer(s)
	defer ts.Close()
	head := `{"query": "`
	body := io.MultiReader(strings.NewReader(head), io.LimitReader(filler('x'), maxRequestBody+1-int64(len(head))))
	req, err := http.NewRequest("POST", ts.URL+"/api/cypher", body)
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = maxRequestBody + 1
	res, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("cap+1 body: status %d (%s), want 413", res.StatusCode, msg)
	}
	res, err = ts.Client().Post(ts.URL+"/api/cypher", "application/json",
		strings.NewReader(`{"query": "match (n:Malware) return n.name"}`))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ = io.ReadAll(res.Body)
	res.Body.Close()
	if res.StatusCode != 200 || !strings.Contains(string(msg), "wannacry") {
		t.Fatalf("request after the refused one: status %d body %s", res.StatusCode, msg)
	}
}

func TestCypherMaterializedBudgetError(t *testing.T) {
	// A materialized statement over the byte budget fails whole: 400 with
	// the budget message and none of the rows that fit before it tripped.
	store := graph.New()
	for i := 0; i < 5000; i++ {
		store.MergeNode("T", fmt.Sprintf("some-quite-long-node-name-%d", i), nil)
	}
	s := NewWith(store, search.NewIndex(nil), cypher.Options{UseIndexes: true, MaxBytes: 16 << 10})
	rec, _ := postCypher(t, s, map[string]any{"query": `match (n) return n.name`})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", rec.Code, rec.Body.String())
	}
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("body %q: %v", rec.Body.String(), err)
	}
	msg, ok := body["error"].(string)
	if len(body) != 1 || !ok || !strings.Contains(msg, "byte budget") {
		t.Errorf("body %s, want only a byte-budget error", rec.Body.String())
	}
}

func TestCypherExplainNewOperators(t *testing.T) {
	store := graph.New()
	x, _ := store.MergeNode("Malware", "X", nil)
	tl, _ := store.MergeNode("Tool", "t1", nil)
	store.AddEdge(x, "uses", tl, nil)
	s := New(store, search.NewIndex(nil))
	body, _ := json.Marshal(map[string]any{
		"query": `match (m:Malware {name:"X"})-[:uses*1..3]->(b)
			optional match (b)-[:uses]->(c)
			with b, collect(c.name) as deps
			return b.name, deps`,
		"explain": true,
	})
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("POST", "/api/cypher", bytes.NewReader(body)))
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var out struct {
		Plan string `json:"plan"`
	}
	json.Unmarshal(rec.Body.Bytes(), &out)
	for _, want := range []string{"VarExpand", "[:uses*1..3]", "Optional", "With (aggregating)"} {
		if !strings.Contains(out.Plan, want) {
			t.Errorf("plan missing %q:\n%s", want, out.Plan)
		}
	}
	// The new forms also execute through the endpoint, list rendering included.
	rec2, res := postCypher(t, s, map[string]any{
		"query": `match (m:Malware) optional match (m)-[:uses*1..2]->(b) with m, collect(b.name) as bs return m.name, bs`,
	})
	if rec2.Code != 200 || len(res.Rows) != 1 || res.Rows[0][1] != "[t1]" {
		t.Errorf("var-length via endpoint: status=%d rows=%+v", rec2.Code, res.Rows)
	}
}

func TestCypherParams(t *testing.T) {
	// Values bind via "params" instead of being spliced into the text.
	s, _, _ := testServer(t)
	rec, out := postCypher(t, s, map[string]any{
		"query":  `match (m {name: $ioc})-[r]-(x) return type(r), x.name order by x.name`,
		"params": map[string]any{"ioc": "wannacry"},
	})
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if len(out.Rows) != 3 {
		t.Fatalf("rows: %v", out.Rows)
	}
	// A hostile value binds literally: no syntax leaks into the query.
	rec, out = postCypher(t, s, map[string]any{
		"query":  `match (m {name: $ioc}) return m.name`,
		"params": map[string]any{"ioc": `x" return m //`},
	})
	if rec.Code != 200 || len(out.Rows) != 0 {
		t.Errorf("hostile binding: status=%d rows=%v", rec.Code, out.Rows)
	}
	// A missing binding is a 400 with the parameter named.
	rec, out = postCypher(t, s, map[string]any{
		"query": `match (m {name: $ioc}) return m.name`,
	})
	if rec.Code != 400 || !strings.Contains(out.Error, "$ioc") {
		t.Errorf("missing param: status=%d error=%q", rec.Code, out.Error)
	}
}

// ndjsonLines posts a streaming cypher request and decodes each NDJSON
// line into a generic map.
func ndjsonLines(t *testing.T, s *Server, payload map[string]any) (*httptest.ResponseRecorder, []map[string]any) {
	t.Helper()
	body, _ := json.Marshal(payload)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("POST", "/api/cypher", bytes.NewReader(body)))
	var lines []map[string]any
	for _, ln := range strings.Split(strings.TrimSpace(rec.Body.String()), "\n") {
		if ln == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", ln, err)
		}
		lines = append(lines, m)
	}
	return rec, lines
}

func TestCypherStreamNDJSON(t *testing.T) {
	s, _, _ := testServer(t)
	rec, lines := ndjsonLines(t, s, map[string]any{
		"query":  `match (m {name: $ioc})-[r]-(x) return x.name order by x.name`,
		"params": map[string]any{"ioc": "wannacry"},
		"stream": true,
	})
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}
	if len(lines) != 5 { // columns + 3 rows + done
		t.Fatalf("lines: %v", lines)
	}
	if cols, ok := lines[0]["columns"].([]any); !ok || len(cols) != 1 {
		t.Errorf("header line: %v", lines[0])
	}
	var names []string
	for _, ln := range lines[1:4] {
		row, ok := ln["row"].([]any)
		if !ok || len(row) != 1 {
			t.Fatalf("row line: %v", ln)
		}
		names = append(names, row[0].(string))
	}
	if names[0] != "10.0.0.1" || names[1] != "r1" || names[2] != "ransomware" {
		t.Errorf("streamed rows: %v", names)
	}
	if done, ok := lines[4]["done"].(float64); !ok || done != 3 {
		t.Errorf("trailer: %v", lines[4])
	}
	// A bad query fails before any bytes stream: plain 400 JSON error.
	rec, _ = ndjsonLines(t, s, map[string]any{"query": `match (n`, "stream": true})
	if rec.Code != 400 {
		t.Errorf("bad query stream status %d", rec.Code)
	}
}

func TestCypherStreamBudgetErrorTrailer(t *testing.T) {
	// A mid-stream failure (byte budget) surfaces as an {"error": ...}
	// trailer after the rows that did fit — not a silent cut.
	store := graph.New()
	for i := 0; i < 5000; i++ {
		store.MergeNode("T", fmt.Sprintf("some-quite-long-node-name-%d", i), nil)
	}
	s := NewWith(store, search.NewIndex(nil), cypher.Options{UseIndexes: true, MaxBytes: 16 << 10})
	rec, lines := ndjsonLines(t, s, map[string]any{
		"query":  `match (n) return n.name`,
		"stream": true,
	})
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	last := lines[len(lines)-1]
	errMsg, ok := last["error"].(string)
	if !ok || !strings.Contains(errMsg, "byte budget") {
		t.Errorf("want budget error trailer, got %v", last)
	}
	if len(lines) < 3 {
		t.Errorf("no rows streamed before the budget tripped: %v", lines)
	}
}

func TestCypherStreamStopsOnClientGone(t *testing.T) {
	// A canceled request context stops the stream instead of driving the
	// cursor to exhaustion on behalf of a client that went away.
	store := graph.New()
	for i := 0; i < 1000; i++ {
		store.MergeNode("T", fmt.Sprintf("n%d", i), nil)
	}
	s := New(store, search.NewIndex(nil))
	body, _ := json.Marshal(map[string]any{"query": `match (n) return n.name`, "stream": true})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest("POST", "/api/cypher", bytes.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	if len(lines) > 2 {
		t.Errorf("canceled stream still wrote %d lines", len(lines))
	}
	if strings.Contains(rec.Body.String(), `"done"`) {
		t.Error("canceled stream reached the done trailer")
	}
}

// TestCypherStreamWriteRollsBackOnClientGone: a streamed write whose
// client has gone before the first row is rolled back, not committed:
// the stopped drain ends the statement with an error, so the body holds
// no done trailer and no read-your-writes seq, and the store is as it
// was.
func TestCypherStreamWriteRollsBackOnClientGone(t *testing.T) {
	store := graph.New()
	store.MergeNode("T", "n0", nil)
	s := New(store, search.NewIndex(nil))
	body, _ := json.Marshal(map[string]any{
		"query":  `unwind $names as n create (h:Host {name: n}) return h.name`,
		"params": map[string]any{"names": []string{"h1", "h2", "h3"}},
		"stream": true,
	})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest("POST", "/api/cypher", bytes.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if got := rec.Body.String(); strings.Contains(got, `"done"`) || strings.Contains(got, `"seq"`) {
		t.Errorf("canceled write stream reported a commit: %s", got)
	}
	if n := store.Stats().Nodes; n != 1 {
		t.Errorf("%d nodes after the canceled write, want 1: the statement committed", n)
	}
	if findNode(store, "Host", "h1") != nil {
		t.Error("a Host node of the canceled write is in the store")
	}
	if st := store.MVCCStats(); st != (graph.MVCCStats{}) {
		t.Errorf("MVCC overlay after the canceled write: %+v", st)
	}
}

// TestCypherWriteEndpoint: /api/cypher accepts write statements, the
// store actually mutates, and the response carries the write counters.
func TestCypherWriteEndpoint(t *testing.T) {
	s, store, _ := testServer(t)
	body, _ := json.Marshal(map[string]any{
		"query":  `merge (m:Malware {name: $ioc}) set m.triaged = "yes"`,
		"params": map[string]any{"ioc": "petya"},
	})
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("POST", "/api/cypher", bytes.NewReader(body)))
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var out struct {
		Columns []string
		Writes  *cypher.WriteStats
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Writes == nil || out.Writes.NodesCreated != 1 || out.Writes.PropsSet != 1 {
		t.Fatalf("writes: %+v", out.Writes)
	}
	n := findNode(store, "Malware", "petya")
	if n == nil || n.Attrs.Get("triaged") != "yes" {
		t.Fatalf("mutation did not reach the store: %+v", n)
	}
	// Read-back through the same endpoint.
	_, res := postCypher(t, s, map[string]any{
		"query":  `match (m:Malware {name: $ioc}) return m.triaged`,
		"params": map[string]any{"ioc": "petya"},
	})
	if len(res.Rows) != 1 || res.Rows[0][0] != "yes" {
		t.Fatalf("read-back: %+v", res.Rows)
	}
}

// TestCypherWriteStreamTrailer: the NDJSON trailer of a streamed write
// statement carries the write counters.
func TestCypherWriteStreamTrailer(t *testing.T) {
	s, _, _ := testServer(t)
	_, lines := ndjsonLines(t, s, map[string]any{
		"query":  `match (m:Malware {name: "wannacry"}) set m.mark = "1" return m.name`,
		"stream": true,
	})
	last := lines[len(lines)-1]
	if _, ok := last["done"]; !ok {
		t.Fatalf("missing done trailer: %v", last)
	}
	ws, ok := last["writes"].(map[string]any)
	if !ok {
		t.Fatalf("missing writes in trailer: %v", last)
	}
	if ws["props_set"].(float64) != 1 {
		t.Fatalf("trailer writes: %v", ws)
	}
}

// TestCypherReadOnlyServer: a server built with ReadOnly options
// (skg-server -read-only, and every replica) rejects write statements
// and still reads.
func TestCypherReadOnlyServer(t *testing.T) {
	store := graph.New()
	store.MergeNode("Malware", "wannacry", nil)
	opts := cypher.DefaultOptions()
	opts.ReadOnly = true
	s := NewWith(store, search.NewIndex(nil), opts)
	rec, out := postCypher(t, s, map[string]any{"query": `create (x:T {name: "nope"})`})
	if rec.Code != 400 || !strings.Contains(out.Error, "read-only") {
		t.Fatalf("write on read-only server: code=%d out=%+v", rec.Code, out)
	}
	if store.CountNodes() != 1 {
		t.Fatal("read-only server mutated the store")
	}
	_, out = postCypher(t, s, map[string]any{"query": `match (n) return n.name`})
	if len(out.Rows) != 1 {
		t.Fatalf("read on read-only server: %+v", out)
	}
}

// TestCypherTxSession drives a multi-statement transaction over the
// API: BEGIN returns a token, statements carrying it see their own
// uncommitted writes while plain requests do not, COMMIT publishes
// atomically and invalidates the token.
func TestCypherTxSession(t *testing.T) {
	s, store, _ := testServer(t)

	// BEGIN -> {"tx": token}.
	body, _ := json.Marshal(map[string]any{"query": "BEGIN"})
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("POST", "/api/cypher", bytes.NewReader(body)))
	if rec.Code != 200 {
		t.Fatalf("BEGIN status %d: %s", rec.Code, rec.Body.String())
	}
	var begin struct{ Tx string }
	if err := json.Unmarshal(rec.Body.Bytes(), &begin); err != nil || begin.Tx == "" {
		t.Fatalf("BEGIN response %s (err %v)", rec.Body.String(), err)
	}

	// A write inside the session...
	if rec, _ := postCypher(t, s, map[string]any{
		"tx":    begin.Tx,
		"query": `merge (m:Malware {name: "intx"}) set m.stage = "draft"`,
	}); rec.Code != 200 {
		t.Fatalf("tx write status %d: %s", rec.Code, rec.Body.String())
	}
	// ...is visible to the session...
	if _, res := postCypher(t, s, map[string]any{
		"tx":    begin.Tx,
		"query": `match (m:Malware {name: "intx"}) return m.stage`,
	}); len(res.Rows) != 1 || res.Rows[0][0] != "draft" {
		t.Fatalf("own write invisible inside tx: %+v", res.Rows)
	}
	// ...but not to plain requests, which pin their own committed
	// snapshot.
	if _, res := postCypher(t, s, map[string]any{
		"query": `match (m:Malware {name: "intx"}) return m.stage`,
	}); len(res.Rows) != 0 {
		t.Fatalf("uncommitted write leaked outside the session: %+v", res.Rows)
	}

	// COMMIT publishes and ends the session.
	if rec, _ := postCypher(t, s, map[string]any{"tx": begin.Tx, "query": "COMMIT"}); rec.Code != 200 {
		t.Fatalf("COMMIT status %d: %s", rec.Code, rec.Body.String())
	}
	if n := findNode(store, "Malware", "intx"); n == nil || n.Attrs.Get("stage") != "draft" {
		t.Fatalf("committed write missing from the store: %+v", n)
	}
	if rec, _ := postCypher(t, s, map[string]any{
		"tx":    begin.Tx,
		"query": `match (m) return count(m)`,
	}); rec.Code != http.StatusBadRequest {
		t.Fatalf("finished token still accepted: status %d", rec.Code)
	}
}

// TestCypherTxSessionErrors covers the refusal paths: unknown tokens,
// COMMIT with no session, and rollback discarding the session's writes.
func TestCypherTxSessionErrors(t *testing.T) {
	s, store, _ := testServer(t)

	if rec, _ := postCypher(t, s, map[string]any{
		"tx":    "deadbeef",
		"query": `match (m) return count(m)`,
	}); rec.Code != http.StatusBadRequest {
		t.Fatalf("unknown token: status %d", rec.Code)
	}
	if rec, _ := postCypher(t, s, map[string]any{"query": "COMMIT"}); rec.Code != http.StatusBadRequest {
		t.Fatalf("bare COMMIT: status %d, want 400", rec.Code)
	}

	body, _ := json.Marshal(map[string]any{"query": "begin transaction"})
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("POST", "/api/cypher", bytes.NewReader(body)))
	var begin struct{ Tx string }
	json.Unmarshal(rec.Body.Bytes(), &begin)
	if begin.Tx == "" {
		t.Fatalf("begin transaction: %s", rec.Body.String())
	}
	postCypher(t, s, map[string]any{"tx": begin.Tx, "query": `create (m:Malware {name: "ghost"})`})
	if rec, _ := postCypher(t, s, map[string]any{"tx": begin.Tx, "query": "ROLLBACK"}); rec.Code != 200 {
		t.Fatalf("ROLLBACK status %d: %s", rec.Code, rec.Body.String())
	}
	if findNode(store, "Malware", "ghost") != nil {
		t.Fatal("rolled-back write reached the store")
	}
}

// TestCypherTxSessionStream: NDJSON streaming works inside a session
// and sees the session's uncommitted writes.
func TestCypherTxSessionStream(t *testing.T) {
	s, _, _ := testServer(t)
	body, _ := json.Marshal(map[string]any{"query": "BEGIN"})
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("POST", "/api/cypher", bytes.NewReader(body)))
	var begin struct{ Tx string }
	json.Unmarshal(rec.Body.Bytes(), &begin)
	if begin.Tx == "" {
		t.Fatalf("BEGIN: %s", rec.Body.String())
	}
	postCypher(t, s, map[string]any{"tx": begin.Tx, "query": `create (m:Malware {name: "streamed"})`})

	body, _ = json.Marshal(map[string]any{
		"tx":     begin.Tx,
		"stream": true,
		"query":  `match (m:Malware {name: "streamed"}) return m.name`,
	})
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("POST", "/api/cypher", bytes.NewReader(body)))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "streamed") {
		t.Fatalf("tx stream status %d: %s", rec.Code, rec.Body.String())
	}
	// A malformed statement inside the stream path reports 400.
	body, _ = json.Marshal(map[string]any{"tx": begin.Tx, "stream": true, "query": `match (`})
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("POST", "/api/cypher", bytes.NewReader(body)))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("tx stream parse error: status %d", rec.Code)
	}
	postCypher(t, s, map[string]any{"tx": begin.Tx, "query": "ROLLBACK"})
}

// TestCypherSeqWhereWriteLanded pins where /api/cypher hands out the
// read-your-writes token: on an autocommit write, streamed or not, and
// on COMMIT; never on a read, nor on a statement inside a session, whose
// writes reach the WAL only with its COMMIT.
func TestCypherSeqWhereWriteLanded(t *testing.T) {
	s, _, _ := testServer(t)
	s.SetReplication(Replication{Role: "primary", Seq: func() uint64 { return 7 }})
	post := func(payload map[string]any) string {
		t.Helper()
		body, _ := json.Marshal(payload)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("POST", "/api/cypher", bytes.NewReader(body)))
		if rec.Code != 200 {
			t.Fatalf("%v: status %d: %s", payload, rec.Code, rec.Body.String())
		}
		return rec.Body.String()
	}
	begin := post(map[string]any{"query": "BEGIN"})
	var tx struct{ Tx string }
	json.Unmarshal([]byte(begin), &tx)
	for _, c := range []struct {
		payload map[string]any
		seq     bool
	}{
		{map[string]any{"query": `match (m:Malware) return m.name`}, false},
		{map[string]any{"query": `match (m:Malware) return m.name`, "stream": true}, false},
		{map[string]any{"query": `create (m:Malware {name: "a1"})`}, true},
		{map[string]any{"query": `create (m:Malware {name: "a2"})`, "stream": true}, true},
		{map[string]any{"tx": tx.Tx, "query": `create (m:Malware {name: "t1"})`}, false},
		{map[string]any{"tx": tx.Tx, "query": `create (m:Malware {name: "t2"}) return m.name`, "stream": true}, false},
		{map[string]any{"tx": tx.Tx, "query": "COMMIT", "stream": true}, true},
	} {
		if body := post(c.payload); strings.Contains(body, `"seq":7`) != c.seq {
			t.Errorf("%v: body %s; want seq %v", c.payload, body, c.seq)
		}
	}
}

// TestTxSessionCapAndSweep exercises the session limit and the idle
// reaper directly against the session table.
func TestTxSessionCapAndSweep(t *testing.T) {
	s, _, _ := testServer(t)
	tokens := make([]string, 0, txSessionMax)
	for i := 0; i < txSessionMax; i++ {
		tok, err := s.beginTxSession()
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		tokens = append(tokens, tok)
	}
	if _, err := s.beginTxSession(); err == nil {
		t.Fatalf("session %d opened past the cap", txSessionMax+1)
	}
	// Pretend every session has been idle past the deadline: the sweep
	// rolls them back and frees the table.
	s.txMu.Lock()
	for _, sess := range s.txs {
		sess.last = time.Now().Add(-2 * txSessionIdle)
	}
	s.sweepTxLocked(time.Now())
	left := len(s.txs)
	s.txMu.Unlock()
	if left != 0 {
		t.Fatalf("%d sessions survived the idle sweep", left)
	}
	if sess := s.lookupTx(tokens[0]); sess != nil {
		t.Fatal("swept token still resolves")
	}
	// The cap has room again.
	tok, err := s.beginTxSession()
	if err != nil {
		t.Fatalf("begin after sweep: %v", err)
	}
	if sess := s.lookupTx(tok); sess == nil {
		t.Fatal("fresh token does not resolve")
	} else {
		sess.tx.Rollback()
		s.dropTx(tok)
	}
}
