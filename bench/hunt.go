package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync"
	"time"

	"securitykg/internal/cypher"
	"securitykg/internal/graph"
	"securitykg/internal/search"
	"securitykg/internal/server"
)

// hunt is hunt-point and hunt-scan: two readers against a read-only
// in-process server over kg-100k. The two differ only in the request
// generator (scan=false: the point mix; scan=true: five heavy classes).
type hunt struct {
	name string
	scan bool
	seed int64
	size kgSize

	store *graph.Store
	index *search.Index
	model *kgModel
	seam  *seamHandler
	ts    *httptest.Server
	conns [clients]*conn
	gens  [clients]*reqGen
	chk   *checker
}

func newHunt(name string, seed int64, size kgSize) *hunt {
	return &hunt{name: name, scan: name == "hunt-scan", seed: seed, size: size}
}

func (h *hunt) setup() error {
	h.store = graph.New()
	h.index = search.NewIndex(map[string]float64{"title": 2.0})
	m, err := buildKG(h.seed, h.size, h.store, h.index)
	if err != nil {
		return err
	}
	h.model = m
	opts := cypher.DefaultOptions()
	opts.ReadOnly = true
	h.seam = &seamHandler{inner: server.NewWith(h.store, h.index, opts)}
	h.ts = httptest.NewServer(h.seam)
	for c := range h.conns {
		h.conns[c] = newConn()
		h.gens[c] = newReqGen(m, h.seed, c, h.scan)
	}
	h.chk = newChecker(m, h.store, h.index)
	if h.scan {
		// The join class is only a hash-join benchmark while the planner
		// picks one; a plan change must fail loudly, not silently measure
		// something else.
		plan, err := cypher.NewEngine(h.store, opts).Explain(qJoin)
		if err != nil {
			return err
		}
		if !strings.Contains(plan, "HashJoin") {
			return fmt.Errorf("join class no longer plans a hash join:\n%s", plan)
		}
	}
	return nil
}

func (h *hunt) teardown() {
	for _, c := range h.conns {
		if c != nil {
			c.close()
		}
	}
	if h.ts != nil {
		h.ts.Close()
	}
	*h = hunt{name: h.name, scan: h.scan, seed: h.seed, size: h.size}
}

// readLoop is one closed-loop reader: next request, send, read, check,
// until the deadline. It is shared with ingest-under-hunt's hunter.
func readLoop(c *conn, base string, g *reqGen, chk *checker, deadline time.Time, tr *tracer, client int, out *driveStats) {
	for n := 0; time.Now().Before(deadline); n++ {
		r := g.next()
		ref, id := "", 0
		if tr != nil {
			ref = fmt.Sprintf("c%d-%d", client, n)
			id = tr.begin("client.request."+r.class, ref, 0)
		}
		resp, err := c.do(base, r, id, ref)
		tr.end(id)
		out.mu.Lock()
		out.attempted++
		out.perClass[r.class]++
		if err == nil {
			out.reads.add(resp.total)
			if r.stream && resp.firstRow > 0 {
				out.firstRow.add(resp.firstRow)
			}
		}
		out.noteStatus(resp.status)
		out.mu.Unlock()
		if err == nil {
			err = chk.verify(r, resp)
		}
		if err != nil {
			out.fail(err)
		}
	}
}

func (h *hunt) drive(dur time.Duration, tr *tracer) (*driveStats, error) {
	out := newDriveStats()
	h.seam.tr.Store(tr)
	h.seam.bytes.Store(0)
	h.chk.resetFirst()
	cache0 := h.chk.eng.PlanCacheStats()
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			readLoop(h.conns[c], h.ts.URL, h.gens[c], h.chk, deadline, tr, c, out)
		}(c)
	}
	wg.Wait()
	out.wall = time.Since(start)
	h.seam.tr.Store(nil)
	out.bytesOut = h.seam.bytes.Load()
	cache1 := h.chk.eng.PlanCacheStats()
	out.planHits, out.planMisses = cache1.Hits-cache0.Hits, cache1.Misses-cache0.Misses
	out.throughput = float64(out.reads.count()) / out.wall.Seconds()
	out.headline = &out.reads
	out.extra["e2e.read_qps"] = out.throughput
	out.extra["e2e.read_p50_ms"] = out.reads.percentileMs(50)
	if out.firstRow.count() > 0 {
		out.extra["e2e.first_row_ms"] = out.firstRow.percentileMs(50)
	}
	return out, nil
}

func (h *hunt) check() []string {
	var bad []string
	if mv := h.store.MVCCStats(); mv != (graph.MVCCStats{}) {
		bad = append(bad, fmt.Sprintf("MVCC state not purged after the run: %+v", mv))
	}
	return bad
}

func (h *hunt) streamHash() string { return requestStreamHash(h.model, h.seed, h.scan, 2000) }

// --- response checking ---

// checker holds what a response must equal. Point classes are predicted
// by the KG generator's model on every response; the heavy classes,
// search and expand are compared with a direct call into the package the
// server fronts once per class per run (the first response), after which
// only the row count per binding is held.
type checker struct {
	m     *kgModel
	store *graph.Store
	index *search.Index
	eng   *cypher.Engine

	mu        sync.Mutex
	firstDone map[string]bool
	rowCount  map[string]int // class/key -> rows the first verified response had
}

func newChecker(m *kgModel, st *graph.Store, ix *search.Index) *checker {
	opts := cypher.DefaultOptions()
	opts.ReadOnly = true
	c := &checker{m: m, store: st, index: ix, eng: cypher.NewEngine(st, opts)}
	c.resetFirst()
	return c
}

func (c *checker) resetFirst() {
	c.mu.Lock()
	c.firstDone = map[string]bool{}
	c.rowCount = map[string]int{}
	c.mu.Unlock()
}

// first reports whether this is the first response of its class.
func (c *checker) first(class string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.firstDone[class] {
		return false
	}
	c.firstDone[class] = true
	return true
}

func rowsOf(body []byte) ([][]string, error) {
	var out struct {
		Rows  [][]string `json:"rows"`
		Error string     `json:"error"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return nil, fmt.Errorf("undecodable body: %v", err)
	}
	if out.Error != "" {
		return nil, fmt.Errorf("error body: %s", out.Error)
	}
	return out.Rows, nil
}

func sameRowSet(got [][]string, want [][]string) bool {
	key := func(rows [][]string) []string {
		out := make([]string, len(rows))
		for i, r := range rows {
			out[i] = strings.Join(r, "\x00")
		}
		sort.Strings(out)
		return out
	}
	return reflect.DeepEqual(key(got), key(want))
}

func (c *checker) direct(r *request) ([][]string, error) {
	q, params := cypherText(c.m, r)
	res, err := c.eng.Query(q, params)
	if err != nil {
		return nil, err
	}
	rows := make([][]string, len(res.Rows))
	for i, row := range res.Rows {
		rows[i] = make([]string, len(row))
		for j, v := range row {
			rows[i][j] = v.String()
		}
	}
	return rows, nil
}

func (c *checker) verify(r *request, resp response) error {
	if resp.status != http.StatusOK {
		return statusErr(r.class, resp)
	}
	m := c.m
	var rows [][]string
	if r.body != nil && !r.stream { // a Cypher class answered in one JSON object
		var err error
		if rows, err = rowsOf(resp.body); err != nil {
			return fmt.Errorf("%s: %v", r.class, err)
		}
	}
	switch r.class {
	case "seek", "literal":
		want := fmt.Sprintf("(:%s {name: %q})", m.iocLabel[r.key], m.iocs[r.key])
		if len(rows) != 1 || len(rows[0]) != 1 || rows[0][0] != want {
			return fmt.Errorf("%s %q: got %v, model says [[%s]]", r.class, m.iocs[r.key], rows, want)
		}
	case "hop1":
		in := m.connectIn[int32(r.key)]
		if len(rows) != len(in) {
			return fmt.Errorf("hop1 %q: %d rows, model says %d", m.iocs[r.key], len(rows), len(in))
		}
		if c.first("hop1") {
			want := make([][]string, len(in))
			for i, mw := range in {
				want[i] = []string{m.malware[mw]}
			}
			if !sameRowSet(rows, want) {
				return fmt.Errorf("hop1 %q: row set differs from the model's", m.iocs[r.key])
			}
		}
	case "hop2":
		ips := m.connectedIPs(r.key)
		want := min(hop2Limit, len(m.describedBy[r.key])*len(ips))
		if len(rows) != want {
			return fmt.Errorf("hop2 %q: %d rows, model says %d", m.malware[r.key], len(rows), want)
		}
		if c.first("hop2") {
			reports, ipSet := map[string]bool{}, map[string]bool{}
			for _, rr := range m.describedBy[r.key] {
				reports[m.reports[rr]] = true
			}
			for _, ip := range ips {
				ipSet[ip] = true
			}
			for _, row := range rows {
				if len(row) != 2 || !reports[row[0]] || !ipSet[row[1]] {
					return fmt.Errorf("hop2 %q: row %v is not in the model's product", m.malware[r.key], row)
				}
			}
		}
	case "agg", "varlen", "join", "topk":
		if c.first(r.class) {
			if err := c.againstDirect(r, rows, true); err != nil {
				return err
			}
		}
		return c.sameCount(r, len(rows))
	case "stream":
		// A columns line, one line per row, a trailer.
		body := bytes.TrimSpace(resp.body)
		last := body[bytes.LastIndexByte(body, '\n')+1:]
		rowLines := bytes.Count(body, []byte("\n")) - 1
		var trailer struct {
			Done  *int   `json:"done"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal(last, &trailer); err != nil || trailer.Done == nil {
			return fmt.Errorf("stream: bad trailer %.100s (%v)", last, trailer.Error)
		}
		if *trailer.Done != rowLines {
			return fmt.Errorf("stream: trailer says %d rows, body has %d row lines", *trailer.Done, rowLines)
		}
		if c.first("stream") {
			lines := bytes.Split(body, []byte("\n"))
			rows := make([][]string, 0, rowLines)
			for _, ln := range lines[1 : len(lines)-1] {
				var row struct {
					Row []string `json:"row"`
				}
				if err := json.Unmarshal(ln, &row); err != nil {
					return fmt.Errorf("stream: bad row line %.100s", ln)
				}
				rows = append(rows, row.Row)
			}
			if err := c.againstDirect(r, rows, false); err != nil {
				return err
			}
		}
		return c.sameCount(r, *trailer.Done)
	case "search":
		if !c.first("search") {
			return nil
		}
		var got []struct {
			ID    string  `json:"id"`
			Score float64 `json:"score"`
		}
		if err := json.Unmarshal(resp.body, &got); err != nil {
			return fmt.Errorf("search: %v", err)
		}
		want := c.index.Search(m.malware[r.key], searchTopK)
		if len(got) != len(want) {
			return fmt.Errorf("search %q: %d hits, index says %d", m.malware[r.key], len(got), len(want))
		}
		for i := range got {
			if got[i].ID != want[i].ID {
				return fmt.Errorf("search %q: hit %d is %s, index says %s", m.malware[r.key], i, got[i].ID, want[i].ID)
			}
		}
	case "expand":
		if !c.first("expand") {
			return nil
		}
		var got struct {
			Nodes []struct {
				ID graph.NodeID `json:"id"`
			} `json:"nodes"`
			Edges []json.RawMessage `json:"edges"`
		}
		if err := json.Unmarshal(resp.body, &got); err != nil {
			return fmt.Errorf("expand: %v", err)
		}
		sg := c.store.ExpandFrom([]graph.NodeID{m.malwareID[r.key]}, 1, expandNeighbors, 100)
		if len(got.Nodes) != len(sg.Nodes) || len(got.Edges) != len(sg.Edges) || len(got.Nodes) < 2 {
			return fmt.Errorf("expand %q: %d nodes / %d edges, store says %d / %d", m.malware[r.key],
				len(got.Nodes), len(got.Edges), len(sg.Nodes), len(sg.Edges))
		}
		for i, n := range sg.Nodes {
			if got.Nodes[i].ID != n.ID {
				return fmt.Errorf("expand %q: node %d is %d, store says %d", m.malware[r.key], i, got.Nodes[i].ID, n.ID)
			}
		}
	}
	return nil
}

// sameCount holds every response of one (class, binding) to the row
// count its first response had: the store is not changing under it.
func (c *checker) sameCount(r *request, n int) error {
	k := fmt.Sprintf("%s/%d", r.class, r.key)
	c.mu.Lock()
	want, seen := c.rowCount[k]
	if !seen {
		c.rowCount[k] = n
	}
	c.mu.Unlock()
	if seen && n != want {
		return fmt.Errorf("%s: %d rows, first response had %d", r.class, n, want)
	}
	return nil
}

// againstDirect compares a response with a direct Engine.Query of the
// same statement. ordered says the statement fixes the row order.
func (c *checker) againstDirect(r *request, rows [][]string, ordered bool) error {
	direct, err := c.direct(r)
	if err != nil {
		return fmt.Errorf("%s: direct query: %v", r.class, err)
	}
	if len(direct) == 0 {
		return fmt.Errorf("%s: direct query returned no rows; the class measures nothing", r.class)
	}
	if ordered && !reflect.DeepEqual(rows, direct) || !ordered && !sameRowSet(rows, direct) {
		return fmt.Errorf("%s: response differs from a direct Engine.Query (%d vs %d rows)", r.class, len(rows), len(direct))
	}
	return nil
}
