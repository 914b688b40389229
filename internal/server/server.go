// Package server exposes the exploration API the paper's web UI consumes:
// keyword search (Elasticsearch role), Cypher queries (Neo4j role),
// node detail, neighbor expansion and collapse, random subgraphs, view
// history (the UI's back button), and force-directed layout positions
// for every returned subgraph (internal/layout: the exact sum for small
// views, Barnes-Hut for large ones).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode"
	"unicode/utf8"
	"unsafe"

	"securitykg/internal/cypher"
	"securitykg/internal/graph"
	"securitykg/internal/layout"
	"securitykg/internal/metrics"
	"securitykg/internal/search"
)

// Server wires the exploration endpoints over a graph store and a search
// index.
type Server struct {
	store *graph.Store
	index *search.Index
	eng   *cypher.Engine
	mux   *http.ServeMux

	mu      sync.Mutex
	history []*ViewGraph // view stack for the back button

	txMu sync.Mutex            // guards txs (session.go)
	txs  map[string]*txSession // open transaction sessions by token

	repl Replication // replication role wiring (standalone when zero)

	started time.Time         // for /healthz uptime and the uptime gauge
	reg     *metrics.Registry // per-instance gauges; /metrics renders std + this
	slowNs  atomic.Int64      // slow-query threshold in ns, 0 = disabled
	slowLog *log.Logger       // destination for slow-query lines (observe.go)

	// Ingest backpressure: writeInflight tracks the request-body bytes
	// of write statements currently executing; writeLimit bounds them
	// (0 = unbounded). A write arriving over the bound is shed with 429
	// + Retry-After instead of queueing without limit on the store's
	// single writer — overload answers fast and cheap, and the client's
	// retry loop becomes the queue.
	writeLimit    atomic.Int64
	writeInflight atomic.Int64
}

// defaultIngestLimit bounds in-flight write bytes unless overridden
// with SetIngestLimit: generous for interactive use, small enough that
// a misbehaving bulk loader cannot buffer the heap away.
const defaultIngestLimit = 32 << 20

var mIngestRejected = metrics.NewCounter("skg_ingest_backpressure_total",
	"Write requests rejected with 429 because in-flight write bytes exceeded the ingest limit.")

// Replication tells the server its place in a replicated deployment.
// The zero value is a standalone server: reads are always current,
// writes are governed only by the engine's ReadOnly option, and
// responses carry no sequence numbers.
type Replication struct {
	// Role is "primary", "replica", or "" (standalone). On a replica,
	// write statements and BEGIN get an HTTP 421 {"code":"not_leader"}
	// response naming LeaderURL instead of the engine's read-only error.
	Role      string
	LeaderURL string

	// Seq returns the committed (primary) or applied (replica) WAL
	// sequence number. When set, write responses carry {"seq": n} — the
	// read-your-writes token a client passes back as min_seq.
	Seq func() uint64

	// WaitSeq blocks until local reads observe at least seq. Set on
	// replicas (the primary's reads are always current); a min_seq
	// read waits through it, bounded by MaxWait, before executing.
	WaitSeq func(ctx context.Context, seq uint64) error

	// MaxWait bounds a min_seq read's wait (default 5s). Clients may
	// shorten it per-request with wait_ms.
	MaxWait time.Duration

	// Health contributes extra fields to /healthz (data-dir lock
	// status, durability errors, applied seq) — whatever the process
	// wiring knows that the server core does not.
	Health func() map[string]any

	// Lag returns this node's replication lag in records (0 on a
	// primary). When set, /metrics exports it as
	// skg_replication_lag_records.
	Lag func() int64
}

// SetReplication wires the server's replication role. Call before
// serving; the configuration is read, not copied, by handlers. When the
// role carries Seq/Lag callbacks, the matching per-instance gauges are
// registered so /metrics covers replication position and lag.
func (s *Server) SetReplication(cfg Replication) {
	s.repl = cfg
	if cfg.Seq != nil {
		s.reg.GaugeFunc("skg_replication_seq",
			"Committed (primary) or applied (replica) WAL sequence number.",
			func() float64 { return float64(cfg.Seq()) })
	}
	if cfg.Lag != nil {
		s.reg.GaugeFunc("skg_replication_lag_records",
			"Records this replica trails the leader by (0 on a primary).",
			func() float64 { return float64(cfg.Lag()) })
	}
}

// New builds the server with the default query options.
func New(store *graph.Store, index *search.Index) *Server {
	return NewWith(store, index, cypher.DefaultOptions())
}

// NewWith builds the server with explicit query options (byte budget,
// index toggles, read-only), so deployments can tune the Cypher engine.
func NewWith(store *graph.Store, index *search.Index, opts cypher.Options) *Server {
	s := &Server{
		store:   store,
		index:   index,
		eng:     cypher.NewEngine(store, opts),
		mux:     http.NewServeMux(),
		started: time.Now(),
		reg:     metrics.NewRegistry(),
	}
	s.writeLimit.Store(defaultIngestLimit)
	s.registerInstanceGauges()
	s.mux.HandleFunc("/api/stats", s.handleStats)
	s.mux.HandleFunc("/api/search", s.handleSearch)
	s.mux.HandleFunc("/api/cypher", s.handleCypher)
	s.mux.HandleFunc("/api/node", s.handleNode)
	s.mux.HandleFunc("/api/expand", s.handleExpand)
	s.mux.HandleFunc("/api/collapse", s.handleCollapse)
	s.mux.HandleFunc("/api/random", s.handleRandom)
	s.mux.HandleFunc("/api/back", s.handleBack)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	return s
}

// handleHealthz is the liveness/role probe: cheap, dependency-free,
// and safe to poll. Role and sequence numbers come from the
// replication wiring; process-level facts (data-dir lock, durability
// errors) are merged in from Replication.Health.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	out := map[string]any{
		"status": "ok",
		"role":   s.repl.Role,
	}
	if out["role"] == "" {
		out["role"] = "standalone"
	}
	s.healthInfo(out)
	if s.repl.Seq != nil {
		out["seq"] = s.repl.Seq()
	}
	if s.repl.Health != nil {
		for k, v := range s.repl.Health() {
			out[k] = v
		}
	}
	writeJSON(w, out)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// ViewGraph is a subgraph plus layout positions, the unit the UI renders.
type ViewGraph struct {
	Nodes []ViewNode    `json:"nodes"`
	Edges []*graph.Edge `json:"edges"`
}

// ViewNode is a node with its layout position and display color group.
type ViewNode struct {
	*graph.Node
	X     float64 `json:"x"`
	Y     float64 `json:"y"`
	Color string  `json:"color"`
}

// colorFor groups node types into display colors (the UI colors nodes by
// type).
func colorFor(typ string) string {
	switch {
	case strings.HasSuffix(typ, "Report"):
		return "blue"
	case typ == "CTIVendor":
		return "gray"
	case typ == "Malware" || typ == "MalwareFamily":
		return "red"
	case typ == "ThreatActor":
		return "purple"
	case typ == "Technique" || typ == "Tool":
		return "orange"
	case typ == "Vulnerability":
		return "brown"
	}
	return "green" // IOCs and the rest
}

// Layout positions a subgraph with the layout engine's default kernel
// (the exact sum for small views, Barnes-Hut for large ones) and wraps it
// as a ViewGraph.
func Layout(sg *graph.Subgraph, seed int64) *ViewGraph {
	idx := make(map[graph.NodeID]int, len(sg.Nodes))
	for i, n := range sg.Nodes {
		idx[n.ID] = i
	}
	lg := layout.Graph{N: len(sg.Nodes)}
	for _, e := range sg.Edges {
		lg.Edges = append(lg.Edges, [2]int{idx[e.From], idx[e.To]})
	}
	eng := layout.NewEngine(lg, layout.Config{}, seed)
	eng.Run(300, 0.01)
	vg := &ViewGraph{Edges: sg.Edges}
	for i, n := range sg.Nodes {
		vg.Nodes = append(vg.Nodes, ViewNode{
			Node: n, X: eng.Pos[i].X, Y: eng.Pos[i].Y, Color: colorFor(n.Type),
		})
	}
	return vg
}

func (s *Server) pushHistory(vg *ViewGraph) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.history = append(s.history, vg)
	if len(s.history) > 50 {
		s.history = s.history[1:]
	}
}

// writeJSON answers the rare endpoints through encoding/json; hot bodies
// are appended (ndjson.go) and sent with writeBody.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func writeBody(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

func writeView(w http.ResponseWriter, vg *ViewGraph) {
	body := bodyPool.Get().(*pooledBody)
	defer putBody(body)
	body.buf = appendView(body.buf[:0], vg)
	writeBody(w, body.buf)
}

func httpErr(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// notLeader rejects a write on a replica with a typed redirect: HTTP
// 421 (Misdirected Request) and the leader's URL, so a client library
// can transparently re-issue against the leader.
func (s *Server) notLeader(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusMisdirectedRequest)
	json.NewEncoder(w).Encode(map[string]string{
		"error":  "this node is a read-only replica; send writes to the leader",
		"code":   "not_leader",
		"leader": s.repl.LeaderURL,
	})
}

// isReplica reports whether writes should be redirected to a leader.
func (s *Server) isReplica() bool { return s.repl.Role == "replica" }

// SetIngestLimit bounds the total request-body bytes of write
// statements executing at once; writes arriving over the bound answer
// 429 with Retry-After until in-flight work drains. n <= 0 removes the
// bound. Call before serving.
func (s *Server) SetIngestLimit(n int64) {
	if n < 0 {
		n = 0
	}
	s.writeLimit.Store(n)
}

// looksLikeWrite is the cheap ingest-classification heuristic the
// backpressure gate runs before parsing: any statement that could
// mutate (UNWIND batch ingest included) counts against the in-flight
// write budget for its duration. A false positive costs a read a brief
// reservation; a false negative is impossible — the grammar requires
// create, merge, delete, set or unwind in every mutating statement. A
// keyword matches in any case: the scan lowercases rune by rune as
// strings.ToLower does (so U+0130, the dotted capital I, reads as i), but
// copies nothing.
func looksLikeWrite(q string) bool {
	for i := 0; i < len(q); i++ {
		// An ASCII letter, lowercased. No multi-byte rune lowercases to
		// the first letter of a keyword (TestLooksLikeWrite).
		var rest string
		switch q[i] | 0x20 {
		case 'c':
			rest = "reate"
		case 'm':
			rest = "erge"
		case 'd':
			rest = "elete"
		case 's':
			rest = "et"
		case 'u':
			rest = "nwind"
		default:
			continue
		}
		if hasLowerPrefix(q[i+1:], rest) {
			return true
		}
	}
	return false
}

// hasLowerPrefix reports whether s, lowercased, starts with the
// lowercase ASCII letters kw. The scan may start at any byte:
// lowercasing never turns part of a rune into ASCII.
func hasLowerPrefix(s, kw string) bool {
	for j := 0; j < len(kw); j++ {
		if s == "" {
			return false
		}
		if s[0] < utf8.RuneSelf {
			if s[0]|0x20 != kw[j] {
				return false
			}
			s = s[1:]
			continue
		}
		r, size := utf8.DecodeRuneInString(s)
		if unicode.ToLower(r) != rune(kw[j]) {
			return false
		}
		s = s[size:]
	}
	return true
}

// acquireIngest reserves n in-flight write bytes, or sheds the request
// with 429 + Retry-After when the reservation would exceed the limit.
// A single request larger than the whole limit is admitted when it is
// alone — it could never run otherwise. Returns false when the
// response has been written.
func (s *Server) acquireIngest(w http.ResponseWriter, n int64) bool {
	limit := s.writeLimit.Load()
	cur := s.writeInflight.Add(n)
	if limit > 0 && cur > limit && cur != n {
		s.writeInflight.Add(-n)
		mIngestRejected.Inc()
		w.Header().Set("Retry-After", "1")
		httpErr(w, http.StatusTooManyRequests,
			"ingest backpressure: %d bytes of writes already in flight (limit %d); retry shortly", cur-n, limit)
		return false
	}
	return true
}

func (s *Server) releaseIngest(n int64) { s.writeInflight.Add(-n) }

// awaitSeq enforces the read-your-writes token: when minSeq is nonzero
// and this node's reads can lag (a replica), block until the local
// store has applied at least minSeq. The wait is bounded — MaxWait by
// default, shortened per-request with wait_ms — and a timeout answers
// 504 so the client can retry or fall back to the leader. Returns
// false when the response has been written.
func (s *Server) awaitSeq(w http.ResponseWriter, r *http.Request, minSeq uint64) bool {
	if minSeq == 0 || s.repl.WaitSeq == nil {
		return true
	}
	wait := s.repl.MaxWait
	if wait <= 0 {
		wait = 5 * time.Second
	}
	ms, ok := intParam(w, r, "wait_ms", 0)
	if !ok {
		return false
	}
	if ms > 0 && time.Duration(ms)*time.Millisecond < wait {
		wait = time.Duration(ms) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(r.Context(), wait)
	defer cancel()
	if err := s.repl.WaitSeq(ctx, minSeq); err != nil {
		httpErr(w, http.StatusGatewayTimeout,
			"replica has not caught up to seq %d within %v (applied %d)", minSeq, wait, s.appliedSeq())
		return false
	}
	return true
}

func (s *Server) appliedSeq() uint64 {
	if s.repl.Seq == nil {
		return 0
	}
	return s.repl.Seq()
}

// awaitMinSeq reads the min_seq read-your-writes token off the query
// string (all read endpoints accept it) and waits for it through
// awaitSeq. A token that does not parse answers 400: reading as if none
// were given would hand the client a possibly stale view it asked not to
// see. Returns false when the response has been written.
func (s *Server) awaitMinSeq(w http.ResponseWriter, r *http.Request) bool {
	var minSeq uint64
	if v := r.URL.Query().Get("min_seq"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			httpErr(w, http.StatusBadRequest, "min_seq=%s is not a sequence number", v)
			return false
		}
		minSeq = n
	}
	return s.awaitSeq(w, r, minSeq)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if !s.awaitMinSeq(w, r) {
		return
	}
	writeJSON(w, s.store.Stats())
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	if !s.awaitMinSeq(w, r) {
		return
	}
	q := r.URL.Query().Get("q")
	if q == "" {
		httpErr(w, http.StatusBadRequest, "missing q parameter")
		return
	}
	k, ok := intParam(w, r, "k", 10)
	if !ok {
		return
	}
	if k < 1 || k > maxSearchHits {
		httpErr(w, http.StatusBadRequest, "k=%d is outside 1..%d hits per search", k, maxSearchHits)
		return
	}
	body := bodyPool.Get().(*pooledBody)
	defer putBody(body)
	body.buf = appendHits(body.buf[:0], s.index.Search(q, k))
	writeBody(w, body.buf)
}

// handleCypher executes a Cypher statement POSTed as JSON:
//
//	{"query": "match (m {name: $ioc})-[r]-(x) return x.name",
//	 "params": {"ioc": "wannacry"}}
//
// Values bind via "params" instead of being spliced into the query
// text, so one cached plan serves every binding and IOC strings never
// need escaping. Write statements (CREATE/MERGE/SET/DELETE) are
// accepted; their response carries a "writes" counter object, and when
// the server runs over a durable store every mutation is write-ahead
// logged before the response. {"explain": true} renders the plan;
// {"stream": true} switches the response to NDJSON (one JSON object per
// line: a columns header, then {"row": [...]} per result row as it is
// matched, then a {"done": n} trailer with the write counters when the
// statement wrote — or {"error": ...} if the stream fails mid-way).
//
// Transactions: {"query": "BEGIN"} opens a session and returns
// {"tx": "<token>"}; subsequent requests carrying that token run inside
// the transaction (consistent snapshot + own writes, nothing visible to
// others until COMMIT). COMMIT / ROLLBACK with the token end it; idle
// sessions expire after a few minutes (session.go).
func (s *Server) handleCypher(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpErr(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	body := bodyPool.Get().(*pooledBody)
	defer putBody(body)
	buf := &body.buf
	var req cypherRequest
	r.Body = http.MaxBytesReader(w, r.Body, maxRequestBody)
	if err := readCypherRequest(r, body, &req); err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		httpErr(w, status, "%v", err)
		return
	}
	// Ingest backpressure: write-shaped statements reserve their body
	// size against the in-flight write budget for the whole request —
	// batch application and streaming drain included (the deferred
	// release runs after the handler's streaming paths return). Replicas
	// skip the gate; their writes are redirected, not executed.
	if !s.isReplica() && !req.Explain && looksLikeWrite(req.Query) {
		n := int64(len(*buf))
		if !s.acquireIngest(w, n) {
			return
		}
		defer s.releaseIngest(n)
	}
	if !s.awaitSeq(w, r, req.MinSeq) {
		return
	}
	if req.Explain {
		plan, err := s.eng.Explain(req.Query)
		if err != nil {
			httpErr(w, http.StatusBadRequest, "%v", err)
			return
		}
		writeJSON(w, map[string]string{"plan": plan})
		return
	}
	op, err := cypher.TxOpOf(req.Query)
	if err != nil {
		httpErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	// The runner: the engine for an autocommit statement, or the open
	// transaction of the session the token names.
	var run queryRunner = s.eng
	var sess *txSession
	if req.Tx == "" {
		switch op {
		case cypher.TxBegin:
			if s.isReplica() {
				// A transaction session exists to write; a replica
				// cannot accept one, so redirect before a token is
				// minted and a writer slot consumed.
				s.notLeader(w)
				return
			}
			token, err := s.beginTxSession()
			if err != nil {
				httpErr(w, http.StatusServiceUnavailable, "%v", err)
				return
			}
			writeJSON(w, map[string]string{"tx": token})
			return
		case cypher.TxCommit, cypher.TxRollback:
			httpErr(w, http.StatusBadRequest, "no open transaction — BEGIN first and pass its tx token")
			return
		}
	} else {
		if sess = s.lookupTx(req.Tx); sess == nil {
			httpErr(w, http.StatusBadRequest, "unknown or expired transaction %q", req.Tx)
			return
		}
		sess.mu.Lock()
		defer sess.mu.Unlock()
		defer func() { sess.last = time.Now() }()
		run = sess.tx
	}
	began := time.Now()
	rows, err := run.QueryRows(req.Query, req.Params)
	n := 0
	if err == nil {
		// The read-your-writes token goes out where a write has landed:
		// an autocommit write statement, or a COMMIT. A statement inside
		// a session reaches the WAL only with its COMMIT.
		var seq func() uint64
		if (sess == nil && rows.Writes() != nil) || op == cypher.TxCommit {
			seq = s.repl.Seq
		}
		if req.Stream && op == cypher.TxNone {
			n = s.streamRows(w, r, rows, seq)
		} else {
			n, err = s.writeRows(w, buf, rows, seq)
		}
	}
	if sess != nil && sess.tx.Done() {
		s.dropTx(req.Tx)
	}
	if err != nil {
		s.cypherErr(w, err)
		return
	}
	if op == cypher.TxNone {
		s.noteSlow(req.Query, statementKind(rows.Writes() != nil), began, n, rows.BudgetUsed())
	}
}

// queryRunner runs one /api/cypher statement: *cypher.Engine for an
// autocommit statement, *cypher.Tx inside a session.
type queryRunner interface {
	QueryRows(src string, args map[string]any) (*cypher.Rows, error)
}

// bodyPool recycles the buffers an /api/cypher request body is read into
// and hot response bodies are appended to; one buffer serves a request's
// body and then its response. A write batch is tens of kilobytes, read
// whole before it is decoded on the entry's stacks.
var bodyPool = sync.Pool{New: func() any { return new(pooledBody) }}

// pooledBody is one bodyPool entry.
type pooledBody struct {
	buf []byte
	decodeStacks
}

// maxPooledBody is the most bytes a kept entry's buffer, or either of its
// stacks, may hold, and the most a Content-Length header may reserve
// before a byte of body has arrived.
const maxPooledBody = 1 << 20

func putBody(body *pooledBody) {
	if cap(body.buf) <= maxPooledBody &&
		cap(body.elems)*int(unsafe.Sizeof(cypher.Value{})) <= maxPooledBody &&
		cap(body.fields)*int(unsafe.Sizeof(cypher.Field{})) <= maxPooledBody {
		bodyPool.Put(body)
	}
}

// maxRequestBody caps an /api/cypher request body at 64 MiB, the engine's
// default per-query byte budget (cypher.DefaultOptions().MaxBytes): a
// larger body is refused with 413 instead of being read whole into
// memory. The ingest gate cannot bound it: it admits any one request
// when nothing else is in flight, and only once the body has been read.
const maxRequestBody = 64 << 20

// cypherErr maps an engine error onto the transport: a read-only
// rejection on a replica becomes the not_leader redirect, everything
// else a 400.
func (s *Server) cypherErr(w http.ResponseWriter, err error) {
	if s.isReplica() && errors.Is(err, cypher.ErrReadOnly) {
		s.notLeader(w)
		return
	}
	httpErr(w, http.StatusBadRequest, "%v", err)
}

// writeRows drains a statement's cursor into a materialized body in buf,
// rows as strings, and sends it once the statement has ended without
// error; it returns the number of rows sent. (An "EXPLAIN match ..."
// statement flows through here too, returning plan lines as rows.) A
// non-nil seq adds {"seq": n} — the read-your-writes token a client
// passes as min_seq on later reads (possibly against a replica) to be
// guaranteed to see this write.
func (s *Server) writeRows(w http.ResponseWriter, buf *[]byte, rows *cypher.Rows, seq func() uint64) (int, error) {
	b, n, err := appendRows((*buf)[:0], rows, seq)
	*buf = b
	if err != nil {
		return 0, err
	}
	writeBody(w, b)
	return n, nil
}

// streamRows writes the result as NDJSON so a hunting client sees
// matches as the executor produces them: the first row leaves at once,
// later ones at most flushEvery behind (ndjson.go). It returns the
// number of rows written (for the slow-query log): a {"columns": ...}
// line, one {"row": ...} line per row, then {"done": n} or
// {"error": ...}; a non-nil seq adds the read-your-writes token to a
// writing statement's done-trailer. The cursor drains until exhaustion,
// an error (e.g. the byte budget), or the client going away: a failed
// write or a canceled request context stops the drain, which stops all
// remaining pattern matching and rolls the statement back, so a write
// nobody is left to acknowledge does not land.
func (s *Server) streamRows(w http.ResponseWriter, r *http.Request, rows *cypher.Rows, seq func() uint64) int {
	w.Header().Set("Content-Type", "application/x-ndjson")
	out := newNDJSONWriter(w)
	defer out.close()
	if err := out.header(rows.Columns()); err != nil {
		rows.Close()
		return 0
	}
	done := r.Context().Done()
	n := 0
	err := rows.Drain(func(row []cypher.Value) error {
		select {
		case <-done:
			return errClientGone
		default:
		}
		if err := out.row(row); err != nil {
			return errClientGone
		}
		n++
		return nil
	})
	// A client that has gone gets no trailer, and a trailer that cannot be
	// written means the client is gone: either way nobody is left to tell.
	switch {
	case err == errClientGone:
	case err != nil:
		_ = out.fail(err.Error())
	default:
		_ = out.done(n, rows.Writes(), seq)
	}
	return n
}

// errClientGone ends a stream whose client has stopped reading: its
// request context is canceled or a write to it failed.
var errClientGone = errors.New("server: the client has gone")

func (s *Server) handleNode(w http.ResponseWriter, r *http.Request) {
	if !s.awaitMinSeq(w, r) {
		return
	}
	id, err := nodeIDParam(r, "id")
	if err != nil {
		httpErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	sn := s.store.Snapshot()
	defer sn.Release()
	n := sn.Node(id)
	if n == nil {
		httpErr(w, http.StatusNotFound, "node %d not found", id)
		return
	}
	// Detailed info on hover: node plus its incident edge summary.
	type out struct {
		Node      *graph.Node   `json:"node"`
		Degree    int           `json:"degree"`
		Neighbors []*graph.Node `json:"neighbors"`
	}
	nbs := sn.Neighbors(id, graph.Both)
	writeJSON(w, out{Node: n, Degree: len(sn.Edges(id, graph.Both)), Neighbors: nbs})
}

func (s *Server) handleExpand(w http.ResponseWriter, r *http.Request) {
	if !s.awaitMinSeq(w, r) {
		return
	}
	id, err := nodeIDParam(r, "id")
	if err != nil {
		httpErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	sn := s.store.Snapshot()
	defer sn.Release()
	if sn.Node(id) == nil {
		httpErr(w, http.StatusNotFound, "node %d not found", id)
		return
	}
	depth, ok := intParamFrom(w, r, "depth", 1, 0)
	if !ok {
		return
	}
	maxNb, ok := intParamFrom(w, r, "neighbors", 25, 1)
	if !ok {
		return
	}
	maxNodes, ok := viewSizeParam(w, r, "nodes", 100)
	if !ok {
		return
	}
	sg := sn.ExpandFrom([]graph.NodeID{id}, depth, maxNb, maxNodes)
	sn.Release() // the layout reads only sg: hold no history back during it
	vg := Layout(sg, int64(id))
	s.pushHistory(vg)
	writeView(w, vg)
}

func (s *Server) handleCollapse(w http.ResponseWriter, r *http.Request) {
	if !s.awaitMinSeq(w, r) {
		return
	}
	id, err := nodeIDParam(r, "id")
	if err != nil {
		httpErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	view, err := idListParam(r, "view")
	if err != nil {
		httpErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	anchors, err := idListParam(r, "anchors")
	if err != nil {
		httpErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	sn := s.store.Snapshot()
	defer sn.Release()
	hidden := sn.CollapseFrom(id, view, anchors)
	writeJSON(w, map[string]any{"hidden": hidden})
}

func (s *Server) handleRandom(w http.ResponseWriter, r *http.Request) {
	if !s.awaitMinSeq(w, r) {
		return
	}
	n, ok := viewSizeParam(w, r, "n", 20)
	if !ok {
		return
	}
	seed, ok := intParam(w, r, "seed", 1)
	if !ok {
		return
	}
	sn := s.store.Snapshot()
	defer sn.Release()
	sg := sn.RandomSubgraph(int64(seed), n)
	sn.Release()
	vg := Layout(sg, int64(seed))
	s.pushHistory(vg)
	writeView(w, vg)
}

func (s *Server) handleBack(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.history) < 2 {
		httpErr(w, http.StatusNotFound, "no earlier view")
		return
	}
	s.history = s.history[:len(s.history)-1]
	writeView(w, s.history[len(s.history)-1])
}

// maxViewNodes is the most nodes an /api/expand or /api/random view may
// ask for. A view is laid out on the request's goroutine and nothing
// cancels it; BenchmarkLayoutRun/n=1000/bh prices one layout at this size
// at ≈0.55 s on a 2-core machine.
const maxViewNodes = 1000

// maxSearchHits is the most hits an /api/search may ask for with k. The
// index returns every hit for k <= 0, so k is held to 1..maxSearchHits.
const maxSearchHits = 1000

// viewSizeParam reads a view-size parameter like intParam and answers 400
// when it is outside 1..maxViewNodes.
func viewSizeParam(w http.ResponseWriter, r *http.Request, name string, def int) (int, bool) {
	n, ok := intParamFrom(w, r, name, def, 1)
	if ok && n > maxViewNodes {
		httpErr(w, http.StatusBadRequest, "%s=%d exceeds the limit of %d nodes per view", name, n, maxViewNodes)
		return 0, false
	}
	return n, ok
}

// intParamFrom reads an integer parameter like intParam and answers 400
// when it is below min.
func intParamFrom(w http.ResponseWriter, r *http.Request, name string, def, min int) (int, bool) {
	n, ok := intParam(w, r, name, def)
	if ok && n < min {
		httpErr(w, http.StatusBadRequest, "%s=%d is below %d", name, n, min)
		return 0, false
	}
	return n, ok
}

// intParam reads an integer query parameter: def when it is absent, and a
// 400 naming the parameter when it does not parse — a default in place of
// what the client asked for would answer a question it did not ask.
// Returns false when the response has been written.
func intParam(w http.ResponseWriter, r *http.Request, name string, def int) (int, bool) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return def, true
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		httpErr(w, http.StatusBadRequest, "%s=%s is not an integer", name, v)
		return 0, false
	}
	return n, true
}

func nodeIDParam(r *http.Request, name string) (graph.NodeID, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return 0, fmt.Errorf("missing %s parameter", name)
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad %s parameter: %v", name, err)
	}
	return graph.NodeID(n), nil
}

func idListParam(r *http.Request, name string) ([]graph.NodeID, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return nil, nil
	}
	parts := strings.Split(v, ",")
	out := make([]graph.NodeID, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad %s entry %q", name, p)
		}
		out = append(out, graph.NodeID(n))
	}
	return out, nil
}
