package cypher

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"securitykg/internal/graph"
)

// Tests for statement atomicity and explicit transactions (tx.go): the
// documented mid-statement rollback bug, WAL grouping, snapshot-pinned
// cursors, and the Tx session lifecycle.

// TestStatementAtomicityRollback is the regression for the documented
// non-atomicity bug: a plain DELETE that matches several rows and
// errors on a later one (connected node without DETACH) must undo the
// earlier rows' deletes — and nothing may reach the WAL hook.
func TestStatementAtomicityRollback(t *testing.T) {
	t.Run("planned", func(t *testing.T) {
		s := graph.New()
		// Lower-ID isolated tools delete fine on rows 1-2; the
		// connected one errors on row 3.
		s.MergeNode("Tool", "iso1", nil)
		s.MergeNode("Tool", "iso2", nil)
		conn, _ := s.MergeNode("Tool", "conn", nil)
		ip, _ := s.MergeNode("IP", "10.0.0.1", nil)
		s.AddEdge(conn, "USE", ip, nil)
		before := storeBytes(t, s)

		var logged []graph.MutationOp
		s.SetMutationHook(func(m graph.Mutation) { logged = append(logged, m.Op) })
		e := NewEngine(s, Options{UseIndexes: true, MaxBytes: 16 << 20})
		_, err := e.Query(`match (t:Tool) delete t`, nil)
		s.SetMutationHook(nil)
		if err == nil || !strings.Contains(err.Error(), "DETACH") {
			t.Fatalf("want DETACH error, got %v", err)
		}
		if len(logged) != 0 {
			t.Fatalf("failed statement leaked %d mutations to the WAL hook: %v", len(logged), logged)
		}
		if got := storeBytes(t, s); !bytes.Equal(got, before) {
			t.Fatalf("failed statement left the store changed: earlier rows' deletes were not rolled back")
		}
		for _, n := range []string{"iso1", "iso2", "conn"} {
			if findNode(s, "Tool", n) == nil {
				t.Fatalf("node %q missing after rolled-back statement", n)
			}
		}
	})
}

// TestStatementWALGroup pins the WAL grouping contract: a statement
// with several mutations logs them wrapped in tx_begin/tx_commit; a
// single-mutation statement logs one bare record (byte-compatible with
// pre-transaction logs); a read logs nothing.
func TestStatementWALGroup(t *testing.T) {
	s := graph.New()
	e := NewEngine(s, Options{UseIndexes: true, MaxBytes: 16 << 20})
	var logged []graph.MutationOp
	s.SetMutationHook(func(m graph.Mutation) { logged = append(logged, m.Op) })
	defer s.SetMutationHook(nil)

	mustQuery(t, e, `create (a:Tool {name: "x"})-[:USE]->(b:Tool {name: "y"})`)
	want := []graph.MutationOp{graph.OpTxBegin, graph.OpMergeNode, graph.OpMergeNode, graph.OpAddEdge, graph.OpTxCommit}
	if len(logged) != len(want) {
		t.Fatalf("multi-mutation statement logged %v, want %v", logged, want)
	}
	for i := range want {
		if logged[i] != want[i] {
			t.Fatalf("multi-mutation statement logged %v, want %v", logged, want)
		}
	}

	logged = nil
	mustQuery(t, e, `create (c:Tool {name: "z"})`)
	if len(logged) != 1 || logged[0] != graph.OpMergeNode {
		t.Fatalf("single-mutation statement logged %v, want one bare merge_node", logged)
	}

	logged = nil
	mustQuery(t, e, `match (t:Tool) return count(t)`)
	if len(logged) != 0 {
		t.Fatalf("read statement logged %v", logged)
	}
}

// TestTxStoppedDrainAborts: inside an explicit transaction a statement
// that is stopped — its drain ended by the callback, or its cursor
// closed before Drain — is a failed statement: the whole transaction
// aborts, its earlier writes included, nothing reaches the WAL hook,
// every later statement and COMMIT errors, and only ROLLBACK ends it.
func TestTxStoppedDrainAborts(t *testing.T) {
	stop := errors.New("stop")
	for _, tc := range []struct {
		name string
		end  func(*Rows) error
		want error
	}{
		{"callback", func(r *Rows) error { return r.Drain(func([]Value) error { return stop }) }, stop},
		{"close", func(r *Rows) error { r.Close(); return r.Drain(func([]Value) error { return nil }) }, errClosed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := graph.New()
			s.MergeNode("Tool", "a", nil)
			before := storeBytes(t, s)
			var logged []graph.MutationOp
			s.SetMutationHook(func(m graph.Mutation) { logged = append(logged, m.Op) })
			e := NewEngine(s, DefaultOptions())
			tx, err := e.Begin()
			if err != nil {
				t.Fatal(err)
			}
			mustTxQuery(t, tx, `create (t:Tool {name: "b"})`)
			rows, err := tx.QueryRows(`unwind $names as n create (h:Host {name: n}) return h.name`,
				map[string]any{"names": []any{"h1", "h2", "h3"}})
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.end(rows); err != tc.want {
				t.Fatalf("stopped statement ended with %v, want %v", err, tc.want)
			}
			if _, err := tx.Query(`match (t:Tool) return count(t)`, nil); err == nil || !strings.Contains(err.Error(), "aborted") {
				t.Fatalf("statement after the stop: %v, want the transaction aborted", err)
			}
			if err := tx.Commit(); err == nil {
				t.Fatal("COMMIT of the aborted transaction succeeded")
			}
			if tx.Done() {
				t.Fatal("the aborted transaction ended before ROLLBACK")
			}
			mustTxQuery(t, tx, `rollback`)
			if !tx.Done() {
				t.Fatal("ROLLBACK did not end the aborted transaction")
			}
			if got := storeBytes(t, s); !bytes.Equal(got, before) {
				t.Fatal("the aborted transaction left the store changed")
			}
			if len(logged) != 0 {
				t.Fatalf("the aborted transaction logged %v", logged)
			}
			if st := s.MVCCStats(); st != (graph.MVCCStats{}) {
				t.Fatalf("MVCC overlay after ROLLBACK: %+v", st)
			}
		})
	}
}

func mustQuery(t *testing.T, e *Engine, src string) *Result {
	t.Helper()
	res, err := e.Query(src, nil)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	return res
}

func mustTxQuery(t *testing.T, tx *Tx, src string) *Result {
	t.Helper()
	res, err := tx.Query(src, nil)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	return res
}

func countOf(t *testing.T, res *Result) string {
	t.Helper()
	if len(res.Rows) != 1 || len(res.Rows[0]) != 1 {
		t.Fatalf("want one count row, got %v", res.Rows)
	}
	return res.Rows[0][0].String()
}

// TestCursorPinsSnapshot: a streaming cursor opened before a write
// reads the store as of its open, not as of each pull.
func TestCursorPinsSnapshot(t *testing.T) {
	s := graph.New()
	s.MergeNode("Tool", "a", nil)
	s.MergeNode("Tool", "b", nil)
	e := NewEngine(s, Options{UseIndexes: true, MaxBytes: 16 << 20})

	rows, err := e.QueryRows(`match (t:Tool) return t.name order by t.name`, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	err = rows.Drain(func(row []Value) error {
		got = append(got, row[0].String())
		if len(got) == 1 {
			// Mutate between pulls: the open cursor must not see it.
			s.MergeNode("Tool", "c", nil)
			s.Apply(graph.Mutation{Op: graph.OpDeleteNode, Node: findNode(s, "Tool", "b").ID})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("cursor saw %v; want the snapshot [a b]", got)
	}
	// A fresh query sees the post-mutation state.
	res := mustQuery(t, e, `match (t:Tool) return count(t)`)
	if countOf(t, res) != "2" {
		t.Fatalf("fresh query count = %s, want 2 (a, c)", countOf(t, res))
	}
}

// TestTxLifecycle: own-writes visibility inside the transaction,
// invisibility outside until commit, rollback discarding everything,
// and WAL silence until the commit group.
func TestTxLifecycle(t *testing.T) {
	s := graph.New()
	s.MergeNode("Tool", "base", nil)
	e := NewEngine(s, Options{UseIndexes: true, MaxBytes: 16 << 20})
	var logged []graph.MutationOp
	s.SetMutationHook(func(m graph.Mutation) { logged = append(logged, m.Op) })
	defer s.SetMutationHook(nil)

	tx, err := e.Begin()
	if err != nil {
		t.Fatal(err)
	}
	mustTxQuery(t, tx, `create (x:Tool {name: "mine"})`)
	mustTxQuery(t, tx, `match (t:Tool {name: "mine"}) set t.score = 9`)
	if len(logged) != 0 {
		t.Fatalf("uncommitted transaction reached the WAL hook: %v", logged)
	}
	// Own writes visible inside...
	res := mustTxQuery(t, tx, `match (t:Tool) return count(t)`)
	if countOf(t, res) != "2" {
		t.Fatalf("tx sees count %s, want 2", countOf(t, res))
	}
	// ...invisible outside: the write sits in latest state under the
	// writer lock, but a plain engine query runs on a snapshot and must
	// not see it.
	outside := mustQuery(t, e, `match (t:Tool) return count(t)`)
	if countOf(t, outside) != "1" {
		t.Fatalf("concurrent reader sees count %s before commit, want 1", countOf(t, outside))
	}

	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if !tx.Done() {
		t.Fatal("committed tx not Done")
	}
	if len(logged) == 0 || logged[0] != graph.OpTxBegin || logged[len(logged)-1] != graph.OpTxCommit {
		t.Fatalf("commit logged %v, want a tx_begin..tx_commit group", logged)
	}
	after := mustQuery(t, e, `match (t:Tool) return count(t)`)
	if countOf(t, after) != "2" {
		t.Fatalf("post-commit count %s, want 2", countOf(t, after))
	}

	// Rollback path: nothing survives, nothing is logged.
	logged = nil
	tx2, err := e.Begin()
	if err != nil {
		t.Fatal(err)
	}
	mustTxQuery(t, tx2, `create (x:Tool {name: "gone"})`)
	if err := tx2.Rollback(); err != nil {
		t.Fatal(err)
	}
	if len(logged) != 0 {
		t.Fatalf("rolled-back transaction logged %v", logged)
	}
	if findNode(s, "Tool", "gone") != nil {
		t.Fatal("rolled-back node survived")
	}
}

// TestTxAbortOnError: a failed statement aborts the transaction — its
// writes are undone immediately, later statements and Commit error, and
// only Rollback ends it cleanly.
func TestTxAbortOnError(t *testing.T) {
	s := graph.New()
	conn, _ := s.MergeNode("Tool", "conn", nil)
	ip, _ := s.MergeNode("IP", "10.0.0.1", nil)
	s.AddEdge(conn, "USE", ip, nil)
	e := NewEngine(s, Options{UseIndexes: true, MaxBytes: 16 << 20})

	tx, err := e.Begin()
	if err != nil {
		t.Fatal(err)
	}
	mustTxQuery(t, tx, `create (x:Tool {name: "pre"})`)
	if _, err := tx.Query(`match (t:Tool {name: "conn"}) delete t`, nil); err == nil {
		t.Fatal("connected DELETE inside tx did not error")
	}
	if _, err := tx.Query(`match (t:Tool) return count(t)`, nil); err == nil || !strings.Contains(err.Error(), "aborted") {
		t.Fatalf("statement after abort: want aborted error, got %v", err)
	}
	if err := tx.Commit(); err == nil {
		t.Fatal("Commit after abort succeeded")
	}
	if tx.Done() {
		t.Fatal("aborted tx reports Done before Rollback")
	}
	if err := tx.Rollback(); err != nil {
		t.Fatalf("Rollback after abort: %v", err)
	}
	if !tx.Done() {
		t.Fatal("rolled-back tx not Done")
	}
	if findNode(s, "Tool", "pre") != nil {
		t.Fatal("write from before the failed statement survived the abort")
	}
	// The engine is fully usable afterwards.
	mustQuery(t, e, `match (t:Tool) return count(t)`)
}

// TestTxWritesSeeLatestState: a transaction's writes act on the store's
// latest state, not on its snapshot. Another session commits after the
// transactions below open, so none of their views holds that commit; yet
// a MERGE binds the node the store holds now, a SET counts against the
// value it holds now, and a DELETE refuses on — or counts — the edges it
// holds now; a CREATE edge may end on a node the MERGE bound though the
// view lacks it, and fails on a node the view holds but the store has
// lost. Binding or counting from the transaction's view would answer
// null, count a creation, delete without DETACH or refuse the edge.
func TestTxWritesSeeLatestState(t *testing.T) {
	s := graph.New()
	e := NewEngine(s, Options{UseIndexes: true, MaxBytes: 16 << 20})
	mustQuery(t, e, `create (:IP {name: "10.0.0.9"})`)
	// The transactions run one after another: the store is single-writer
	// and each holds the writer lock from its first write to its end.
	txs := make([]*Tx, 4)
	for i := range txs {
		tx, err := e.Begin()
		if err != nil {
			t.Fatal(err)
		}
		txs[i] = tx
	}
	mustQuery(t, e, `create (:IP {name: "10.0.0.1", seen: "a"})`)
	mustQuery(t, e, `create (:IP {name: "10.0.0.2"})-[:R]->(:IP {name: "10.0.0.3"})`)
	mustQuery(t, e, `match (n:IP {name: "10.0.0.9"}) delete n`)
	writes := func(res *Result) WriteStats {
		t.Helper()
		if res.Writes == nil {
			t.Fatal("write statement reported no write counts")
		}
		return *res.Writes
	}

	tx := txs[0]
	if n := tx.gtx.Snap().FindNode("IP", "10.0.0.1"); n != nil {
		t.Fatalf("the transaction's view sees a node committed after it opened: %+v", n)
	}
	res := mustTxQuery(t, tx, `merge (n:IP {name: "10.0.0.1"}) return n.seen`)
	if len(res.Rows) != 1 || res.Rows[0][0].String() != "a" {
		t.Fatalf("merge hit bound %v, want [[a]]: the node the store holds", res.Rows)
	}
	if w := writes(res); w != (WriteStats{}) {
		t.Fatalf("merge hit counted %+v, want nothing", w)
	}
	res = mustTxQuery(t, tx, `merge (n:IP {name: "10.0.0.1"}) set n.seen = "a" return n.seen`)
	if w := writes(res); w != (WriteStats{}) {
		t.Fatalf("SET to the value the store holds counted %+v, want nothing", w)
	}
	res = mustTxQuery(t, tx, `merge (g:IP {name: "10.0.0.1"}) create (g)-[:R]->(:X {name: "y"})`)
	if w, want := writes(res), (WriteStats{NodesCreated: 1, EdgesCreated: 1}); w != want {
		t.Fatalf("CREATE from a merge-bound node counted %+v, want %+v", w, want)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}

	tx = txs[1]
	_, err := tx.Query(`merge (n:IP {name: "10.0.0.2"}) delete n`, nil)
	if err == nil || !strings.Contains(err.Error(), "node still has 1 relationship(s)") {
		t.Fatalf("DELETE of a node with an edge the view cannot see: got %v, want the DETACH refusal", err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}

	tx = txs[2]
	res = mustTxQuery(t, tx, `merge (n:IP {name: "10.0.0.2"}) detach delete n`)
	if w, want := writes(res), (WriteStats{NodesDeleted: 1, EdgesDeleted: 1}); w != want {
		t.Fatalf("DETACH DELETE counted %+v, want %+v", w, want)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if findNode(s, "IP", "10.0.0.2") != nil || findNode(s, "IP", "10.0.0.3") == nil {
		t.Fatal("DETACH DELETE committed the wrong state")
	}

	tx = txs[3]
	_, err = tx.Query(`match (n:IP {name: "10.0.0.9"}) create (n)-[:R]->(:X {name: "z"})`, nil)
	if err == nil || !strings.Contains(err.Error(), `CREATE endpoint "n" refers to a deleted node`) {
		t.Fatalf("CREATE edge from a node the store deleted: got %v, want the deleted-endpoint error", err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
}

// TestTxControlRouting: BEGIN/COMMIT/ROLLBACK parse, route through
// sessions only, and are rejected by every plain entry point.
func TestTxControlRouting(t *testing.T) {
	s := graph.New()
	e := NewEngine(s, Options{UseIndexes: true, MaxBytes: 16 << 20})

	for _, src := range []string{"BEGIN", "begin transaction", "COMMIT", "rollback TRANSACTION"} {
		if _, err := e.Query(src, nil); err == nil || !strings.Contains(err.Error(), "transaction") {
			t.Fatalf("Query(%q): want tx-control rejection, got %v", src, err)
		}
		if _, err := e.QueryRows(src, nil); err == nil {
			t.Fatalf("QueryRows(%q): want tx-control rejection", src)
		}
		if _, err := e.Prepare(src); err == nil {
			t.Fatalf("Prepare(%q): want tx-control rejection", src)
		}
		if _, err := e.Explain(src); !errors.Is(err, errTxControl) {
			t.Fatalf("Explain(%q): %v, want the tx-control rejection", src, err)
		}
	}
	if _, err := Parse("BEGIN MATCH (n) RETURN n"); err == nil {
		t.Fatal("BEGIN with trailing clauses parsed")
	}
	if _, err := Parse("EXPLAIN BEGIN"); err == nil {
		t.Fatal("EXPLAIN of a tx-control statement parsed")
	}

	// TxOpOf classifies without planning and only parses tx keywords.
	for src, want := range map[string]TxOp{
		"BEGIN":                             TxBegin,
		"  commit transaction":              TxCommit,
		"Rollback":                          TxRollback,
		"match (n) return n":                TxNone,
		"create (n:T {name: \"beginner\"})": TxNone,
	} {
		op, err := TxOpOf(src)
		if err != nil {
			t.Fatalf("TxOpOf(%q): %v", src, err)
		}
		if op != want {
			t.Fatalf("TxOpOf(%q) = %v, want %v", src, op, want)
		}
	}
	if _, err := TxOpOf("BEGIN MATCH (n) RETURN n"); err == nil {
		t.Fatal("TxOpOf accepted a malformed BEGIN")
	}

	// Inside a session: control statements route, nesting errors.
	tx, err := e.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Query("BEGIN", nil); err == nil {
		t.Fatal("nested BEGIN accepted")
	}
	if _, err := e.Begin(); err != nil {
		// Begin on the base engine is fine — it is not pinned. Only the
		// scoped engine inside tx rejects nesting; exercise that via the
		// session API instead.
		t.Fatalf("independent Begin on base engine: %v", err)
	}
	mustTxQuery(t, tx, `create (x:Tool {name: "a"})`)
	if _, err := tx.Query("COMMIT", nil); err != nil {
		t.Fatalf("COMMIT via statement: %v", err)
	}
	if !tx.Done() {
		t.Fatal("COMMIT statement did not finish the tx")
	}
	if _, err := tx.Query(`match (n) return n`, nil); err == nil {
		t.Fatal("statement on finished tx accepted")
	}
	if findNode(s, "Tool", "a") == nil {
		t.Fatal("COMMIT statement did not publish the write")
	}

	tx2, _ := e.Begin()
	mustTxQuery(t, tx2, `create (x:Tool {name: "b"})`)
	if _, err := tx2.Query("ROLLBACK", nil); err != nil {
		t.Fatalf("ROLLBACK via statement: %v", err)
	}
	if findNode(s, "Tool", "b") != nil {
		t.Fatal("ROLLBACK statement kept the write")
	}
}

// TestTxSnapshotIsolation: a transaction's reads stay pinned at Begin
// even as autocommit writers land concurrently (from the transaction's
// point of view), and the writers' changes appear only to queries run
// after the transaction ends.
func TestTxSnapshotIsolation(t *testing.T) {
	s := graph.New()
	s.MergeNode("Tool", "a", nil)
	e := NewEngine(s, Options{UseIndexes: true, MaxBytes: 16 << 20})

	tx, err := e.Begin()
	if err != nil {
		t.Fatal(err)
	}
	res := mustTxQuery(t, tx, `match (t:Tool) return count(t)`)
	if countOf(t, res) != "1" {
		t.Fatalf("tx baseline count %s", countOf(t, res))
	}
	// A bare store write commits while the transaction is open (the
	// read-only transaction holds no writer lock).
	s.MergeNode("Tool", "b", nil)
	res = mustTxQuery(t, tx, `match (t:Tool) return count(t)`)
	if countOf(t, res) != "1" {
		t.Fatalf("non-repeatable read: tx count became %s after a concurrent commit", countOf(t, res))
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	res = mustQuery(t, e, `match (t:Tool) return count(t)`)
	if countOf(t, res) != "2" {
		t.Fatalf("post-tx count %s, want 2", countOf(t, res))
	}
}

// TestTxDifferentialAutoCommit: with no concurrent sessions, a write
// sequence executed inside one explicit transaction must land the store
// in exactly the state the same sequence produces as autocommit
// statements — byte-identical snapshots (same IDs, attrs, edges) — and
// must leave no MVCC history behind once committed.
func TestTxDifferentialAutoCommit(t *testing.T) {
	seeds := 25
	if testing.Short() {
		seeds = 8
	}
	for seed := 0; seed < seeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			stmts := genWriteStmts(rand.New(rand.NewSource(int64(seed))))

			auto := graph.New()
			autoEng := NewEngine(auto, Options{UseIndexes: true, MaxBytes: 16 << 20})
			for _, src := range stmts {
				if _, err := autoEng.Query(src, nil); err != nil {
					t.Fatalf("autocommit %s: %v", src, err)
				}
			}

			wrapped := graph.New()
			wrapEng := NewEngine(wrapped, Options{UseIndexes: true, MaxBytes: 16 << 20})
			tx, err := wrapEng.Begin()
			if err != nil {
				t.Fatal(err)
			}
			for _, src := range stmts {
				if _, err := tx.Query(src, nil); err != nil {
					t.Fatalf("tx %s: %v", src, err)
				}
			}
			if err := tx.Commit(); err != nil {
				t.Fatalf("commit: %v", err)
			}

			if a, w := storeBytes(t, auto), storeBytes(t, wrapped); !bytes.Equal(a, w) {
				t.Fatalf("tx-wrapped sequence diverged from autocommit (%d statements)", len(stmts))
			}
			if wrapped.MVCCStats() != (graph.MVCCStats{}) {
				t.Fatalf("history not purged after commit: %+v", wrapped.MVCCStats())
			}
		})
	}
}

// genWriteStmts draws a random write workload over a small key space:
// merges, attribute sets, edge creates through matches, detach deletes.
func genWriteStmts(rng *rand.Rand) []string {
	n := 6 + rng.Intn(10)
	stmts := make([]string, 0, n)
	key := func() string { return fmt.Sprintf("k%d", rng.Intn(5)) }
	for i := 0; i < n; i++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3:
			stmts = append(stmts, fmt.Sprintf(`merge (n:KV {name: %q}) set n.val = "v%d"`, key(), i))
		case 4, 5:
			stmts = append(stmts, fmt.Sprintf(`match (a:KV {name: %q}), (b:KV {name: %q}) create (a)-[:LINK {seq: "%d"}]->(b)`, key(), key(), i))
		case 6:
			stmts = append(stmts, fmt.Sprintf(`match (n:KV {name: %q}) detach delete n`, key()))
		case 7:
			stmts = append(stmts, fmt.Sprintf(`match (n:KV {name: %q}) set n.touched = "t%d"`, key(), i))
		default:
			stmts = append(stmts, fmt.Sprintf(`create (x:Blob {name: "b%d"})`, i))
		}
	}
	return stmts
}
