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

// findNode and nodesNamed read the committed state through a snapshot
// held only for the read.
func findNode(s *graph.Store, typ, name string) *graph.Node {
	sn := s.Snapshot()
	defer sn.Release()
	return sn.FindNode(typ, name)
}

func nodesNamed(s *graph.Store, name string) []*graph.Node {
	sn := s.Snapshot()
	defer sn.Release()
	return sn.Nodes(nil, sn.NodeIDsByName(name))
}

// writeFixture builds the store both write-test engines start from.
func writeFixture() *graph.Store {
	s := graph.New()
	s.IndexAttr("platform")
	m, _ := s.MergeNode("Malware", "wannacry", map[string]string{"platform": "windows"})
	ip, _ := s.MergeNode("IP", "10.1.2.3", nil)
	t1, _ := s.MergeNode("Tool", "t1", nil)
	t2, _ := s.MergeNode("Tool", "t2", nil)
	actor, _ := s.MergeNode("ThreatActor", "apt0", nil)
	s.AddEdge(m, "CONNECT", ip, nil)
	s.AddEdge(m, "USE", t1, nil)
	s.AddEdge(actor, "USE", t1, nil)
	s.AddEdge(t1, "USE", t2, nil)
	return s
}

func storeBytes(t *testing.T, s *graph.Store) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := s.Save(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// resultFingerprint renders a result for cross-engine comparison.
func resultFingerprint(res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "cols=%v\n", res.Columns)
	for _, row := range res.Rows {
		for i, v := range row {
			if i > 0 {
				b.WriteString(" | ")
			}
			b.WriteString(v.String())
		}
		b.WriteString("\n")
	}
	if res.Writes != nil {
		fmt.Fprintf(&b, "writes=%s\n", res.Writes)
	}
	return b.String()
}

// runWriteDifferential executes the statement sequence on two fresh
// fixture stores — the engine on one, the reference on the other —
// asserting after every statement that results (or errors) agree and
// finally that the two stores' Save output is byte-identical. A "!"
// prefix marks a statement that MUST error (on both); unprefixed
// statements must succeed, so an intended success case can never
// silently rot into a parse error.
func runWriteDifferential(t *testing.T, stmts []string, args map[string]any) {
	t.Helper()
	planned := writeFixture()
	referenced := writeFixture()
	pe := NewEngine(planned, Options{UseIndexes: true, MaxBytes: 16 << 20})
	ref := reference{referenced}
	for i, src := range stmts {
		wantErr := strings.HasPrefix(src, "!")
		src = strings.TrimPrefix(src, "!")
		pr, perr := pe.Query(src, args)
		rr, rerr := ref.Query(src, args)
		if (perr == nil) != (rerr == nil) {
			t.Fatalf("stmt %d %q: planned err=%v reference err=%v", i, src, perr, rerr)
		}
		if (perr != nil) != wantErr {
			t.Fatalf("stmt %d %q: wantErr=%v got planned err=%v", i, src, wantErr, perr)
		}
		if perr != nil {
			continue
		}
		if pf, rf := resultFingerprint(pr), resultFingerprint(rr); pf != rf {
			t.Fatalf("stmt %d %q:\nplanned:\n%s\nreference:\n%s", i, src, pf, rf)
		}
	}
	if !bytes.Equal(storeBytes(t, planned), storeBytes(t, referenced)) {
		t.Fatalf("final stores diverged after %d statements", len(stmts))
	}
}

// scriptedWrites is the full write surface — CREATE, MERGE, SET, DELETE,
// DETACH DELETE, $params (scriptedWriteArgs), WITH chaining, optional
// RETURN — and its error paths, as one script over writeFixture.
var scriptedWrites = []string{
	`create (x:Malware {name: "petya", platform: "windows"})`,
	`create (x:Malware {name: "petya"})`, // merge-by-name: creates nothing
	`merge (x:Malware {name: "petya"}) return x.platform`,
	`create (a:IP {name: $ioc})`,
	`match (m:Malware {name: "petya"}), (ip:IP {name: $ioc}) create (m)-[c:CONNECT {proto: "tcp"}]->(ip) return type(c)`,
	`match (m:Malware) set m.family = $fam return m.name, m.family order by m.name`,
	`match (m:Malware {name: "petya"}) set m.score = 7, m.active = true return m.score, m.active`,
	`match (a:ThreatActor {name: $actor}) optional match (a)-[:ATTRIB]->(x) set x.seen = "1" return a.name, x`,
	`create (f:FileName {name: "a.exe"})-[:DROPPED_BY]->(m:Malware {name: "petya"})`,
	`match (m:Malware {name: "petya"})<-[r:DROPPED_BY]-(f) delete r return f.name`,
	`match (f:FileName {name: "a.exe"}) delete f`,
	`match (m:Malware {name: "wannacry"}) detach delete m`,
	`match (t:Tool) with t where t.name = "t1" create (g:ThreatActor {name: "ghost"})-[:USE]->(t) return g.name, t.name`,
	`merge (g:ThreatActor {name: "ghost"}) merge (h:ThreatActor {name: "ghost2"}) create (g)-[:PEERS]->(h)`,
	`match (x:ThreatActor) where x.name starts with "ghost" detach delete x`,
	// Error paths must agree too (connected node without DETACH,
	// label-less create, SET on structural props, bad deletes).
	`!match (ip:IP {name: $ioc}) delete ip`,
	`!create (x {name: "nolabel"})`,
	`!create (x:T)`,
	`!match (t:Tool) set t.name = "renamed" return t`,
	`!match (t:Tool)-[r:USE]->(u) set r.w = "1" return r`,
	`!match (t:Tool) delete missing`,
	`!create (a:A {name: "a"})-[:E]-(b:B {name: "b"})`,
}

var scriptedWriteArgs = map[string]any{"ioc": "10.9.9.9", "fam": "worm", "actor": "apt0"}

// TestWriteDifferentialScripted runs scriptedWrites through the engine
// and the reference.
func TestWriteDifferentialScripted(t *testing.T) {
	runWriteDifferential(t, scriptedWrites, scriptedWriteArgs)
}

// randomWriteScripts returns 40 short random write scripts (seed 99)
// over writeFixture's names, labels and edge types.
func randomWriteScripts() [][]string {
	rng := rand.New(rand.NewSource(99))
	names := []string{"wannacry", "petya", "t1", "t2", "n-%d", "10.1.2.3"}
	labels := []string{"Malware", "Tool", "IP", "Host"}
	rels := []string{"CONNECT", "USE", "DROP"}
	pick := func(ss []string) string {
		s := ss[rng.Intn(len(ss))]
		if strings.Contains(s, "%d") {
			s = fmt.Sprintf(s, rng.Intn(5))
		}
		return s
	}
	scripts := make([][]string, 40)
	for round := range scripts {
		for n := 0; n < 6; n++ {
			var stmt string
			switch rng.Intn(6) {
			case 0:
				stmt = fmt.Sprintf(`create (x:%s {name: %q})`, pick(labels), pick(names))
			case 1:
				stmt = fmt.Sprintf(`merge (x:%s {name: %q}) return x.name`, pick(labels), pick(names))
			case 2:
				stmt = fmt.Sprintf(`match (a {name: %q}), (b {name: %q}) create (a)-[:%s]->(b)`,
					pick(names), pick(names), pick(rels))
			case 3:
				stmt = fmt.Sprintf(`match (x:%s) set x.mark = %q return count(x)`, pick(labels), pick(names))
			case 4:
				stmt = fmt.Sprintf(`match (x {name: %q}) detach delete x`, pick(names))
			case 5:
				stmt = fmt.Sprintf(`match (a)-[r:%s]->(b) delete r return count(*)`, pick(rels))
			}
			scripts[round] = append(scripts[round], stmt)
		}
	}
	return scripts
}

// TestWriteDifferentialRandom runs randomWriteScripts through the engine
// and the reference: any divergence in results, errors, or final store
// bytes is a bug regardless of how nonsensical the script is.
func TestWriteDifferentialRandom(t *testing.T) {
	for round, stmts := range randomWriteScripts() {
		t.Run(fmt.Sprintf("round%d", round), func(t *testing.T) {
			runWriteDifferential(t, stmts, nil)
		})
	}
}

// TestWriteOnlyRowsCursor: a write-only statement streams zero rows but
// applies its mutations on the first pull and reports counts.
func TestWriteOnlyRowsCursor(t *testing.T) {
	s := writeFixture()
	eng := NewEngine(s, DefaultOptions())
	rows, err := eng.QueryRows(`create (x:Host {name: "h9"})`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Columns()) != 0 {
		t.Fatalf("write-only columns: %v", rows.Columns())
	}
	err = rows.Drain(func([]Value) error {
		t.Fatal("write-only statement produced a row")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if ws := rows.Writes(); ws == nil || ws.NodesCreated != 1 {
		t.Fatalf("writes: %+v", ws)
	}
	if findNode(s, "Host", "h9") == nil {
		t.Fatal("mutation not applied")
	}
}

// TestReadOnlyEngineRejectsWrites: the engine refuses writes under
// Options.ReadOnly; EXPLAIN of a write statement stays allowed.
func TestReadOnlyEngineRejectsWrites(t *testing.T) {
	s := writeFixture()
	eng := NewEngine(s, Options{UseIndexes: true, ReadOnly: true})
	if _, err := eng.Query(`create (x:A {name: "a"})`, nil); err == nil {
		t.Fatal("read-only engine accepted a write")
	}
	if _, err := eng.Query(`match (n) return count(*)`, nil); err != nil {
		t.Fatalf("read-only engine rejected a read: %v", err)
	}
	if _, err := eng.Query(`explain create (x:A {name: "a"})`, nil); err != nil {
		t.Fatalf("read-only engine rejected EXPLAIN of a write: %v", err)
	}
}

// TestWriteEagerness: the Halloween guard — a CREATE can never extend
// the very match set that produced it, even though the scan is lazy.
func TestWriteEagerness(t *testing.T) {
	s := graph.New()
	s.MergeNode("T", "seed-1", nil)
	s.MergeNode("T", "seed-2", nil)
	eng := NewEngine(s, Options{UseIndexes: true})
	res, err := eng.Query(`match (n:T) create (c:T {name: "clone"}) return count(n)`, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Two seed rows → count is 2 (the clone never joins its own
	// match), and the clone was created once then merged once.
	if res.Rows[0][0].Num != 2 {
		t.Fatalf("CREATE fed its own MATCH: count=%v", res.Rows[0][0])
	}
	if res.Writes.NodesCreated != 1 {
		t.Fatalf("writes %+v", res.Writes)
	}
}

// TestMaterialMutationInvalidatesPlanCache: a change is material to the
// shared plan cache when it moves the store into another size class — its
// node plus edge count crossing a power of two, in either direction. A
// cached statement re-plans at the crossing and never before, however
// many writes land inside the class.
func TestMaterialMutationInvalidatesPlanCache(t *testing.T) {
	s := graph.New()
	var mals []graph.NodeID
	for i := 0; i < 64; i++ { // 128 nodes + 64 edges = 192: the [128, 256) class
		m, _ := s.MergeNode("Malware", fmt.Sprintf("m%d", i), nil)
		ip, _ := s.MergeNode("IP", fmt.Sprintf("10.0.0.%d", i), nil)
		s.AddEdge(m, "CONNECT", ip, nil)
		mals = append(mals, m)
	}
	eng := NewEngine(s, DefaultOptions())
	const q = `match (m:Malware)-[:CONNECT]->(ip) return ip.name`
	query := func(what string, wantMisses int64) {
		t.Helper()
		before := eng.PlanCacheStats().Misses
		if _, err := eng.Query(q, nil); err != nil {
			t.Fatal(err)
		}
		if got := eng.PlanCacheStats().Misses - before; got != wantMisses {
			t.Fatalf("%s: %d plan-cache misses, want %d", what, got, wantMisses)
		}
	}
	tools := 0
	addTools := func(k int) {
		for ; k > 0; k-- {
			s.MergeNode("Tool", fmt.Sprintf("t%d", tools), nil)
			tools++
		}
	}
	dropMalware := func(k int) { // each takes its edge with it
		for ; k > 0; k-- {
			if err := s.Apply(graph.Mutation{Op: graph.OpDeleteNode, Node: mals[0]}); err != nil {
				t.Fatal(err)
			}
			mals = mals[1:]
		}
	}
	query("first run", 1)
	addTools(63)
	query("growth to 255", 0)
	addTools(1)
	query("growth to 256", 1)
	for _, id := range mals {
		s.Apply(graph.Mutation{Op: graph.OpSetAttr, Node: id, Key: "seen", Val: "1"})
	}
	query("SetAttr inside the class", 0)
	dropMalware(1)
	query("shrink to 254", 1)
	dropMalware(63)
	query("shrink to 128", 0)
	s.Apply(graph.Mutation{Op: graph.OpDeleteNode, Node: findNode(s, "Tool", "t0").ID})
	query("shrink to 127", 1)
}

// TestWriteHeavyPreparedKeepsCacheHits is the epoch-granularity
// regression from the ROADMAP: single-row writes on a store whose shape
// stays roughly stable are immaterial to the planner, so a write-heavy
// prepared workload must keep hitting the shared plan cache instead of
// re-planning after every mutation (the old per-mutation epoch evicted
// everything on every effective write).
func TestWriteHeavyPreparedKeepsCacheHits(t *testing.T) {
	s := graph.New()
	for i := 0; i < 300; i++ {
		m, _ := s.MergeNode("Malware", fmt.Sprintf("m%d", i), nil)
		ip, _ := s.MergeNode("IP", fmt.Sprintf("10.0.%d.%d", i/250, i%250), nil)
		s.AddEdge(m, "CONNECT", ip, nil)
	}
	eng := NewEngine(s, DefaultOptions())
	const read = `match (m:Malware {name: $name})-[:CONNECT]->(ip) return ip.name`
	// Warm the read plan.
	if _, err := eng.Query(read, map[string]any{"name": "m0"}); err != nil {
		t.Fatal(err)
	}
	write, err := eng.Prepare(`match (m:Malware {name: $name}) set m.seen = $seen`)
	if err != nil {
		t.Fatal(err)
	}
	base := eng.PlanCacheStats()
	const rounds = 50
	for i := 0; i < rounds; i++ {
		// Effective mutation every round: the value changes each time.
		if _, err := write.Query(map[string]any{"name": fmt.Sprintf("m%d", i%300), "seen": fmt.Sprintf("t%d", i)}); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Query(read, map[string]any{"name": fmt.Sprintf("m%d", i%300)}); err != nil {
			t.Fatal(err)
		}
	}
	st := eng.PlanCacheStats()
	if got := st.Misses - base.Misses; got != 0 {
		t.Errorf("write-heavy workload re-planned %d times; want 0 (stats %+v -> %+v)", got, base, st)
	}
	// One prepared-write plan + interleaved reads: every execution after
	// warmup must be a hit.
	if got := st.Hits - base.Hits; got < rounds {
		t.Errorf("hits grew by %d, want >= %d", st.Hits-base.Hits, rounds)
	}
}

// TestPreparedWriteStatement: a prepared MERGE runs per binding with
// one plan, and parameters stay data (no splicing).
func TestPreparedWriteStatement(t *testing.T) {
	s := graph.New()
	eng := NewEngine(s, DefaultOptions())
	stmt, err := eng.Prepare(`merge (m:Malware {name: $ioc}) set m.seen = $seen`)
	if err != nil {
		t.Fatal(err)
	}
	iocs := []string{"a", "b", `") detach delete (x`, "a"}
	for _, ioc := range iocs {
		res, err := stmt.Query(map[string]any{"ioc": ioc, "seen": "1"})
		if err != nil {
			t.Fatalf("%q: %v", ioc, err)
		}
		if res.Writes == nil {
			t.Fatalf("%q: no write stats", ioc)
		}
	}
	// 3 distinct names → 3 nodes; the injection attempt is a node name.
	if n := s.CountByType("Malware"); n != 3 {
		t.Fatalf("expected 3 Malware nodes, got %d", n)
	}
	if len(nodesNamed(s, `") detach delete (x`)) != 1 {
		t.Fatal("injection-shaped parameter was not treated as data")
	}
}

// TestMutationExplain: EXPLAIN renders the eager mutation stage.
func TestMutationExplain(t *testing.T) {
	s := writeFixture()
	eng := NewEngine(s, DefaultOptions())
	plan, err := eng.Explain(`match (m:Malware) set m.x = "1" detach delete m`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "Mutate (eager)") || !strings.Contains(plan, "DetachDelete") {
		t.Fatalf("EXPLAIN missing mutation stage:\n%s", plan)
	}
	if !strings.Contains(plan, "write counts only") {
		t.Fatalf("EXPLAIN missing write-only projection marker:\n%s", plan)
	}
}

// TestWriteParseErrors: write-clause grammar violations fail cleanly.
func TestWriteParseErrors(t *testing.T) {
	bad := []string{
		`create (a)-[:T*1..2]->(b)`,                     // var-length create
		`create (a:A {name:"a"})-[]->(b:B {name:"b"})`,  // untyped edge
		`create (a:A {name:"a"})-[:T]-(b:B {name:"b"})`, // undirected edge
		`match (a)-[r:T {w: "1"}]->(b) return a`,        // edge props outside create
		`detach match (n) return n`,                     // detach without delete
		`match (n) delete`,                              // missing delete target
		`match (n) set n = "x"`,                         // SET needs var.prop
		`create (a:A {name:"a"}) match (b) return b`,    // match after create
		`match (n) return n create (x:A {name:"a"})`,    // create after return
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse accepted %q", src)
		}
	}
	// RETURN stays optional only when the statement writes.
	if _, err := Parse(`match (n)`); err == nil {
		t.Error("Parse accepted a read-only statement without RETURN")
	}
	if _, err := Parse(`create (a:A {name: "x"})`); err != nil {
		t.Errorf("Parse rejected a write-only statement: %v", err)
	}
}

// TestSetNoOpNotCounted: SET writing the value already present changes
// nothing — no count, no WAL record — so WriteStats agrees with the
// store and the durability log.
func TestSetNoOpNotCounted(t *testing.T) {
	s := writeFixture()
	logged := 0
	s.SetMutationHook(func(graph.Mutation) { logged++ })
	eng := NewEngine(s, Options{UseIndexes: true})
	const q = `match (m:Malware {name: "wannacry"}) set m.mark = "1" return m.mark`
	res, err := eng.Query(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Writes.PropsSet != 1 {
		t.Fatalf("first set: %+v", res.Writes)
	}
	if logged != 1 {
		t.Fatalf("first set logged %d mutations, want 1", logged)
	}
	res, err = eng.Query(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Writes.PropsSet != 0 {
		t.Fatalf("no-op set counted: %+v", res.Writes)
	}
	if logged != 1 {
		t.Fatal("no-op set reached the mutation hook")
	}
}

// TestSelfLoopDeleteCount: a self-loop is one edge, in both the plain
// DELETE refusal message and the DETACH DELETE counters.
func TestSelfLoopDeleteCount(t *testing.T) {
	s := graph.New()
	eng := NewEngine(s, Options{UseIndexes: true})
	if _, err := eng.Query(`create (a:A {name: "a"})-[:T]->(a)`, nil); err != nil {
		t.Fatal(err)
	}
	_, err := eng.Query(`match (a:A {name: "a"}) delete a`, nil)
	if err == nil || !strings.Contains(err.Error(), "1 relationship") {
		t.Fatalf("plain delete: %v", err)
	}
	res, err := eng.Query(`match (a:A {name: "a"}) detach delete a`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Writes.NodesDeleted != 1 || res.Writes.EdgesDeleted != 1 {
		t.Fatalf("self-loop counts: %+v", res.Writes)
	}
}

// TestWriteCursorCloseRollsBack: closing a write cursor that Drain has
// not ended stops the statement and rolls it back — whether its
// mutations never ran (no pull yet) or already sit in its transaction —
// and a second Close, or a Drain after it, changes nothing.
func TestWriteCursorCloseRollsBack(t *testing.T) {
	s := graph.New()
	s.MergeNode("T", "t1", nil)
	eng := NewEngine(s, DefaultOptions())
	rows, err := eng.QueryRows(`create (x:T {name: "close-only"})`, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows.Close()
	rows.Close()
	if findNode(s, "T", "close-only") != nil {
		t.Fatal("Close before Drain committed the write")
	}
	if ws := rows.Writes(); ws == nil || *ws != (WriteStats{}) {
		t.Fatalf("writes after close: %+v", ws)
	}
	err = rows.Drain(func([]Value) error {
		t.Fatal("Drain after Close produced a row")
		return nil
	})
	if err != errClosed {
		t.Fatalf("Drain after Close = %v, want %v", err, errClosed)
	}
	// A stop after the first pull has applied the SET inside the
	// statement's transaction: Close rolls it back all the same.
	rows, err = eng.QueryRows(`match (x:T) set x.seen = "1" return x.name`, nil)
	if err != nil {
		t.Fatal(err)
	}
	stop := errors.New("stop")
	if err := rows.Drain(func([]Value) error { return stop }); err != stop {
		t.Fatalf("Drain = %v, want the callback's error", err)
	}
	rows.Close()
	if n := findNode(s, "T", "t1"); n == nil || n.Attrs.Get("seen") != "" {
		t.Fatalf("stopped SET landed: %+v", n)
	}
	if st := s.MVCCStats(); st != (graph.MVCCStats{}) {
		t.Fatalf("MVCC overlay after the rollbacks: %+v", st)
	}
	// The writer is free again: the next write commits.
	if _, err := eng.Query(`match (x:T) set x.seen = "2"`, nil); err != nil {
		t.Fatal(err)
	}
	if n := findNode(s, "T", "t1"); n.Attrs.Get("seen") != "2" {
		t.Fatalf("write after the rollbacks: %+v", n)
	}
}

// TestWriteWithLimitZero: LIMIT 0 returns no rows but the writes still
// apply.
func TestWriteWithLimitZero(t *testing.T) {
	s := writeFixture()
	eng := NewEngine(s, Options{UseIndexes: true})
	res, err := eng.Query(`match (t:Tool) set t.mark = "1" return t.name limit 0`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("LIMIT 0 returned rows: %v", res.Rows)
	}
	if res.Writes.PropsSet != 2 {
		t.Fatalf("LIMIT 0 dropped writes: %+v", res.Writes)
	}
	for _, name := range []string{"t1", "t2"} {
		if n := findNode(s, "Tool", name); n == nil || n.Attrs.Get("mark") != "1" {
			t.Fatalf("%s not written: %+v", name, n)
		}
	}
}

// TestMergeAugmentCounted: a MERGE that adds new attributes to an
// existing node is a real (WAL-logged) mutation and counts as props
// set, never as an all-zero write.
func TestMergeAugmentCounted(t *testing.T) {
	s := writeFixture()
	eng := NewEngine(s, Options{UseIndexes: true})
	res, err := eng.Query(`merge (m:Malware {name: "wannacry", triaged: "1", platform: "ignored"})`, nil)
	if err != nil {
		t.Fatal(err)
	}
	// platform already exists (first-writer-wins: not counted);
	// triaged is new.
	if res.Writes.NodesCreated != 0 || res.Writes.PropsSet != 1 {
		t.Fatalf("augmenting merge counts: %+v", res.Writes)
	}
	res, err = eng.Query(`merge (m:Malware {name: "wannacry", triaged: "1"})`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if *res.Writes != (WriteStats{}) {
		t.Fatalf("pure merge hit counted: %+v", res.Writes)
	}
}

// TestEdgeAugmentCounted: re-merging an existing edge with new
// attributes is a WAL-logged mutation and counts as props set.
func TestEdgeAugmentCounted(t *testing.T) {
	s := graph.New()
	eng := NewEngine(s, Options{UseIndexes: true})
	if _, err := eng.Query(`create (a:A {name: "a"})-[:pair]->(b:B {name: "b"})`, nil); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Query(`match (a:A {name: "a"}), (b:B {name: "b"}) merge (a)-[:pair {proto: "udp"}]->(b)`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Writes.EdgesCreated != 0 || res.Writes.PropsSet != 1 {
		t.Fatalf("edge augment counts: %+v", res.Writes)
	}
	res, err = eng.Query(`match (a:A {name: "a"}), (b:B {name: "b"}) merge (a)-[:pair {proto: "udp"}]->(b)`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if *res.Writes != (WriteStats{}) {
		t.Fatalf("idempotent edge merge counted: %+v", res.Writes)
	}
}

// TestClauseOrderDiagnostics: reads/creates after SET/DELETE name the
// WITH remedy instead of a generic expected-token error.
func TestClauseOrderDiagnostics(t *testing.T) {
	for _, src := range []string{
		`match (n:Host) set n.seen = "1" create (m:Audit {name: "a1"})`,
		`match (n) delete n match (m) return m`,
		`match (n) detach delete n set n.x = "1"`,
	} {
		_, err := Parse(src)
		if err == nil || !strings.Contains(err.Error(), "separate them with WITH") {
			t.Errorf("%q: %v", src, err)
		}
	}
}
