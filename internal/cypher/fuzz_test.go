package cypher

// Native Go fuzz targets for the query surface. Invariants:
//
//   - FuzzParse: the parser never panics, whatever the input bytes.
//   - FuzzEngineQuery: any input the parser accepts either executes or
//     returns an error — the engine never panics and never hangs (the
//     byte budget bounds enumeration; variable-length BFS is
//     visited-set bounded).
//
// The seed corpus is every query string already used across the package
// tests, the examples and the benchmarks, so the fuzzers start from the
// full grammar instead of rediscovering it. Run with:
//
//	go test ./internal/cypher -fuzz FuzzParse -fuzztime 30s
//	go test ./internal/cypher -fuzz FuzzEngineQuery -fuzztime 30s

import (
	"sync"
	"testing"

	"securitykg/internal/graph"
)

// seedQueries is the corpus: every statement shape the tests, examples
// and benchmarks exercise, including the expanded surface.
var seedQueries = []string{
	// Paper demo scenarios and basic matching.
	`match(n) where n.name = "wannacry" return n`,
	`match (m:Malware {name: "wannacry"}) return m.name`,
	`match (m:Malware)-[:CONNECT]->(x) return x.name order by x.name`,
	`match (x)<-[:CONNECT]-(m) return m.name, x.name order by x.name`,
	`match (a {name: "10.1.2.3"})-[r]-(b) return type(r), b.name`,
	`match (r:MalwareReport)-[:DESCRIBES]->(m)-[:EXPLOIT]->(v) return r.name, m.name, v.name`,
	`match (a:ThreatActor {name: "cozyduke"})-[:USE]->(t)<-[:USE]-(other) where other.name <> "cozyduke" return distinct other.name`,
	`match (n) where n.name contains "duke" return n`,
	`match (n) where n.name starts with "CVE" return n`,
	`match (n) where n.name ends with ".exe" return n`,
	`match (n:ThreatActor) where not n.name = "apt29" return n`,
	`match (n:Technique) where n.name = "spearphishing" or n.name = "credential dumping" return n`,
	`match (n) where n.name <> n.name return n`,
	`match (a:ThreatActor)-[:USE]->(t) return a.name, count(t) order by a.name`,
	`match (n) return count(*)`,
	`match (n) return n.name order by n.name desc limit 3`,
	`match (n) return n.name order by n.name skip 8`,
	`match (n {name: "wannacry"}) return n.name as malware_name`,
	`match (n {name: "wannacry"}) return labels(n), id(n), upper(n.name)`,
	`match (n:Malware) where n.platform = "windows" return n.name`,
	`match (a:Technique), (b:ThreatActor) return a.name, b.name`,
	`match (m:Malware)-[:EXPLOIT]->(v), (m)-[:DROP]->(f) return m.name, v.name, f.name`,
	`MATCH (n) WHERE n.name = "wannacry" RETURN n LIMIT 5`,
	`match (n) where n.type = "A" return n.name`,
	`match (n) where n.label = "A" return n.name`,
	`match (p)-[:E]->(q) where q.name contains "zzz" and count(p) > 0 return p.name`,
	`match (a), (b), (c) return count(*)`,
	`match (ip:IP)<-[:CONNECT]-(m:Malware) return ip.name`,
	`match (n) where n.name = "hub" and n.type = "Malware" return n`,
	`match (m:Malware) where m.platform = "solaris" return m.name`,
	`match (m:Malware)-[:CONNECT]->(ip), (m)-[:CONNECT]->(ip2) return ip.name, ip2.name`,
	`explain match (m:Malware)-[:CONNECT]->(ip) where ip.name contains "10." return ip.name limit 5`,
	`explain match (n) return n`,
	`match (m {name: "malware-5000"})-[:CONNECT]->(ip)<-[:CONNECT]-(m2) return m2.name`,
	`match (m:Malware)-[:CONNECT]->(ip) return m.name, ip.name limit 10`,
	`match (m {name: "wannacry"})-[:ATTRIBUTED_TO]->(a:ThreatActor) return a.name`,
	`match (r)-[:DESCRIBES]->(m {name: "x"}) return r.name, r.source`,
	// Expanded surface: variable-length, OPTIONAL MATCH, WITH, aggregates.
	`match (a:Malware {name:"X"})-[:uses*1..3]->(b) return b.name`,
	`match (a:Malware {name:"X"})-[:uses*2]->(b) return b.name`,
	`match (a:Malware {name:"X"})-[:uses*..2]->(b) return b.name`,
	`match (a:Malware {name:"X"})-[:uses*2..]->(b) return b.name`,
	`match (a:Malware {name:"X"})-[:uses*]->(b) return b.name`,
	`match (a)-[*2]->(b) return a`,
	`match (a)-[:T*0..1]->(b) return b.name`,
	`match (h:Host {name:"h1"})<-[:uses*1..3]-(b) return b.name`,
	`match (m {name:"t1"})-[:uses*1..1]-(b) return b.name`,
	`match (a:Tool) optional match (a)-[:uses]->(b:Tool) return a.name, b.name order by a.name`,
	`match (a:Malware) optional match (a)-[:uses]->(b) where b.name = "nope" return a.name, b.name`,
	`match (h:Host) optional match (h)-[:uses]->(x) optional match (x)-[:uses]->(y) return h.name, x.name, y.name`,
	`optional match (n:Nothing) return n.name`,
	`match (a:Malware)-[:uses]->(b) with b as tool match (tool)-[:uses]->(c) return tool.name, c.name`,
	`match (n:Tool) with n.name as nm where nm <> "t1" return nm`,
	`match (n)-[]->(m) with distinct m.type as ty return ty order by ty`,
	`match (n:Tool) with n.name as nm with nm where nm starts with "t" return nm order by nm`,
	`match (a)-[:uses]->(b) with a, count(b) as fanout where fanout >= 1 match (a)-[:drops]->(f) return a.name, fanout, f.name`,
	`match (a:Actor)-[:USE]->(t) return a.name, min(t.name), max(t.name), sum(id(t)), collect(t.name), count(t)`,
	`match (m:Malware {name:"X"}) optional match (m)-[:uses*1..3]->(asset) with m, collect(asset.name) as reachable return m.name, reachable`,
	`match (n) return n.name order by n.rank`,
	`explain match (m:Malware {name:"X"})-[:uses*1..3]->(b) optional match (b)-[:uses]->(c) with b, count(c) as deps where deps >= 0 return b.name, deps order by b.name limit 5`,
	// Parameterized surface: inline $param props, WHERE operands on both
	// sides, projections, and params the fixed binding set doesn't cover
	// (which must error cleanly, not crash).
	`match (n {name: $p}) return n`,
	`match (n:Malware {name: $p, platform: $plat}) return n.name`,
	`match (n) where n.name = $p or $p = n.name return n.name`,
	`match (n) where n.name contains $frag and not n.name = $p return n.name, $num`,
	`match (a {name: $p})-[:uses*1..2]->(b) return b.name`,
	`match (a:Tool) optional match (a)-[:uses]->(b {name: $p}) return a.name, b.name`,
	`match (a)-[:uses]->(b) with a, count(b) as c where c >= $num return a.name, c`,
	`explain match (n {name: $p}) return n`,
	`match (n {name: $unbound_param}) return n`,
	`match (n) where n.name = $ return n`,
	// Write surface: CREATE/MERGE/SET/DELETE, edge props, params,
	// optional RETURN, WITH chaining across writes.
	`create (m:Malware {name: "petya"})`,
	`create (m:Malware {name: $p, platform: $plat})-[:CONNECT {proto: "tcp"}]->(ip:IP {name: "10.0.0.9"})`,
	`merge (t:Tool {name: "t9"}) return t.name`,
	`merge (t:Tool {name: $p}) set t.seen = $num return t.name, t.seen`,
	`match (m:Malware) set m.family = "worm", m.active = true return m.name order by m.name`,
	`match (a:Tool) optional match (a)-[:uses]->(b) set b.mark = "1" return a.name`,
	`match (m {name: "wannacry"})-[r]-(x) delete r return count(*)`,
	`match (m:Malware {name: "X"}) detach delete m`,
	`match (t:Tool) with t where t.name = "t1" create (g:Host {name: "h7"})-[:runs]->(t) return g.name`,
	`create (a:A {name: "a"}), (b:B {name: "b"}) create (a)-[:pair]->(b)`,
	`match (a:A {name: "a"}), (b:B {name: "b"}) merge (a)-[:pair]->(b)`,
	`match (n:Host) delete n`,
	`create (x:T)`,
	`create (x {name: "nolabel"})`,
	`match (t:Tool) set t.name = "nope"`,
	`create (a:A {name:"a"})-[:T*1..2]->(b:B {name:"b"})`,
	`match (a)-[r:uses {w: "1"}]->(b) return a`,
	`detach delete n`,
	// Transaction control: standalone statements routed by sessions, plus
	// malformed mixes that must fail in the parser, never the executor.
	`begin`,
	`BEGIN`,
	`begin transaction`,
	`commit`,
	`COMMIT TRANSACTION`,
	`rollback`,
	`rollback transaction`,
	`  begin  `,
	`begin match (n) return n`,
	`commit (n)`,
	`explain begin`,
	`beginner`,
	// Historic parse-error corpus (must keep failing cleanly).
	``,
	`return 1`,
	`match (n) return`,
	`match (n where x return n`,
	`match (n) where n.name = return n`,
	`match (n)-[r->(m) return n`,
	`match (n) return n order by`,
	`match (n) return n limit -1`,
	`match (n) return n trailing`,
	`match (n) where n.name = "unterminated return n`,
	`match (a)-[r:T*1..3]->(b) return a`,
	`match (a)-[:T*3..1]->(b) return a`,
	`match (a)-[:T*1.5]->(b) return a`,
	`match (n) return min(*)`,
	`match (n) with return n`,
	`match (n) with n order by n.name return n`,
	`match (n) return n with n`,
	`match (a:Malware), (b:IP) where a.name = b.name return a.name, b.name`,
	`match (a)-[:uses]->(x), (b)-[:uses]->(y) where x.name = y.name and a.name = b.name return count(*)`,
	`match (a {name: "x"})-[:uses]->()-[:uses]->()-[:uses]->(b) return b.name, count(*)`,
	`match (a {name: "x"})-[:uses]->()-[:uses]->()-[:uses]->(a) return count(*)`,
}

// buildFuzzStore constructs the small graph the engine fuzz target
// queries. Read-only executions share one instance (fuzzStore); write
// statements get a fresh copy per execution so mutations cannot leak
// across fuzz iterations.
func buildFuzzStore() *graph.Store {
	s := graph.New()
	s.IndexAttr("platform")
	x, _ := s.MergeNode("Malware", "X", map[string]string{"platform": "windows"})
	t1, _ := s.MergeNode("Tool", "t1", nil)
	t2, _ := s.MergeNode("Tool", "t2", nil)
	h1, _ := s.MergeNode("Host", "h1", nil)
	wc, _ := s.MergeNode("Malware", "wannacry", nil)
	ip, _ := s.MergeNode("IP", "10.1.2.3", nil)
	s.AddEdge(x, "uses", t1, nil)
	s.AddEdge(t1, "uses", t2, nil)
	s.AddEdge(t2, "uses", h1, nil)
	s.AddEdge(wc, "CONNECT", ip, nil)
	s.AddEdge(wc, "uses", x, nil) // cycle via x -> ... plus cross-type edge
	s.AddEdge(h1, "uses", x, nil) // real cycle for unbounded BFS
	return s
}

// fuzzStore is the shared read-only instance; built once because fuzz
// workers call the target millions of times.
var (
	fuzzStoreOnce sync.Once
	fuzzStoreVal  *graph.Store
)

func fuzzStore() *graph.Store {
	fuzzStoreOnce.Do(func() { fuzzStoreVal = buildFuzzStore() })
	return fuzzStoreVal
}

// FuzzParse asserts the parser never panics on arbitrary input.
func FuzzParse(f *testing.F) {
	for _, q := range seedQueries {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err == nil && q == nil {
			t.Fatal("Parse returned nil query without error")
		}
	})
}

// fuzzArgs is the fixed binding set the engine fuzz target executes
// with: enough names/kinds to exercise param seeks, inline param props
// and numeric comparisons. Queries referencing other $params must error
// cleanly ("missing parameter"), never panic.
var fuzzArgs = map[string]any{
	"p":    "X",
	"plat": "windows",
	"frag": "1",
	"num":  1,
}

// FuzzEngineQuery asserts the engine returns an error rather than
// crashing on any parse-accepted input. The byte budget (1 MiB) bounds
// enumeration — unbounded cross products abort with *BudgetError
// instead of hanging.
func FuzzEngineQuery(f *testing.F) {
	for _, q := range seedQueries {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			return // parser rejected it; FuzzParse covers the no-panic side
		}
		if q.TxOp != TxNone {
			// Transaction control parses but must be rejected by the plain
			// entry points and handled (or cleanly refused) by a session.
			eng := NewEngine(fuzzStore(), Options{UseIndexes: true, MaxBytes: 1 << 20})
			if _, err := eng.Query(src, fuzzArgs); err == nil {
				t.Fatalf("tx control %q executed through plain Query", src)
			}
			tx, err := eng.Begin()
			if err != nil {
				t.Fatalf("Begin: %v", err)
			}
			tx.Query(src, fuzzArgs) // COMMIT/ROLLBACK finish it; nested BEGIN errors
			if !tx.Done() {
				tx.Rollback()
			}
			return
		}
		s := fuzzStore()
		if q.HasWrites() {
			// Write statements mutate: give each execution its own store so
			// iterations stay independent.
			s = buildFuzzStore()
		}
		eng := NewEngine(s, Options{UseIndexes: true, MaxBytes: 1 << 20})
		res, err := eng.Query(src, fuzzArgs)
		if err == nil && res == nil {
			t.Fatalf("nil result without error for %q", src)
		}
	})
}
