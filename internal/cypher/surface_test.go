package cypher

// Unit tests for the expanded Cypher surface: variable-length patterns,
// OPTIONAL MATCH, WITH chaining, and the min/max/sum/collect aggregates.
// Each behavior is asserted on the planned engine and cross-checked
// against the reference evaluator where the shape allows it.

import (
	"fmt"
	"strings"
	"testing"

	"securitykg/internal/graph"
)

// chainStore is a 4-deep uses-chain with a side branch:
//
//	X -uses-> t1 -uses-> t2 -uses-> h1
//	X -drops-> f1
func chainStore(t *testing.T) *graph.Store {
	t.Helper()
	s := graph.New()
	x, _ := s.MergeNode("Malware", "X", nil)
	t1, _ := s.MergeNode("Tool", "t1", nil)
	t2, _ := s.MergeNode("Tool", "t2", nil)
	h1, _ := s.MergeNode("Host", "h1", nil)
	f1, _ := s.MergeNode("FileName", "f1", nil)
	for _, e := range [][2]graph.NodeID{{x, t1}, {t1, t2}, {t2, h1}} {
		if _, _, err := s.AddEdge(e[0], "uses", e[1], nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := s.AddEdge(x, "drops", f1, nil); err != nil {
		t.Fatal(err)
	}
	return s
}

// bothEngines runs q on the planned engine and the reference and asserts
// row multiset parity before returning the planned result.
func bothEngines(t *testing.T, s *graph.Store, q string) *Result {
	t.Helper()
	planned, err := NewEngine(s, DefaultOptions()).Query(q, nil)
	if err != nil {
		t.Fatalf("planned %q: %v", q, err)
	}
	ref, err := reference{s}.Query(q, nil)
	if err != nil {
		t.Fatalf("reference %q: %v", q, err)
	}
	if !sameMultiset(renderRows(planned), renderRows(ref)) {
		t.Fatalf("engine and reference disagree on %q:\nplanned:   %v\nreference: %v",
			q, renderRows(planned), renderRows(ref))
	}
	return planned
}

func TestVarLengthBounds(t *testing.T) {
	s := chainStore(t)
	cases := []struct {
		q    string
		want []string
	}{
		{`match (a:Malware {name:"X"})-[:uses*1..3]->(b) return b.name order by b.name`, []string{"h1", "t1", "t2"}},
		{`match (a:Malware {name:"X"})-[:uses*2..2]->(b) return b.name`, []string{"t2"}},
		{`match (a:Malware {name:"X"})-[:uses*2]->(b) return b.name`, []string{"t2"}},
		{`match (a:Malware {name:"X"})-[:uses*..2]->(b) return b.name order by b.name`, []string{"t1", "t2"}},
		{`match (a:Malware {name:"X"})-[:uses*2..]->(b) return b.name order by b.name`, []string{"h1", "t2"}},
		{`match (a:Malware {name:"X"})-[:uses*]->(b) return b.name order by b.name`, []string{"h1", "t1", "t2"}},
		{`match (a:Malware {name:"X"})-[:uses*0..1]->(b) return b.name order by b.name`, []string{"X", "t1"}},
		// Label/type constraints on the target filter the reachable set.
		{`match (a:Malware {name:"X"})-[:uses*1..3]->(b:Host) return b.name`, []string{"h1"}},
		// Typed traversal only follows the named relationship.
		{`match (a:Malware {name:"X"})-[:drops*1..3]->(b) return b.name`, []string{"f1"}},
	}
	for _, c := range cases {
		res := bothEngines(t, s, c.q)
		var got []string
		for _, r := range res.Rows {
			got = append(got, r[0].Str)
		}
		if !sameMultiset(got, c.want) {
			t.Errorf("%s: got %v, want %v", c.q, got, c.want)
		}
	}
}

func TestVarLengthDirections(t *testing.T) {
	s := chainStore(t)
	// Reverse arrow walks edges backwards from the anchor.
	res := bothEngines(t, s, `match (h:Host {name:"h1"})<-[:uses*1..3]-(b) return b.name order by b.name`)
	var got []string
	for _, r := range res.Rows {
		got = append(got, r[0].Str)
	}
	if !sameMultiset(got, []string{"X", "t1", "t2"}) {
		t.Errorf("reverse var-length: %v", got)
	}
	// Undirected traversal reaches everything connected within range.
	res = bothEngines(t, s, `match (m {name:"t1"})-[:uses*1..1]-(b) return b.name order by b.name`)
	got = nil
	for _, r := range res.Rows {
		got = append(got, r[0].Str)
	}
	if !sameMultiset(got, []string{"X", "t2"}) {
		t.Errorf("undirected var-length: %v", got)
	}
}

func TestVarLengthReachabilitySemantics(t *testing.T) {
	// Diamond: two paths of length 2 to the same node — reachability
	// semantics bind the endpoint once, not once per path.
	s := graph.New()
	a, _ := s.MergeNode("T", "a", nil)
	b, _ := s.MergeNode("T", "b", nil)
	c, _ := s.MergeNode("T", "c", nil)
	d, _ := s.MergeNode("T", "d", nil)
	s.AddEdge(a, "E", b, nil)
	s.AddEdge(a, "E", c, nil)
	s.AddEdge(b, "E", d, nil)
	s.AddEdge(c, "E", d, nil)
	res := bothEngines(t, s, `match (x {name:"a"})-[:E*1..2]->(y {name:"d"}) return y.name`)
	if len(res.Rows) != 1 {
		t.Errorf("diamond endpoint bound %d times, want 1 (reachability semantics)", len(res.Rows))
	}
	// A node whose shortest distance is below the minimum is excluded
	// even if a longer walk could reach it.
	res = bothEngines(t, s, `match (x {name:"a"})-[:E*2..2]->(y) return y.name`)
	if len(res.Rows) != 1 || res.Rows[0][0].Str != "d" {
		t.Errorf("min-hop filter by shortest distance: %+v", res.Rows)
	}
}

func TestStarOneIsReachabilityNotEdgeMultiplicity(t *testing.T) {
	// Regression: "*1" must use var-length reachability semantics (one
	// row per distinct neighbor), not plain-edge multiplicity (one row
	// per connecting edge). With a->b and b->a, an undirected plain edge
	// pattern sees b twice; "*1" must see it once.
	s := graph.New()
	a, _ := s.MergeNode("T", "a", nil)
	b, _ := s.MergeNode("T", "b", nil)
	s.AddEdge(a, "E", b, nil)
	s.AddEdge(b, "E", a, nil)
	plain := bothEngines(t, s, `match (x {name:"a"})-[:E]-(y) return y.name`)
	if len(plain.Rows) != 2 {
		t.Errorf("plain edge rows = %d, want 2 (per-edge multiplicity)", len(plain.Rows))
	}
	star1 := bothEngines(t, s, `match (x {name:"a"})-[:E*1]-(y) return y.name`)
	if len(star1.Rows) != 1 || star1.Rows[0][0].Str != "b" {
		t.Errorf("*1 rows = %+v, want single b (reachability semantics)", star1.Rows)
	}
	// And "*1" appears as a VarExpand in the plan, not an Expand.
	plan, err := NewEngine(s, DefaultOptions()).Explain(`match (x {name:"a"})-[:E*1]-(y) return y.name`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "VarExpand") || !strings.Contains(plan, "[:E*1]") {
		t.Errorf("*1 plan:\n%s", plan)
	}
}

func TestVarLengthOnCycle(t *testing.T) {
	// BFS with a visited set terminates on cycles even unbounded.
	s := graph.New()
	a, _ := s.MergeNode("T", "a", nil)
	b, _ := s.MergeNode("T", "b", nil)
	s.AddEdge(a, "E", b, nil)
	s.AddEdge(b, "E", a, nil)
	res := bothEngines(t, s, `match (x {name:"a"})-[:E*]->(y) return y.name`)
	if len(res.Rows) != 1 || res.Rows[0][0].Str != "b" {
		t.Errorf("cycle traversal: %+v (start node is distance 0, excluded)", res.Rows)
	}
}

func TestOptionalMatchNullPadding(t *testing.T) {
	s := chainStore(t)
	// t2 uses h1; h1 uses nothing — its row survives with a null.
	res := bothEngines(t, s, `match (a:Tool) optional match (a)-[:uses]->(b:Tool) return a.name, b.name order by a.name`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows: %+v", res.Rows)
	}
	if res.Rows[0][0].Str != "t1" || res.Rows[0][1].Str != "t2" {
		t.Errorf("matched optional row: %+v", res.Rows[0])
	}
	if res.Rows[1][0].Str != "t2" || res.Rows[1][1].Kind != KindNull {
		t.Errorf("null-padded row: %+v", res.Rows[1])
	}
}

func TestOptionalMatchWhereIsPartOfMatching(t *testing.T) {
	s := chainStore(t)
	// The optional WHERE filters inside the optional match: failing it
	// null-pads instead of dropping the row.
	res := bothEngines(t, s,
		`match (a:Malware) optional match (a)-[:uses]->(b) where b.name = "nope" return a.name, b.name`)
	if len(res.Rows) != 1 || res.Rows[0][0].Str != "X" || res.Rows[0][1].Kind != KindNull {
		t.Fatalf("optional where: %+v", res.Rows)
	}
}

func TestChainedOptionalMatches(t *testing.T) {
	s := chainStore(t)
	// Second optional anchors on a var the first may have left null.
	res := bothEngines(t, s,
		`match (h:Host) optional match (h)-[:uses]->(x) optional match (x)-[:uses]->(y) return h.name, x.name, y.name`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows: %+v", res.Rows)
	}
	row := res.Rows[0]
	if row[0].Str != "h1" || row[1].Kind != KindNull || row[2].Kind != KindNull {
		t.Errorf("chained optional nulls: %+v", row)
	}
}

func TestOptionalMatchVarLength(t *testing.T) {
	s := chainStore(t)
	res := bothEngines(t, s,
		`match (n) optional match (n)-[:uses*2..3]->(far) return n.name, far.name order by n.name`)
	// Every node keeps at least one row; X reaches t2 and h1 two+ hops out.
	byName := map[string][]string{}
	for _, r := range res.Rows {
		v := "null"
		if r[1].Kind != KindNull {
			v = r[1].Str
		}
		byName[r[0].Str] = append(byName[r[0].Str], v)
	}
	if !sameMultiset(byName["X"], []string{"t2", "h1"}) {
		t.Errorf("X far targets: %v", byName["X"])
	}
	if !sameMultiset(byName["h1"], []string{"null"}) {
		t.Errorf("h1 should null-pad: %v", byName["h1"])
	}
}

func TestWithChaining(t *testing.T) {
	s := chainStore(t)
	// WITH renames and filters mid-pipeline; the second MATCH anchors on
	// the carried variable.
	res := bothEngines(t, s,
		`match (a:Malware)-[:uses]->(b) with b as tool match (tool)-[:uses]->(c) return tool.name, c.name`)
	if len(res.Rows) != 1 || res.Rows[0][0].Str != "t1" || res.Rows[0][1].Str != "t2" {
		t.Fatalf("with chaining: %+v", res.Rows)
	}
	// WITH ... WHERE filters projected values.
	res = bothEngines(t, s,
		`match (n:Tool) with n.name as nm where nm <> "t1" return nm`)
	if len(res.Rows) != 1 || res.Rows[0][0].Str != "t2" {
		t.Fatalf("with where: %+v", res.Rows)
	}
	// WITH DISTINCT collapses duplicates before the next stage.
	res = bothEngines(t, s,
		`match (n)-[]->(m) with distinct m.type as ty return ty order by ty`)
	if len(res.Rows) != 3 {
		t.Fatalf("with distinct: %+v", res.Rows)
	}
	// Double WITH chains.
	res = bothEngines(t, s,
		`match (n:Tool) with n.name as nm with nm where nm starts with "t" return nm order by nm`)
	if len(res.Rows) != 2 || res.Rows[0][0].Str != "t1" {
		t.Fatalf("double with: %+v", res.Rows)
	}
}

func TestWithAggregationThenMatch(t *testing.T) {
	s := chainStore(t)
	// Aggregate in WITH, filter on the aggregate, keep matching.
	res := bothEngines(t, s,
		`match (a)-[:uses]->(b) with a, count(b) as fanout where fanout >= 1 match (a)-[:drops]->(f) return a.name, fanout, f.name`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows: %+v", res.Rows)
	}
	row := res.Rows[0]
	if row[0].Str != "X" || row[1].Num != 1 || row[2].Str != "f1" {
		t.Errorf("aggregated with: %+v", row)
	}
}

func TestNewAggregates(t *testing.T) {
	s := graph.New()
	a, _ := s.MergeNode("Actor", "apt", nil)
	for i := 1; i <= 3; i++ {
		tl, _ := s.MergeNode("Tool", fmt.Sprintf("t%d", i), nil)
		s.AddEdge(a, "USE", tl, nil)
	}
	res := bothEngines(t, s,
		`match (a:Actor)-[:USE]->(t) return a.name, min(t.name), max(t.name), sum(id(t)), collect(t.name), count(t)`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows: %+v", res.Rows)
	}
	row := res.Rows[0]
	if row[1].Str != "t1" || row[2].Str != "t3" {
		t.Errorf("min/max: %+v", row)
	}
	if row[3].Kind != KindNumber || row[3].Num == 0 {
		t.Errorf("sum: %+v", row[3])
	}
	if row[4].Kind != KindList || len(row[4].List) != 3 || row[4].String() != "[t1, t2, t3]" {
		t.Errorf("collect: %+v", row[4])
	}
	if row[5].Num != 3 {
		t.Errorf("count: %+v", row[5])
	}
}

func TestAggregatesSkipNulls(t *testing.T) {
	s := chainStore(t)
	// h1 has no outgoing uses: the optional null must not enter the
	// aggregates; collect of nothing is the empty list, min of nothing
	// is null, count of nothing is 0.
	res := bothEngines(t, s,
		`match (n {name:"h1"}) optional match (n)-[:uses]->(m) return n.name, count(m), min(m.name), collect(m.name)`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows: %+v", res.Rows)
	}
	row := res.Rows[0]
	if row[1].Num != 0 || row[2].Kind != KindNull || row[3].Kind != KindList || len(row[3].List) != 0 {
		t.Errorf("null handling: %+v", row)
	}
}

// TestCollectOrder holds collect()'s list to Value.order however it was
// folded: strings only (kept as strings until the list is built),
// strings then other kinds (switched over at the first non-string),
// other kinds first, and nothing but nulls (the empty list).
func TestCollectOrder(t *testing.T) {
	for _, tc := range []struct{ list, want string }{
		{`["c", "a", "b", "a"]`, "[a, a, b, c]"},
		{`["c", "a", 2, "b", 1, true]`, "[a, b, c, 1, 2, true]"},
		{`[3, "b", null, true, 1.5, "a", false]`, "[a, b, 1.5, 3, false, true]"},
		{`[null, null]`, "[]"},
	} {
		res := bothEngines(t, graph.New(), `unwind `+tc.list+` as v with "g" as g, collect(v) as vs return g, vs`)
		if got := renderRows(res); len(got) != 1 || got[0] != "g|"+tc.want {
			t.Errorf("collect over %s: %v, want [g|%s]", tc.list, got, tc.want)
		}
	}
}

func TestSumOverNonNumericErrors(t *testing.T) {
	s := chainStore(t)
	q := `match (n:Tool) return sum(n.name)`
	for qi, eng := range []querier{NewEngine(s, Options{UseIndexes: true}), reference{s}} {
		_, err := eng.Query(q, nil)
		if err == nil || !strings.Contains(err.Error(), "sum()") {
			t.Errorf("querier %d: want sum() type error, got %v", qi, err)
		}
	}
}

func TestAggregateExact(t *testing.T) {
	// Aggregates fold the full stream: counts are exact, also through a
	// WITH bridge. The old engine silently stopped consuming at a
	// row-derived match cap; the byte budget made that an explicit error
	// path instead (see TestAggregateBudgetBoundsEnumeration).
	s := graph.New()
	n := 1005
	for i := 0; i < n; i++ {
		s.MergeNode("T", fmt.Sprintf("n%d", i), nil)
	}
	for _, q := range []string{
		`match (n) return count(*)`,
		`match (n) with count(*) as c return c`,
	} {
		res, err := NewEngine(s, Options{UseIndexes: true}).Query(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Rows[0][0].Num != float64(n) {
			t.Errorf("%s: count=%v, want %d", q, res.Rows[0][0].Num, n)
		}
	}
}

func TestOptionalWithCollectHuntQuery(t *testing.T) {
	// The acceptance-criteria shape: OPTIONAL MATCH + WITH + collect.
	s := chainStore(t)
	res := bothEngines(t, s, `match (m:Malware {name:"X"})
		optional match (m)-[:uses*1..3]->(asset)
		with m, collect(asset.name) as reachable
		return m.name, reachable`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows: %+v", res.Rows)
	}
	if res.Rows[0][1].String() != "[h1, t1, t2]" {
		t.Errorf("reachable set: %s", res.Rows[0][1])
	}
}

func TestNewSurfaceParseErrors(t *testing.T) {
	bad := []string{
		`match (a)-[r:T*1..3]->(b) return a`,        // var-length cannot bind
		`match (a)-[:T*3..1]->(b) return a`,         // empty range
		`match (a)-[:T*1.5]->(b) return a`,          // fractional hops
		`match (n) return min(*)`,                   // star only for count
		`match (n) with return n`,                   // WITH needs items
		`optional match (n) return n limit x`,       // bad limit
		`match (n) with n order by n.name return n`, // ORDER BY only on RETURN
		`match (n) return n with n`,                 // WITH after RETURN
	}
	s := graph.New()
	eng := NewEngine(s, DefaultOptions())
	for _, q := range bad {
		if _, err := eng.Query(q, nil); err == nil {
			t.Errorf("query %q should fail to parse/run", q)
		}
	}
	good := []string{
		`match (a)-[:T*]->(b) return a`,
		`match (a)-[:T*..]->(b) return a`, // "*.." = unbounded, same as "*"
		`match (a)-[*2]->(b) return a`,
		`match (a)-[:T*0..]->(b) return a`,
		`optional match (n) return n`,
		`match (n) with n, n.name as x where x = "q" return x`,
	}
	for _, q := range good {
		if _, err := Parse(q); err != nil {
			t.Errorf("query %q should parse: %v", q, err)
		}
	}
}

func TestQueryStartingWithOptionalMatch(t *testing.T) {
	s := graph.New()
	res := bothEngines(t, s, `optional match (n:Nothing) return n.name`)
	if len(res.Rows) != 1 || res.Rows[0][0].Kind != KindNull {
		t.Errorf("leading optional on empty store: %+v", res.Rows)
	}
}

func TestExplainNewOperators(t *testing.T) {
	s := chainStore(t)
	plan, err := NewEngine(s, DefaultOptions()).Explain(`match (m:Malware {name:"X"})-[:uses*1..3]->(b)
		optional match (b)-[:uses]->(c)
		with b, count(c) as deps where deps >= 0
		return b.name, deps order by b.name limit 5`)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"VarExpand", "[:uses*1..3]", "Optional [introduces c", "With (aggregating)",
		"where deps >= 0", "Sort b.name", "Limit 5",
	} {
		if !strings.Contains(plan, want) {
			t.Errorf("explain output missing %q:\n%s", want, plan)
		}
	}
}
