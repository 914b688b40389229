package cypher

import (
	"fmt"
	"strings"
	"testing"

	"securitykg/internal/graph"
)

// buildDemoGraph assembles the small KG used across query tests: the
// WannaCry neighborhood plus a CozyDuke actor, mirroring the demo
// scenarios in Section 3 of the paper.
func buildDemoGraph(t *testing.T) *graph.Store {
	t.Helper()
	s := graph.New()
	add := func(typ, name string) graph.NodeID {
		id, _ := s.MergeNode(typ, name, nil)
		return id
	}
	edge := func(a graph.NodeID, rel string, b graph.NodeID) {
		if _, _, err := s.AddEdge(a, rel, b, nil); err != nil {
			t.Fatal(err)
		}
	}
	wc := add("Malware", "wannacry")
	fam := add("MalwareFamily", "ransomware")
	ip := add("IP", "10.1.2.3")
	dom := add("Domain", "kill.switch.com")
	cve := add("Vulnerability", "CVE-2017-0144")
	f1 := add("FileName", "tasksche.exe")
	cozy := add("ThreatActor", "cozyduke")
	t1 := add("Technique", "spearphishing")
	t2 := add("Technique", "credential dumping")
	apt29 := add("ThreatActor", "apt29")
	rep := add("MalwareReport", "report-001")
	vendor := add("CTIVendor", "AcmeSec")

	edge(wc, "BELONG_TO", fam)
	edge(wc, "CONNECT", ip)
	edge(wc, "CONNECT", dom)
	edge(wc, "EXPLOIT", cve)
	edge(wc, "DROP", f1)
	edge(cozy, "USE", t1)
	edge(cozy, "USE", t2)
	edge(apt29, "USE", t1)
	edge(apt29, "USE", t2)
	edge(rep, "DESCRIBES", wc)
	edge(rep, "REPORTED_BY", vendor)
	return s
}

func run(t *testing.T, s *graph.Store, q string) *Result {
	t.Helper()
	res, err := NewEngine(s, DefaultOptions()).Query(q, nil)
	if err != nil {
		t.Fatalf("query %q: %v", q, err)
	}
	return res
}

func TestPaperDemoQuery(t *testing.T) {
	// The literal third demo scenario from the paper:
	// match(n) where n.name = "wannacry" return n
	s := buildDemoGraph(t)
	res := run(t, s, `match(n) where n.name = "wannacry" return n`)
	if len(res.Rows) != 1 {
		t.Fatalf("expected 1 row, got %d", len(res.Rows))
	}
	v := res.Rows[0][0]
	if v.Kind != KindNode || v.Node.Name != "wannacry" || v.Node.Type != "Malware" {
		t.Errorf("wrong node: %v", v)
	}
}

func TestMatchWithLabelAndInlineProps(t *testing.T) {
	s := buildDemoGraph(t)
	res := run(t, s, `match (m:Malware {name: "wannacry"}) return m.name`)
	if len(res.Rows) != 1 || res.Rows[0][0].Str != "wannacry" {
		t.Fatalf("rows: %+v", res.Rows)
	}
	res = run(t, s, `match (m:Tool {name: "wannacry"}) return m`)
	if len(res.Rows) != 0 {
		t.Errorf("label mismatch should return no rows")
	}
}

func TestMatchDirectedEdge(t *testing.T) {
	s := buildDemoGraph(t)
	res := run(t, s, `match (m:Malware)-[:CONNECT]->(x) return x.name order by x.name`)
	if len(res.Rows) != 2 {
		t.Fatalf("expected 2 connect targets, got %+v", res.Rows)
	}
	if res.Rows[0][0].Str != "10.1.2.3" || res.Rows[1][0].Str != "kill.switch.com" {
		t.Errorf("targets: %+v", res.Rows)
	}
}

func TestMatchReverseDirection(t *testing.T) {
	s := buildDemoGraph(t)
	res := run(t, s, `match (x)<-[:CONNECT]-(m) return m.name, x.name order by x.name`)
	if len(res.Rows) != 2 {
		t.Fatalf("reverse arrow rows: %+v", res.Rows)
	}
	for _, r := range res.Rows {
		if r[0].Str != "wannacry" {
			t.Errorf("source should be wannacry: %+v", r)
		}
	}
}

func TestMatchUndirectedEdge(t *testing.T) {
	s := buildDemoGraph(t)
	res := run(t, s, `match (a {name: "10.1.2.3"})-[r]-(b) return type(r), b.name`)
	if len(res.Rows) != 1 || res.Rows[0][0].Str != "CONNECT" || res.Rows[0][1].Str != "wannacry" {
		t.Fatalf("undirected match: %+v", res.Rows)
	}
}

func TestMultiHopChain(t *testing.T) {
	s := buildDemoGraph(t)
	res := run(t, s, `match (r:MalwareReport)-[:DESCRIBES]->(m)-[:EXPLOIT]->(v) return r.name, m.name, v.name`)
	if len(res.Rows) != 1 {
		t.Fatalf("multi-hop rows: %+v", res.Rows)
	}
	row := res.Rows[0]
	if row[0].Str != "report-001" || row[1].Str != "wannacry" || row[2].Str != "CVE-2017-0144" {
		t.Errorf("chain wrong: %+v", row)
	}
}

func TestSharedTechniquesScenario(t *testing.T) {
	// The paper's CozyDuke scenario: find other actors using the same
	// techniques.
	s := buildDemoGraph(t)
	res := run(t, s, `match (a:ThreatActor {name: "cozyduke"})-[:USE]->(t)<-[:USE]-(other)
		where other.name <> "cozyduke"
		return distinct other.name`)
	if len(res.Rows) != 1 || res.Rows[0][0].Str != "apt29" {
		t.Fatalf("shared-technique actors: %+v", res.Rows)
	}
}

func TestWhereOperators(t *testing.T) {
	s := buildDemoGraph(t)
	cases := []struct {
		q    string
		want int
	}{
		{`match (n) where n.name contains "duke" return n`, 1},
		{`match (n) where n.name starts with "CVE" return n`, 1},
		{`match (n) where n.name ends with ".exe" return n`, 1},
		{`match (n:ThreatActor) where not n.name = "apt29" return n`, 1},
		{`match (n:Technique) where n.name = "spearphishing" or n.name = "credential dumping" return n`, 2},
		{`match (n:Technique) where n.name = "spearphishing" and n.name = "credential dumping" return n`, 0},
		{`match (n) where n.name <> n.name return n`, 0},
	}
	for _, c := range cases {
		if got := len(run(t, s, c.q).Rows); got != c.want {
			t.Errorf("%s: got %d rows, want %d", c.q, got, c.want)
		}
	}
}

func TestCountAggregation(t *testing.T) {
	s := buildDemoGraph(t)
	res := run(t, s, `match (a:ThreatActor)-[:USE]->(t) return a.name, count(t) order by a.name`)
	if len(res.Rows) != 2 {
		t.Fatalf("groups: %+v", res.Rows)
	}
	for _, r := range res.Rows {
		if r[1].Num != 2 {
			t.Errorf("each actor uses 2 techniques: %+v", r)
		}
	}
	res = run(t, s, `match (n) return count(*)`)
	if len(res.Rows) != 1 || res.Rows[0][0].Num != 12 {
		t.Errorf("count(*): %+v", res.Rows)
	}
}

func TestOrderLimitSkip(t *testing.T) {
	s := graph.New()
	for i := 0; i < 10; i++ {
		s.MergeNode("Malware", fmt.Sprintf("m%02d", i), nil)
	}
	res := run(t, s, `match (n) return n.name order by n.name desc limit 3`)
	if len(res.Rows) != 3 || res.Rows[0][0].Str != "m09" {
		t.Fatalf("order/limit: %+v", res.Rows)
	}
	res = run(t, s, `match (n) return n.name order by n.name skip 8`)
	if len(res.Rows) != 2 || res.Rows[0][0].Str != "m08" {
		t.Fatalf("skip: %+v", res.Rows)
	}
}

func TestReturnAlias(t *testing.T) {
	s := buildDemoGraph(t)
	res := run(t, s, `match (n {name: "wannacry"}) return n.name as malware_name`)
	if res.Columns[0] != "malware_name" {
		t.Errorf("alias column: %+v", res.Columns)
	}
}

func TestFunctions(t *testing.T) {
	s := buildDemoGraph(t)
	res := run(t, s, `match (n {name: "wannacry"}) return labels(n), id(n), upper(n.name)`)
	if res.Rows[0][0].Str != "Malware" {
		t.Errorf("labels(): %+v", res.Rows[0])
	}
	if res.Rows[0][1].Kind != KindNumber {
		t.Errorf("id(): %+v", res.Rows[0])
	}
	if res.Rows[0][2].Str != "WANNACRY" {
		t.Errorf("upper(): %+v", res.Rows[0])
	}
}

func TestNodeAttrsAccessibleAsProps(t *testing.T) {
	s := graph.New()
	s.MergeNode("Malware", "x", map[string]string{"platform": "windows"})
	s.MergeNode("Malware", "y", map[string]string{"platform": "linux"})
	res := run(t, s, `match (n:Malware) where n.platform = "windows" return n.name`)
	if len(res.Rows) != 1 || res.Rows[0][0].Str != "x" {
		t.Fatalf("attr filter: %+v", res.Rows)
	}
	// Missing attr evaluates to null and never equals.
	res = run(t, s, `match (n:Malware) where n.missing = "windows" return n`)
	if len(res.Rows) != 0 {
		t.Errorf("null attr matched: %+v", res.Rows)
	}
}

func TestCrossProductPatterns(t *testing.T) {
	s := buildDemoGraph(t)
	res := run(t, s, `match (a:Technique), (b:ThreatActor) return a.name, b.name`)
	if len(res.Rows) != 4 { // 2 techniques x 2 actors
		t.Fatalf("cross product: %d rows", len(res.Rows))
	}
}

func TestIndexAndScanAgree(t *testing.T) {
	s := graph.New()
	for i := 0; i < 200; i++ {
		s.MergeNode("Malware", fmt.Sprintf("m%d", i), nil)
	}
	s.MergeNode("Malware", "needle", nil)
	q := `match (n:Malware) where n.name = "needle" return n.name`
	idx, err := NewEngine(s, Options{UseIndexes: true}).Query(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	scan, err := NewEngine(s, Options{UseIndexes: false}).Query(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx.Rows) != 1 || len(scan.Rows) != 1 {
		t.Fatalf("index=%d scan=%d rows, want 1/1", len(idx.Rows), len(scan.Rows))
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
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
	}
	s := graph.New()
	eng := NewEngine(s, DefaultOptions())
	for _, q := range bad {
		if _, err := eng.Query(q, nil); err == nil {
			t.Errorf("query %q should fail to parse/run", q)
		}
	}
}

func TestOrderByNonReturnedExpression(t *testing.T) {
	s := graph.New()
	s.MergeNode("T", "b", map[string]string{"rank": "2"})
	s.MergeNode("T", "c", map[string]string{"rank": "1"})
	s.MergeNode("T", "a", map[string]string{"rank": "3"})
	// The sort key is not projected: it is evaluated against the match
	// binding as a hidden column and stripped after the sort.
	res := run(t, s, `match (n) return n.name order by n.rank`)
	if len(res.Rows) != 3 || len(res.Rows[0]) != 1 {
		t.Fatalf("rows: %+v", res.Rows)
	}
	got := res.Rows[0][0].Str + res.Rows[1][0].Str + res.Rows[2][0].Str
	if got != "cba" {
		t.Errorf("hidden-key order: %q, want cba", got)
	}
	// Under DISTINCT or aggregation the binding is out of scope per
	// output row, so non-returned sort keys are rejected.
	for _, q := range []string{
		`match (n) return distinct n.name order by n.rank`,
		`match (n) return n.type, count(*) order by n.rank`,
	} {
		if _, err := NewEngine(s, DefaultOptions()).Query(q, nil); err == nil || !strings.Contains(err.Error(), "ORDER BY") {
			t.Errorf("%s: expected ORDER BY error, got %v", q, err)
		}
	}
	// The reference agrees on both semantics.
	rres, err := reference{s}.Query(`match (n) return n.name order by n.rank`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sameMultiset(renderRows(res), renderRows(rres)) || rres.Rows[0][0].Str != "c" {
		t.Errorf("reference hidden-key order: %+v", rres.Rows)
	}
}

func TestKeywordsCaseInsensitive(t *testing.T) {
	s := buildDemoGraph(t)
	res := run(t, s, `MATCH (n) WHERE n.name = "wannacry" RETURN n LIMIT 5`)
	if len(res.Rows) != 1 {
		t.Errorf("uppercase keywords failed: %+v", res.Rows)
	}
}

func TestBoundVariableReusedAcrossPatterns(t *testing.T) {
	s := buildDemoGraph(t)
	// m is bound by the first pattern and constrained in the second.
	res := run(t, s, `match (m:Malware)-[:EXPLOIT]->(v), (m)-[:DROP]->(f) return m.name, v.name, f.name`)
	if len(res.Rows) != 1 {
		t.Fatalf("join on shared var: %+v", res.Rows)
	}
	if res.Rows[0][2].Str != "tasksche.exe" {
		t.Errorf("joined row wrong: %+v", res.Rows[0])
	}
}

func TestValueStringRendering(t *testing.T) {
	if got := NumberValue(3).String(); got != "3" {
		t.Errorf("int-like number: %q", got)
	}
	if got := NumberValue(3.5).String(); got != "3.5" {
		t.Errorf("float: %q", got)
	}
	if got := NullValue().String(); got != "null" {
		t.Errorf("null: %q", got)
	}
	n := &graph.Node{ID: 1, Type: "Malware", Name: "x"}
	if got := NodeValue(n).String(); !strings.Contains(got, "Malware") {
		t.Errorf("node: %q", got)
	}
}
