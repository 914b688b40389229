package cypher

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"securitykg/internal/graph"
)

// skewedStore has 1 Malware hub and many IP leaves so start-node choice
// is unambiguous.
func skewedStore(t *testing.T) *graph.Store {
	t.Helper()
	s := graph.New()
	mal, _ := s.MergeNode("Malware", "hub", nil)
	for i := 0; i < 500; i++ {
		ip, _ := s.MergeNode("IP", fmt.Sprintf("10.0.%d.%d", i/250, i%250), nil)
		if _, _, err := s.AddEdge(mal, "CONNECT", ip, nil); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func plan(t *testing.T, s *graph.Store, q string) *Plan {
	t.Helper()
	parsed, err := Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	pl, err := NewEngine(s, DefaultOptions()).planQuery(parsed)
	if err != nil {
		t.Fatalf("plan %q: %v", q, err)
	}
	return pl
}

func TestPlannerStartsAtSelectiveLabel(t *testing.T) {
	// Written order starts at the 500-node IP side; the planner must
	// reverse it and enter at the single Malware node.
	pl := plan(t, skewedStore(t), `match (ip:IP)<-[:CONNECT]-(m:Malware) return ip.name`)
	scan, ok := pl.Segments[0].Stages[0].(*ScanStage)
	if !ok {
		t.Fatalf("first stage is %T, want ScanStage", pl.Segments[0].Stages[0])
	}
	if scan.Node.Label != "Malware" || scan.Access != AccessLabel {
		t.Errorf("start = %s %s, want LabelScan on Malware", scan.Access, scan.Node.Label)
	}
	exp, ok := pl.Segments[0].Stages[1].(*ExpandStage)
	if !ok {
		t.Fatalf("second stage is %T, want ExpandStage", pl.Segments[0].Stages[1])
	}
	if !exp.Reverse || exp.From != "m" || exp.To.Var != "ip" {
		t.Errorf("expand = %+v, want reverse m->ip", exp)
	}
}

func TestPlannerNameSeekPushdown(t *testing.T) {
	// A WHERE name equality plus a type equality must collapse into an
	// exact (label, name) point seek.
	pl := plan(t, skewedStore(t), `match (n) where n.name = "hub" and n.type = "Malware" return n`)
	scan := pl.Segments[0].Stages[0].(*ScanStage)
	if scan.Access != AccessLabelName || scan.Name != "hub" {
		t.Errorf("access = %s name=%q, want IndexSeek(label+name) hub", scan.Access, scan.Name)
	}
	if scan.Est != 1 {
		t.Errorf("est = %f, want 1", scan.Est)
	}
	// Both conjuncts stay attached as stage filters (belt and braces).
	if len(scan.Filters) != 2 {
		t.Errorf("filters = %d, want 2", len(scan.Filters))
	}
}

func TestPlannerCompositeAttrSeek(t *testing.T) {
	s := graph.New()
	s.IndexAttr("platform")
	for i := 0; i < 100; i++ {
		plat := "windows"
		if i%10 == 0 {
			plat = "solaris"
		}
		s.MergeNode("Malware", fmt.Sprintf("m%d", i), map[string]string{"platform": plat})
	}
	pl := plan(t, s, `match (m:Malware) where m.platform = "solaris" return m.name`)
	scan := pl.Segments[0].Stages[0].(*ScanStage)
	if scan.Access != AccessLabelAttr || scan.AttrKey != "platform" || scan.AttrVal != "solaris" {
		t.Errorf("access = %s %s=%s, want composite seek on platform=solaris", scan.Access, scan.AttrKey, scan.AttrVal)
	}
	if scan.Est != 10 {
		t.Errorf("est = %f, want 10", scan.Est)
	}
	res, err := NewEngine(s, DefaultOptions()).Query(`match (m:Malware) where m.platform = "solaris" return m.name`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Errorf("rows = %d, want 10", len(res.Rows))
	}

	// Two indexed keys that cost the same, literal or $param: every
	// planning takes the same one.
	s.IndexAttr("a")
	s.IndexAttr("b")
	for i := 0; i < 100; i += 10 {
		s.MergeNode("Malware", fmt.Sprintf("m%d", i), map[string]string{"a": "1", "b": "1"})
	}
	eng := NewEngine(s, DefaultOptions())
	for _, q := range []string{
		`match (n:Malware) where n.a = "1" and n.b = "1" return n`,
		`match (n:Malware) where n.a = $x and n.b = $y return n`,
	} {
		texts := map[string]bool{}
		for i := 0; i < 200; i++ {
			text, err := eng.Explain(q)
			if err != nil {
				t.Fatal(err)
			}
			texts[text] = true
		}
		if len(texts) != 1 {
			t.Errorf("%s: %d distinct plans over 200 plannings", q, len(texts))
		}
	}
}

func TestPlannerBoundChainPiggybacks(t *testing.T) {
	// The second pattern shares m, so it must start from the bound
	// variable instead of a fresh scan.
	pl := plan(t, skewedStore(t), `match (m:Malware)-[:CONNECT]->(ip), (m)-[:CONNECT]->(ip2) return ip.name, ip2.name`)
	bounds := 0
	for _, st := range pl.Segments[0].Stages {
		if sc, ok := st.(*ScanStage); ok && sc.Access == AccessBound {
			bounds++
		}
	}
	if bounds != 1 {
		t.Errorf("bound-start stages = %d, want 1", bounds)
	}
}

func TestPlannerNoIndexesForcesFullScan(t *testing.T) {
	pl := func() *Plan {
		parsed, err := Parse(`match (m:Malware) return m`)
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewEngine(skewedStore(t), Options{UseIndexes: false}).planQuery(parsed)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}()
	if scan := pl.Segments[0].Stages[0].(*ScanStage); scan.Access != AccessAll {
		t.Errorf("access = %s, want AllNodesScan when indexes are disabled", scan.Access)
	}
}

func TestExplainStatement(t *testing.T) {
	s := skewedStore(t)
	res, err := NewEngine(s, DefaultOptions()).Query(
		`explain match (m:Malware)-[:CONNECT]->(ip) where ip.name contains "10." return ip.name limit 5`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) != 1 || res.Columns[0] != "plan" {
		t.Fatalf("explain columns: %v", res.Columns)
	}
	text := ""
	for _, r := range res.Rows {
		text += r[0].Str + "\n"
	}
	for _, want := range []string{"LabelScan", "Expand", "Limit 5", `contains "10."`} {
		if !strings.Contains(text, want) {
			t.Errorf("explain output missing %q:\n%s", want, text)
		}
	}
}

func TestExplainDoesNotExecute(t *testing.T) {
	s := skewedStore(t)
	res, err := NewEngine(s, DefaultOptions()).Query(`explain match (n) return n`, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows {
		if r[0].Kind != KindString {
			t.Fatalf("explain produced non-plan row: %+v", r)
		}
	}
}

func TestStreamingLimitShortCircuits(t *testing.T) {
	// With a LIMIT and no ORDER BY the executor must stop pulling after
	// the limit: on a 500-leaf hub this returns quickly and exactly.
	s := skewedStore(t)
	res, err := NewEngine(s, DefaultOptions()).Query(
		`match (m:Malware)-[:CONNECT]->(ip) return ip.name limit 7`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 7 {
		t.Errorf("rows=%d, want 7", len(res.Rows))
	}
}

func TestTypeEqualityPredicateScans(t *testing.T) {
	// Regression: a label inferred from n.type = "X" must actually be used
	// by the scan, not just for costing.
	s := graph.New()
	for i := 0; i < 5; i++ {
		s.MergeNode("A", fmt.Sprintf("a%d", i), nil)
		s.MergeNode("B", fmt.Sprintf("b%d", i), nil)
	}
	for _, q := range []string{
		`match (n) where n.type = "A" return n.name`,
		`match (n) where n.label = "A" return n.name`,
	} {
		res, err := NewEngine(s, DefaultOptions()).Query(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 5 {
			t.Errorf("%s: %d rows, want 5", q, len(res.Rows))
		}
	}
	pl := plan(t, s, `match (n) where n.type = "A" return n.name`)
	scan := pl.Segments[0].Stages[0].(*ScanStage)
	if scan.Access != AccessLabel || scan.Label != "A" {
		t.Errorf("access = %s label=%q, want LabelScan with inferred label A", scan.Access, scan.Label)
	}
}

func TestErroringConjunctKeepsShortCircuit(t *testing.T) {
	// Regression: the reference short-circuits `false and count(...)`
	// without erroring; pushdown must not reorder evaluation into an error.
	s := graph.New()
	p, _ := s.MergeNode("P", "p0", nil)
	qn, _ := s.MergeNode("Q", "q0", nil)
	s.AddEdge(p, "E", qn, nil)
	query := `match (p)-[:E]->(q) where q.name contains "zzz" and count(p) > 0 return p.name`
	ref, rerr := reference{s}.Query(query, nil)
	planned, perr := NewEngine(s, Options{UseIndexes: true}).Query(query, nil)
	if (rerr == nil) != (perr == nil) {
		t.Fatalf("error mismatch: reference=%v planned=%v", rerr, perr)
	}
	if rerr == nil && !sameMultiset(renderRows(planned), renderRows(ref)) {
		t.Errorf("rows differ: planned=%v reference=%v", renderRows(planned), renderRows(ref))
	}
	// And when the guard passes, the count() error must still surface.
	query2 := `match (p)-[:E]->(q) where q.name contains "q" and count(p) > 0 return p.name`
	_, rerr2 := reference{s}.Query(query2, nil)
	_, perr2 := NewEngine(s, Options{UseIndexes: true}).Query(query2, nil)
	if (rerr2 == nil) != (perr2 == nil) || rerr2 == nil {
		t.Errorf("count() error mismatch: reference=%v planned=%v", rerr2, perr2)
	}
}

func TestAggregateBudgetBoundsEnumeration(t *testing.T) {
	// The byte budget replaced the old row-derived match cap: with no
	// budget an aggregate over a cross product is exact (no silent
	// truncation), and with a tight budget the engine aborts with a typed
	// *BudgetError instead of returning a quietly wrong count.
	s := graph.New()
	for i := 0; i < 50; i++ {
		s.MergeNode("T", fmt.Sprintf("n%d", i), nil)
	}
	q := `match (a), (b), (c) return count(*)` // 125000 bindings
	res, err := NewEngine(s, Options{UseIndexes: true}).Query(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Num != 125000 {
		t.Errorf("count=%v, want exact 125000", res.Rows[0][0].Num)
	}
	_, err = NewEngine(s, Options{UseIndexes: true, MaxBytes: 32 << 10}).Query(q, nil)
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Errorf("want *BudgetError under a 32KiB budget, got %v", err)
	}
}

func TestPlannedAndReferenceAgreeOnDemoGraph(t *testing.T) {
	s := buildDemoGraph(t)
	queries := []string{
		`match (m:Malware)-[:CONNECT]->(x) return x.name order by x.name`,
		`match (r:MalwareReport)-[:DESCRIBES]->(m)-[:EXPLOIT]->(v) return r.name, m.name, v.name`,
		`match (a:ThreatActor {name: "cozyduke"})-[:USE]->(t)<-[:USE]-(o) where o.name <> "cozyduke" return distinct o.name`,
		`match (a:Technique), (b:ThreatActor) return a.name, b.name order by a.name, b.name`,
		`match (m:Malware)-[:EXPLOIT]->(v), (m)-[:DROP]->(f) return m.name, v.name, f.name`,
	}
	for _, q := range queries {
		planned, err := NewEngine(s, Options{UseIndexes: true}).Query(q, nil)
		if err != nil {
			t.Fatalf("planned %q: %v", q, err)
		}
		ref, err := reference{s}.Query(q, nil)
		if err != nil {
			t.Fatalf("reference %q: %v", q, err)
		}
		if got, want := renderRows(planned), renderRows(ref); !sameMultiset(got, want) {
			t.Errorf("%s:\nplanned:   %v\nreference: %v", q, got, want)
		}
	}
}

func TestPlanCacheInvalidatedByIndexAttr(t *testing.T) {
	// Regression: the cache used to evict only on cardinality drift, so a
	// plan chosen before IndexAttr kept label-scanning forever.
	s := graph.New()
	for i := 0; i < 100; i++ {
		plat := "windows"
		if i%10 == 0 {
			plat = "solaris"
		}
		s.MergeNode("Malware", fmt.Sprintf("m%d", i), map[string]string{"platform": plat})
	}
	eng := NewEngine(s, DefaultOptions())
	q := `match (m:Malware) where m.platform = "solaris" return m.name`
	res, err := eng.Query(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("pre-index rows: %d", len(res.Rows))
	}
	if scan := eng.cachedPlan(q).Segments[0].Stages[0].(*ScanStage); scan.Access != AccessLabel {
		t.Fatalf("pre-index access = %s, want LabelScan", scan.Access)
	}
	s.IndexAttr("platform")
	if eng.cachedPlan(q) != nil {
		t.Fatal("stale plan survived IndexAttr")
	}
	res, err = eng.Query(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("post-index rows: %d", len(res.Rows))
	}
	if scan := eng.cachedPlan(q).Segments[0].Stages[0].(*ScanStage); scan.Access != AccessLabelAttr {
		t.Errorf("post-index access = %s, want IndexSeek(label+attr)", scan.Access)
	}
}
