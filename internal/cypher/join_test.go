package cypher

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"securitykg/internal/graph"
)

// This file locks down the PR-5 join strategies: hash joins for
// equality-linked chains and bidirectional counted expansion for long
// anonymous chains. Every new plan shape is (a) asserted to actually
// appear in the plan — so the differential comparisons below exercise
// the new operators, not a silent fallback — and (b) pinned to the
// reference evaluator's rows, errors and ordering.

// planHas reports whether any stage (recursively through optional and
// hash-join sub-pipelines) satisfies pred.
func planHas(pl *Plan, pred func(Stage) bool) bool {
	var walk func(st []Stage) bool
	walk = func(st []Stage) bool {
		for _, s := range st {
			if pred(s) {
				return true
			}
			switch is := s.(type) {
			case *OptionalStage:
				if walk(is.Inner) {
					return true
				}
			case *HashJoinStage:
				if walk(is.Build) {
					return true
				}
			}
		}
		return false
	}
	for _, seg := range pl.Segments {
		if walk(seg.Stages) {
			return true
		}
	}
	return false
}

func isHashJoin(s Stage) bool { _, ok := s.(*HashJoinStage); return ok }
func isBiExpand(s Stage) bool { _, ok := s.(*BiExpandStage); return ok }

// diffEngines runs q on the engine and the reference over the same store
// and fails on any divergence in error status or row multiset.
func diffEngines(t *testing.T, s *graph.Store, q string) {
	t.Helper()
	planned, err1 := NewEngine(s, Options{UseIndexes: true}).Query(q, nil)
	ref, err2 := reference{s}.Query(q, nil)
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("error mismatch for %q: planned=%v reference=%v", q, err1, err2)
	}
	if err1 != nil {
		return
	}
	if !sameMultiset(renderRows(planned), renderRows(ref)) {
		t.Fatalf("row mismatch for %q:\nplanned:   %v\nreference: %v", q, renderRows(planned), renderRows(ref))
	}
}

// joinStore: two disjoint chains whose only link is name equality, with
// enough rows on both sides that the planner picks a hash join.
func joinStore() *graph.Store {
	s := graph.New()
	for i := 0; i < 120; i++ {
		a, _ := s.MergeNode("Src", fmt.Sprintf("k%d", i%60), map[string]string{"grp": fmt.Sprintf("g%d", i%5)})
		ax, _ := s.MergeNode("SrcX", fmt.Sprintf("x%d", i), nil)
		s.AddEdge(a, "FEEDS", ax, nil)
		b, _ := s.MergeNode("Dst", fmt.Sprintf("k%d", (i+30)%90), nil)
		bx, _ := s.MergeNode("DstX", fmt.Sprintf("y%d", i), nil)
		s.AddEdge(b, "FEEDS", bx, nil)
	}
	return s
}

// hashJoinQueries run over joinStore.
var hashJoinQueries = []string{
	// Plain cross-chain equality over two label scans.
	`match (a:Src), (b:Dst) where a.name = b.name return a.name, b.name`,
	// Chains (not just single nodes) on both sides.
	`match (a:Src)-[:FEEDS]->(x), (b:Dst)-[:FEEDS]->(y) where a.name = b.name return a.name, x.name, y.name`,
	// Expression keys (function of a property).
	`match (a:Src), (b:Dst) where upper(a.name) = upper(b.name) return a.name`,
	// Null keys on both sides: a.missing is null everywhere, so the
	// join must produce no rows (null never equals null).
	`match (a:Src), (b:Dst) where a.missing = b.missing return a.name, b.name`,
	// Composite key: two equality conjuncts across the same chains.
	`match (a:Src), (b:Dst) where a.name = b.name and a.grp = b.grp return a.name`,
	// Aggregation over the join.
	`match (a:Src), (b:Dst) where a.name = b.name return count(*)`,
	// Residual non-equality predicate rides along.
	`match (a:Src), (b:Dst) where a.name = b.name and a.name contains "1" return a.name, b.name`,
	// Three chains: the join cascades.
	`match (a:Src), (b:Dst), (c:SrcX) where a.name = b.name and c.name = a.name return a.name`,
}

func TestHashJoinPlanShapeAndDifferential(t *testing.T) {
	s := joinStore()
	hashJoins := 0
	for _, q := range hashJoinQueries {
		pl := plan(t, s, q)
		if planHas(pl, isHashJoin) {
			hashJoins++
		}
		diffEngines(t, s, q)
	}
	if hashJoins < 5 {
		t.Errorf("only %d/%d queries planned a hash join; the differential is not exercising the operator", hashJoins, len(hashJoinQueries))
	}
}

func TestHashJoinOrderingAndLimit(t *testing.T) {
	// With a total ORDER BY the engine must return the reference's exact
	// ordered rows through a hash-join plan, SKIP and LIMIT included.
	s := joinStore()
	q := `match (a:Src), (b:Dst) where a.name = b.name return a.name, b.name order by a.name, b.name skip 3 limit 7`
	if !planHas(plan(t, s, q), isHashJoin) {
		t.Fatal("expected a hash-join plan")
	}
	planned, err := NewEngine(s, Options{UseIndexes: true}).Query(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := reference{s}.Query(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, b := renderRows(planned), renderRows(ref)
	if len(a) != len(b) {
		t.Fatalf("row counts: planned=%d reference=%d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestHashJoinSharedVariable(t *testing.T) {
	// A chain reaching a shared variable from a selective far end: a
	// shared variable keeps the nested re-expand from it, and the rows
	// must match the reference.
	s := graph.New()
	hub, _ := s.MergeNode("Hub", "hub", nil)
	for i := 0; i < 200; i++ {
		ip, _ := s.MergeNode("IP", fmt.Sprintf("10.0.0.%d", i), nil)
		s.AddEdge(hub, "CONNECT", ip, nil)
		d, _ := s.MergeNode("Domain", fmt.Sprintf("d%d", i), nil)
		s.AddEdge(d, "RESOLVES", ip, nil)
	}
	for _, q := range []string{
		`match (h:Hub)-[:CONNECT]->(ip), (d:Domain)-[:RESOLVES]->(ip) return d.name, ip.name`,
		`match (h:Hub)-[:CONNECT]->(ip), (d:Domain {name: "d7"})-[:RESOLVES]->(ip) return ip.name`,
	} {
		diffEngines(t, s, q)
	}
}

// meshStore is a dense directed clique on n :H nodes — the walk-explosion
// regime where counted expansion beats path enumeration.
func meshStore(n int) *graph.Store {
	s := graph.New()
	ids := make([]graph.NodeID, n)
	for i := 0; i < n; i++ {
		ids[i], _ = s.MergeNode("H", fmt.Sprintf("h%d", i), nil)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				s.AddEdge(ids[i], "R", ids[j], nil)
			}
		}
	}
	return s
}

// biExpandQueries run over meshStore(12).
var biExpandQueries = []string{
	// Both endpoints pinned: walk counting end to end.
	`match (a:H {name: "h0"})-[:R]->()-[:R]->()-[:R]->()-[:R]->(b:H {name: "h1"}) return count(*)`,
	// Far endpoint free and unhinted: plain expansions, the one query
	// here that plans no BiExpand.
	`match (a:H {name: "h0"})-[:R]->()-[:R]->()-[:R]->(b) return b.name, count(*)`,
	// Cycle: the far endpoint is the (bound) start — meet in the middle.
	`match (a:H {name: "h3"})-[:R]->()-[:R]->()-[:R]->(a) return count(*)`,
	// Mixed directions inside the run.
	`match (a:H {name: "h2"})-[:R]->()<-[:R]-()-[:R]->(b:H {name: "h5"}) return count(*)`,
	// Labeled interior nodes still collapse (synthetic vars, user label).
	`match (a:H {name: "h0"})-[:R]->(:H)-[:R]->(:H)-[:R]->(b:H {name: "h4"}) return count(*)`,
}

func TestBiExpandPlanShapeAndDifferential(t *testing.T) {
	s := meshStore(12)
	biplans := 0
	for _, q := range biExpandQueries {
		if planHas(plan(t, s, q), isBiExpand) {
			biplans++
		}
		diffEngines(t, s, q)
	}
	if biplans < 4 {
		t.Errorf("only %d/%d queries planned a BiExpand; the differential is not exercising the operator", biplans, len(biExpandQueries))
	}
}

func TestBiExpandRandomizedDifferential(t *testing.T) {
	// Random dense graphs × random 3-5 hop anonymous chains. Fixed seed
	// range keeps failures reproducible.
	rels := []string{"R", "S"}
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := graph.New()
		n := 8 + rng.Intn(6)
		ids := make([]graph.NodeID, n)
		for i := range ids {
			ids[i], _ = s.MergeNode("H", fmt.Sprintf("h%d", i), nil)
		}
		for i := 0; i < n*n; i++ {
			s.AddEdge(ids[rng.Intn(n)], rels[rng.Intn(2)], ids[rng.Intn(n)], nil)
		}
		hops := 3 + rng.Intn(3)
		var q strings.Builder
		fmt.Fprintf(&q, `match (a {name: "h%d"})`, rng.Intn(n))
		for h := 0; h < hops; h++ {
			arrow := []string{`-[:%s]->`, `<-[:%s]-`, `-[:%s]-`}[rng.Intn(3)]
			fmt.Fprintf(&q, arrow, rels[rng.Intn(2)])
			if h < hops-1 {
				q.WriteString("()")
			}
		}
		switch rng.Intn(3) {
		case 0:
			fmt.Fprintf(&q, `(b {name: "h%d"}) return count(*)`, rng.Intn(n))
		case 1:
			q.WriteString(`(b) return b.name, count(*)`)
		default:
			q.WriteString(`(a) return count(*)`) // cycle back to the start
		}
		diffEngines(t, s, q.String())
	}
}

func TestLabelScanOrderByMatchesReference(t *testing.T) {
	s := graph.New()
	for i := 0; i < 3000; i++ {
		s.MergeNode("T", fmt.Sprintf("node-%04d", i), nil)
	}
	// The engine returns the reference's rows in the reference's order.
	q := `match (n:T) where n.name contains "7" return n.name order by n.name`
	got, err := NewEngine(s, Options{UseIndexes: true}).Query(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := reference{s}.Query(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, b := renderRows(got), renderRows(want)
	if len(a) != len(b) {
		t.Fatalf("row counts differ: engine=%d reference=%d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d differs: %q vs %q", i, a[i], b[i])
		}
	}
	diffEngines(t, s, `match (n:T) return count(*)`)

	// An aggregate call in WHERE errors at evaluation, with the
	// reference's message.
	qErr := `match (n:T) where count(n) > 0 return n.name order by n.name`
	_, err1 := NewEngine(s, Options{UseIndexes: true}).Query(qErr, nil)
	_, err2 := reference{s}.Query(qErr, nil)
	if err1 == nil || err2 == nil || err1.Error() != err2.Error() {
		t.Fatalf("error mismatch: planned=%v reference=%v", err1, err2)
	}
}

// TestBarrierFedScanBudget pins a label scan feeding an aggregate to the
// byte budget: every scanned row is charged, so a budget above the
// enumeration charge passes and one below it fails typed.
func TestBarrierFedScanBudget(t *testing.T) {
	s := graph.New()
	for i := 0; i < 3000; i++ {
		s.MergeNode("T", fmt.Sprintf("node-%04d", i), map[string]string{"k": "vvvvvvvv"})
	}
	q := `match (n:T) return count(*)`
	// 256KiB > 3000 × aggRowCost.
	res, err := NewEngine(s, Options{UseIndexes: true, MaxBytes: 256 << 10}).Query(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Num != 3000 {
		t.Fatalf("count = %v, want 3000", res.Rows[0][0].Num)
	}
	// 32KiB < the aggregate's enumeration charge.
	_, err = NewEngine(s, Options{UseIndexes: true, MaxBytes: 32 << 10}).Query(q, nil)
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("want *BudgetError, got %v", err)
	}
}

func TestHashJoinPushesChainLocalFilterIntoBuild(t *testing.T) {
	// A conjunct referencing only the build chain's variables must run
	// inside the build sub-pipeline, so the hash table holds filtered
	// rows instead of every chain row.
	s := joinStore()
	q := `match (a:Src), (b:Dst) where a.name = b.name and b.name contains "3" return a.name`
	pl := plan(t, s, q)
	var hj *HashJoinStage
	for _, st := range pl.Segments[0].Stages {
		if j, ok := st.(*HashJoinStage); ok {
			hj = j
		}
	}
	if hj == nil {
		t.Fatalf("expected a hash join:\n%s", pl.String())
	}
	found := false
	for _, st := range hj.Build {
		for _, f := range st.filters() {
			if exprString(f) == `b.name contains "3"` {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("chain-local filter not pushed into the build side:\n%s", pl.String())
	}
	diffEngines(t, s, q)
}

func TestHashJoinBuildVarsExcludeSynthetic(t *testing.T) {
	// Anonymous nodes/edges in the build chain get synthetic "$" names no
	// expression can reference: the hash table must not store (or
	// budget-charge) their values, while row multiplicity via duplicate
	// bucket entries is preserved — checked by the differential.
	s := joinStore()
	q := `match (a:Src)-[]->(), (b:Dst)-[]->() where a.name = b.name return a.name, b.name`
	pl := plan(t, s, q)
	var hj *HashJoinStage
	for _, st := range pl.Segments[0].Stages {
		if j, ok := st.(*HashJoinStage); ok {
			hj = j
		}
	}
	if hj == nil {
		t.Fatalf("expected a hash join:\n%s", pl.String())
	}
	for _, v := range hj.BuildVars {
		if strings.HasPrefix(v, "$") {
			t.Errorf("synthetic variable %q retained in the hash table", v)
		}
	}
	diffEngines(t, s, q)
}

func TestHashJoinHashesUnwindInput(t *testing.T) {
	// A batch joined to a label scan by equality: the UNWIND counts as
	// the smaller side whatever its length, so the batch is hashed and
	// the 60 :Src nodes stream past it once.
	s := joinStore()
	q := `unwind ["k1", "k7", "k7", "nope"] as k match (a:Src) where a.name = k return k, a.grp`
	pl := plan(t, s, q)
	var hj *HashJoinStage
	for _, st := range pl.Segments[0].Stages {
		if j, ok := st.(*HashJoinStage); ok {
			hj = j
		}
	}
	if hj == nil || !hj.BuildInput {
		t.Fatalf("want a hash join building on the UNWIND input:\n%s", pl.String())
	}
	diffEngines(t, s, q)
}
