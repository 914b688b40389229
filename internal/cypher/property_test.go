package cypher

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"securitykg/internal/graph"
)

// renderRows flattens a result into one string per row for comparison.
func renderRows(res *Result) []string {
	out := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		cells := make([]string, len(row))
		for j, v := range row {
			cells[j] = v.String()
		}
		out[i] = strings.Join(cells, "|")
	}
	return out
}

// sameMultiset compares two row sets ignoring order.
func sameMultiset(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	as, bs := append([]string{}, a...), append([]string{}, b...)
	sort.Strings(as)
	sort.Strings(bs)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

// randomStore builds a random typed graph from a seed.
func randomStore(seed int64, n int) *graph.Store {
	rng := rand.New(rand.NewSource(seed))
	s := graph.New()
	types := []string{"Malware", "IP", "Domain", "ThreatActor"}
	rels := []string{"CONNECT", "USE", "RELATED_TO"}
	var ids []graph.NodeID
	for i := 0; i < n; i++ {
		id, _ := s.MergeNode(types[rng.Intn(len(types))], fmt.Sprintf("n%d", rng.Intn(n)), nil)
		ids = append(ids, id)
	}
	for i := 0; i < 2*n; i++ {
		s.AddEdge(ids[rng.Intn(len(ids))], rels[rng.Intn(len(rels))], ids[rng.Intn(len(ids))], nil)
	}
	return s
}

// Property: for any random graph and a family of queries, index-based and
// full-scan execution return the same multiset of rows.
func TestIndexScanEquivalenceQuick(t *testing.T) {
	queries := []string{
		`match (n) where n.name = "n5" return n.type, n.name order by n.type`,
		`match (n:Malware) return count(*)`,
		`match (a:Malware)-[:CONNECT]->(b) return a.name, b.name order by a.name, b.name`,
		`match (a {name: "n3"})-[r]-(b) return type(r), b.name order by b.name`,
		`match (a)-[:USE]->(b:IP) return distinct a.name order by a.name`,
	}
	f := func(seed int64, qi uint8) bool {
		s := randomStore(seed%1000, 40)
		q := queries[int(qi)%len(queries)]
		idxEng := NewEngine(s, Options{UseIndexes: true})
		scanEng := NewEngine(s, Options{UseIndexes: false})
		a, err1 := idxEng.Query(q, nil)
		b, err2 := scanEng.Query(q, nil)
		if (err1 == nil) != (err2 == nil) {
			return false
		}
		if err1 != nil {
			return true
		}
		if len(a.Rows) != len(b.Rows) {
			return false
		}
		for i := range a.Rows {
			for j := range a.Rows[i] {
				if a.Rows[i][j].String() != b.Rows[i][j].String() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: LIMIT k never returns more than k rows, and SKIP s + the
// returned rows never exceed the unpaged result.
func TestLimitSkipBoundsQuick(t *testing.T) {
	s := randomStore(7, 60)
	eng := NewEngine(s, DefaultOptions())
	f := func(k, sk uint8) bool {
		limit := int(k%20) + 1
		skip := int(sk % 20)
		base, err := eng.Query(`match (n) return n.name order by n.name`, nil)
		if err != nil {
			return false
		}
		paged, err := eng.Query(fmt.Sprintf(
			`match (n) return n.name order by n.name skip %d limit %d`, skip, limit), nil)
		if err != nil {
			return false
		}
		if len(paged.Rows) > limit {
			return false
		}
		want := len(base.Rows) - skip
		if want < 0 {
			want = 0
		}
		if want > limit {
			want = limit
		}
		return len(paged.Rows) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// equivalenceQueries run over randomStore graphs.
var equivalenceQueries = []string{
	`match (n) return n.type, n.name`,
	`match (n:Malware) return n.name`,
	`match (n) where n.name = "n5" return n.type, n.name`,
	`match (n) where n.type = "Malware" return n.name`,
	`match (a)-[:CONNECT]->(b) return a.name, b.name`,
	`match (a)<-[:USE]-(b:Malware) return a.name, b.name`,
	`match (a {name: "n3"})-[r]-(b) return type(r), b.name`,
	`match (a:Malware)-[:CONNECT]->(b)-[:RELATED_TO]->(c) return a.name, b.name, c.name`,
	`match (a)-[:USE]->(b:IP) return distinct a.name`,
	`match (a:Domain), (b:ThreatActor) return a.name, b.name`,
	`match (a)-[:CONNECT]->(b), (a)-[:USE]->(c) return a.name, b.name, c.name`,
	`match (a)-[r]->(a) return a.name, type(r)`,
	`match (a)-[:RELATED_TO]->(b) where a.name contains "1" and not b.name = "n2" return a.name, b.name`,
	`match (a)-[:CONNECT]->(b) where a.name = "n4" or b.name starts with "n1" return a.name, b.name`,
	`match (a:Malware)-[:USE]->(b) return a.name, count(b)`,
	`match (a)-[:CONNECT]->(b) return count(*)`,
	`match (a:Malware)-[:CONNECT*1..2]->(b) return a.name, b.name`,
	`match (a {name: "n3"})-[:RELATED_TO*]-(b) return b.name`,
	`match (a:Malware) optional match (a)-[:USE]->(b:IP) return a.name, b.name`,
	`match (a)-[:USE]->(b) with a, count(b) as c where c > 1 return a.name, c`,
	`match (a:ThreatActor) optional match (a)-[:USE*1..2]->(x) with a, collect(x.name) as xs return a.name, xs`,
	`match (a:Malware)-[:CONNECT]->(b) return a.name, min(b.name), max(b.name), sum(id(b))`,
}

// Property: the planned streaming executor returns the same row multiset
// as the reference evaluator, over randomized graphs and a query family
// covering chains, reverse/undirected edges, shared variables, cross
// products, WHERE operators, DISTINCT and aggregation.
func TestPlannedReferenceEquivalenceQuick(t *testing.T) {
	f := func(seed int64, qi uint8) bool {
		s := randomStore(seed%1000, 40)
		q := equivalenceQueries[int(qi)%len(equivalenceQueries)]
		planned, err1 := NewEngine(s, Options{UseIndexes: true}).Query(q, nil)
		ref, err2 := reference{s}.Query(q, nil)
		if (err1 == nil) != (err2 == nil) {
			t.Logf("error mismatch for %q: planned=%v reference=%v", q, err1, err2)
			return false
		}
		if err1 != nil {
			return true
		}
		if !sameMultiset(renderRows(planned), renderRows(ref)) {
			t.Logf("row mismatch for %q (seed %d):\nplanned:   %v\nreference: %v",
				q, seed, renderRows(planned), renderRows(ref))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

// Property: with indexes disabled the planned engine still matches the
// reference (the ablation path stays correct).
func TestPlannedReferenceEquivalenceNoIndexQuick(t *testing.T) {
	queries := []string{
		`match (a:Malware)-[:CONNECT]->(b) return a.name, b.name`,
		`match (n) where n.name = "n7" return n.type`,
		`match (a)-[:USE]->(b)<-[:USE]-(c) return a.name, c.name`,
	}
	f := func(seed int64, qi uint8) bool {
		s := randomStore(seed%500, 30)
		q := queries[int(qi)%len(queries)]
		planned, err1 := NewEngine(s, Options{UseIndexes: false}).Query(q, nil)
		ref, err2 := reference{s}.Query(q, nil)
		if (err1 == nil) != (err2 == nil) {
			return false
		}
		if err1 != nil {
			return true
		}
		return sameMultiset(renderRows(planned), renderRows(ref))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Property: with an ORDER BY whose keys cover every projected column,
// the planned engine and the reference return identical ordered rows for
// any SKIP/LIMIT combination — including LIMIT 0.
func TestOrderSkipLimitEquivalenceQuick(t *testing.T) {
	f := func(seed int64, k, sk uint8) bool {
		s := randomStore(seed%500, 40)
		limit := int(k % 12) // 0 is a valid LIMIT
		skip := int(sk % 10)
		q := fmt.Sprintf(`match (a)-[:CONNECT]->(b) return a.type, a.name, b.name order by a.type, a.name, b.name skip %d limit %d`, skip, limit)
		planned, e1 := NewEngine(s, Options{UseIndexes: true}).Query(q, nil)
		ref, e2 := reference{s}.Query(q, nil)
		if (e1 == nil) != (e2 == nil) {
			return false
		}
		if e1 != nil {
			return true
		}
		a, b := renderRows(planned), renderRows(ref)
		if len(a) != len(b) {
			t.Logf("row count mismatch skip=%d limit=%d: planned=%d reference=%d", skip, limit, len(a), len(b))
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				t.Logf("row %d mismatch skip=%d limit=%d: %q vs %q", i, skip, limit, a[i], b[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Property: with ORDER BY + LIMIT the rows are the reference's exact
// top k.
func TestLimitTopKEquivalenceQuick(t *testing.T) {
	f := func(seed int64, lim uint8) bool {
		s := randomStore(seed%500, 40)
		limit := int(lim%20) + 1
		q := fmt.Sprintf(`match (a)-[:CONNECT]->(b) return a.type, a.name, b.name order by a.type, a.name, b.name limit %d`, limit)
		planned, e1 := NewEngine(s, Options{UseIndexes: true}).Query(q, nil)
		ref, e2 := reference{s}.Query(q, nil)
		if e1 != nil || e2 != nil {
			return false
		}
		a, b := renderRows(planned), renderRows(ref)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				t.Logf("top-k mismatch limit=%d: %q vs %q", limit, a[i], b[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Property: count(*) equals the number of rows the same pattern returns
// without aggregation.
func TestCountAgreesWithRowsQuick(t *testing.T) {
	f := func(seed int64) bool {
		s := randomStore(seed%500, 30)
		eng := NewEngine(s, Options{UseIndexes: true})
		rows, err := eng.Query(`match (a)-[:CONNECT]->(b) return a.name, b.name`, nil)
		if err != nil {
			return false
		}
		cnt, err := eng.Query(`match (a)-[:CONNECT]->(b) return count(*)`, nil)
		if err != nil {
			return false
		}
		if len(rows.Rows) == 0 {
			return len(cnt.Rows) == 0 || cnt.Rows[0][0].Num == 0
		}
		return cnt.Rows[0][0].Num == float64(len(rows.Rows))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// --- expanded-surface differential testing ---

// genSurfaceQuery emits a random query exercising variable-length
// paths, OPTIONAL MATCH and WITH chaining over the randomStore schema.
// LIMIT/SKIP appear only behind an ORDER BY over every returned column
// (the last two shapes, whose leading key is null for unmatched optional
// rows or of mixed kinds): the comparator is a total order, so then —
// and only then — the engine and the reference must keep the same rows
// in the same order, which the property checks.
func genSurfaceQuery(rng *rand.Rand) string {
	types := []string{"Malware", "IP", "Domain", "ThreatActor"}
	rels := []string{"CONNECT", "USE", "RELATED_TO"}
	label := func() string {
		if rng.Intn(2) == 0 {
			return ":" + types[rng.Intn(len(types))]
		}
		return ""
	}
	rel := func() string { return rels[rng.Intn(len(rels))] }
	hops := func() string {
		switch rng.Intn(5) {
		case 0:
			return "*"
		case 1:
			return fmt.Sprintf("*%d", 1+rng.Intn(3))
		case 2:
			lo := rng.Intn(2)
			return fmt.Sprintf("*%d..%d", lo, lo+1+rng.Intn(2))
		case 3:
			return fmt.Sprintf("*..%d", 1+rng.Intn(3))
		default:
			return fmt.Sprintf("*%d..", 1+rng.Intn(2))
		}
	}
	arrow := func(edge string) string {
		switch rng.Intn(3) {
		case 0:
			return fmt.Sprintf("-[%s]->", edge)
		case 1:
			return fmt.Sprintf("<-[%s]-", edge)
		default:
			return fmt.Sprintf("-[%s]-", edge)
		}
	}
	desc := func() string {
		if rng.Intn(2) == 0 {
			return " desc"
		}
		return ""
	}
	switch rng.Intn(11) {
	case 0: // plain var-length chain
		return fmt.Sprintf(`match (a%s)%s(b%s) return a.name, b.name`,
			label(), arrow(":"+rel()+hops()), label())
	case 1: // var-length plus fixed hop
		return fmt.Sprintf(`match (a%s)%s(b)-[:%s]->(c) return a.name, b.name, c.name`,
			label(), arrow(":"+rel()+hops()), rel())
	case 2: // optional match, possibly var-length
		e := ":" + rel()
		if rng.Intn(2) == 0 {
			e += hops()
		}
		return fmt.Sprintf(`match (a%s) optional match (a)%s(b%s) return a.name, b.name`,
			label(), arrow(e), label())
	case 3: // with + aggregate + filter on the aggregate
		return fmt.Sprintf(`match (a%s)-[:%s]->(b) with a, count(b) as c where c >= %d return a.name, c`,
			label(), rel(), rng.Intn(3))
	case 4: // optional + with + collect (canonically ordered list)
		return fmt.Sprintf(`match (a%s) optional match (a)%s(b) with a, collect(b.name) as ns return a.name, ns`,
			label(), arrow(":"+rel()+hops()))
	case 5: // with-rename chain plus second match on the carried var
		return fmt.Sprintf(`match (a%s)-[:%s]->(b) with b as x match (x)%s(c) return x.name, c.name`,
			label(), rel(), arrow(":"+rel()))
	case 6: // multi-chain with a cross-chain equality predicate (hash join)
		return fmt.Sprintf(`match (a%s)-[:%s]->(b), (c%s)-[:%s]->(d) where b.name = d.name return a.name, b.name, c.name, d.name`,
			label(), rel(), label(), rel())
	case 9: // ORDER BY a key that is null wherever the optional match failed
		return fmt.Sprintf(`match (a%s) optional match (a)%s(b%s) return a.type, a.name, b.name order by b.name%s, a.type%s, a.name skip %d limit %d`,
			label(), arrow(":"+rel()), label(), desc(), desc(), rng.Intn(4), 1+rng.Intn(12))
	case 10: // ORDER BY a key of mixed kinds
		return fmt.Sprintf(`unwind [3, "n1", null, true, 1.5, "n0", false] as v match (a%s) return v, a.type, a.name order by v%s, a.type, a.name%s limit %d`,
			label(), desc(), desc(), 1+rng.Intn(20))
	case 7: // long anonymous chain, both endpoints name-constrained
		return fmt.Sprintf(`match (a {name: "n%d"})%s()%s()%s(b {name: "n%d"}) return count(*)`,
			rng.Intn(30), arrow(":"+rel()), arrow(":"+rel()), arrow(":"+rel()), rng.Intn(30))
	default: // disjoint single-node chains linked only by equality
		return fmt.Sprintf(`match (a%s), (b%s) where a.name = b.name return a.name, b.name`,
			label(), label())
	}
}

// genWithWhereQuery emits a random WITH ... WHERE over the randomStore
// schema, one shape per decision the planner makes about its conjuncts:
// a pass-through grouping key (planned below the bridge), an aggregate
// alias (kept on it), the two ANDed (split), a variable an OPTIONAL MATCH
// introduces, one carried from an earlier WITH, DISTINCT, an UNWIND
// alias, and a part with SET (never pushed). It is a generator of its
// own so that genSurfaceQuery's stream, whose plans plans_parent.txt
// records at fixed seeds, stays as it was.
func genWithWhereQuery(rng *rand.Rand) string {
	types := []string{"Malware", "IP", "Domain", "ThreatActor"}
	rels := []string{"CONNECT", "USE", "RELATED_TO"}
	label := func() string {
		if rng.Intn(2) == 0 {
			return ":" + types[rng.Intn(len(types))]
		}
		return ""
	}
	rel := func() string { return rels[rng.Intn(len(rels))] }
	// key is a predicate on v.name that keeps some names and drops others.
	key := func(v string) string {
		switch rng.Intn(4) {
		case 0:
			return fmt.Sprintf(`%s.name contains "%d"`, v, rng.Intn(10))
		case 1:
			return fmt.Sprintf(`%s.name starts with "n%d"`, v, 1+rng.Intn(3))
		case 2:
			return fmt.Sprintf(`%s.name < "n%d"`, v, 1+rng.Intn(4))
		default:
			return fmt.Sprintf(`not %s.name = "n%d"`, v, rng.Intn(30))
		}
	}
	switch rng.Intn(8) {
	case 0: // pass-through grouping key: pushed
		return fmt.Sprintf(`match (a%s)-[:%s]->(b) with a, collect(b.name) as bs where %s return a.name, bs`,
			label(), rel(), key("a"))
	case 1: // aggregate alias: kept
		return fmt.Sprintf(`match (a%s)-[:%s]-(b) with a, count(b) as c where c >= %d return a.name, c`,
			label(), rel(), 1+rng.Intn(3))
	case 2: // mixed AND: the key half pushed, the alias half kept
		return fmt.Sprintf(`match (a%s)-[:%s]->(b) with a, count(*) as c, collect(b.name) as bs where c >= %d and %s return a.name, c, bs`,
			label(), rel(), 1+rng.Intn(2), key("a"))
	case 3: // a variable only the OPTIONAL MATCH binds: kept
		return fmt.Sprintf(`match (a%s) optional match (a)-[:%s]->(b) with b, count(a) as c where %s return b.name, c`,
			label(), rel(), key("b"))
	case 4: // carried from an earlier WITH: pushed onto its bound re-check
		return fmt.Sprintf(`match (a%s) with a match (a)-[:%s]-(b) with a, collect(b.name) as bs where %s return a.name, bs`,
			label(), rel(), key("a"))
	case 5: // DISTINCT
		return fmt.Sprintf(`match (a%s)-[:%s]->(b) with distinct a, b.type as t where %s return a.name, t`,
			label(), rel(), key("a"))
	case 6: // UNWIND alias: the Unwind stage takes no filters, so kept
		return fmt.Sprintf(`unwind [0, 1, 2, 3, 2, "n1", null] as x match (a%s) with x, count(a) as c where x > %d return x, c`,
			label(), rng.Intn(3))
	default: // a part with SET: never pushed
		return fmt.Sprintf(`match (a%s)-[:%s]->(b) set a.seen = "1" with a, count(b) as c where %s return a.name, c`,
			label(), rel(), key("a"))
	}
}

// Property: the planned engine, which runs a WITH's grouping-key
// conjuncts below the bridge, returns what the reference returns running
// the whole WHERE on projected rows. A conjunct lost on a stage that
// takes no filters (Unwind, Optional) shows up as extra rows.
func TestWithWhereEquivalenceQuick(t *testing.T) {
	f := func(seed int64, qseed int64) bool {
		return plannedMatchesReference(t, randomStore(seed%1000, 30), genWithWhereQuery(rand.New(rand.NewSource(qseed))))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// denseRandomStore builds a small high-degree graph — the
// walk-explosion regime where the planner picks BiExpand — so generator
// runs exercise the counted-expansion operator against the reference,
// not just sparse nested plans.
func denseRandomStore(seed int64, n int) *graph.Store {
	rng := rand.New(rand.NewSource(seed))
	s := graph.New()
	types := []string{"Malware", "IP", "Domain", "ThreatActor"}
	rels := []string{"CONNECT", "USE", "RELATED_TO"}
	var ids []graph.NodeID
	for i := 0; i < n; i++ {
		id, _ := s.MergeNode(types[rng.Intn(len(types))], fmt.Sprintf("n%d", i), nil)
		ids = append(ids, id)
	}
	for i := 0; i < 15*n; i++ {
		s.AddEdge(ids[rng.Intn(n)], rels[rng.Intn(len(rels))], ids[rng.Intn(n)], nil)
	}
	return s
}

// Property: the planned streaming executor and the reference agree on
// the full expanded surface — variable-length paths, OPTIONAL MATCH,
// WITH chaining, cross-chain equality joins and long symmetric chains —
// over randomized graphs (every third round a dense one, so hash-join
// and bidirectional-expand plans are exercised) and randomized queries.
func TestExpandedSurfaceEquivalenceQuick(t *testing.T) {
	f := func(seed int64, qseed int64) bool {
		s := randomStore(seed%1000, 30)
		if qseed%3 == 0 {
			s = denseRandomStore(seed%1000, 12)
		}
		return plannedMatchesReference(t, s, genSurfaceQuery(rand.New(rand.NewSource(qseed))))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// plannedMatchesReference runs q on the engine and the reference over s
// and reports whether they agree: both error, or both return the same
// rows — as a multiset, or in order when q has an ORDER BY.
func plannedMatchesReference(t *testing.T, s *graph.Store, q string) bool {
	t.Helper()
	planned, err1 := NewEngine(s, Options{UseIndexes: true}).Query(q, nil)
	ref, err2 := reference{s}.Query(q, nil)
	if (err1 == nil) != (err2 == nil) {
		t.Logf("error mismatch for %q: planned=%v reference=%v", q, err1, err2)
		return false
	}
	if err1 != nil {
		return true
	}
	same := sameMultiset
	if strings.Contains(q, "order by") {
		same = func(a, b []string) bool { return reflect.DeepEqual(a, b) }
	}
	if !same(renderRows(planned), renderRows(ref)) {
		t.Logf("row mismatch for %q:\nplanned:   %v\nreference: %v", q, renderRows(planned), renderRows(ref))
		return false
	}
	return true
}

// Property: with indexes disabled the expanded surface still agrees
// (the ablation path stays correct for the new operators too).
func TestExpandedSurfaceNoIndexEquivalenceQuick(t *testing.T) {
	queries := []string{
		`match (a:Malware)-[:CONNECT*1..2]->(b) return a.name, b.name`,
		`match (a) optional match (a)-[:USE]->(b:IP) return a.name, b.name`,
		`match (a)-[:CONNECT]->(b) with a, count(b) as c return a.name, c`,
	}
	f := func(seed int64, qi uint8) bool {
		s := randomStore(seed%500, 25)
		q := queries[int(qi)%len(queries)]
		planned, err1 := NewEngine(s, Options{UseIndexes: false}).Query(q, nil)
		ref, err2 := reference{s}.Query(q, nil)
		if (err1 == nil) != (err2 == nil) {
			return false
		}
		if err1 != nil {
			return true
		}
		return sameMultiset(renderRows(planned), renderRows(ref))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
