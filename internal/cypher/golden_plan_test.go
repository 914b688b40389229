package cypher

import (
	"fmt"
	"maps"
	"strings"
	"testing"

	"securitykg/internal/graph"
)

// The golden-plan suite pins the planner's choices on canonical shapes
// over fixture stores with known skew: full EXPLAIN snapshots where the
// whole plan matters, operator assertions where only the choice does.
// Planner edits that change a choice fail loudly here instead of
// silently regressing plans. Everything is deterministic: the fixtures
// are fixed, and scan estimates are exact counts over them.

// goldenJoinStore: 300 :Src and 300 :Dst nodes overlapping on name —
// the canonical cross-chain equality shape.
func goldenJoinStore() *graph.Store {
	s := graph.New()
	for i := 0; i < 300; i++ {
		s.MergeNode("Src", fmt.Sprintf("k%d", i), nil)
		s.MergeNode("Dst", fmt.Sprintf("k%d", i+100), nil)
	}
	return s
}

// goldenMeshStore: a 40-node directed :H clique — the walk-explosion
// regime for chain expansion.
func goldenMeshStore() *graph.Store {
	s := graph.New()
	ids := make([]graph.NodeID, 40)
	for i := range ids {
		ids[i], _ = s.MergeNode("H", fmt.Sprintf("h%d", i), nil)
	}
	for i := range ids {
		for j := range ids {
			if i != j {
				s.AddEdge(ids[i], "R", ids[j], nil)
			}
		}
	}
	return s
}

func explain(t *testing.T, s *graph.Store, q string) string {
	t.Helper()
	text, err := NewEngine(s, DefaultOptions()).Explain(q)
	if err != nil {
		t.Fatalf("explain %q: %v", q, err)
	}
	return text
}

func assertGolden(t *testing.T, got, want string) {
	t.Helper()
	got, want = strings.TrimSpace(got), strings.TrimSpace(want)
	if got != want {
		t.Errorf("plan drifted from golden snapshot:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestGoldenHashJoinPlan(t *testing.T) {
	got := explain(t, goldenJoinStore(),
		`match (a:Src), (b:Dst) where a.name = b.name return a.name, b.name`)
	assertGolden(t, got, `
plan (streaming, greedy-ordered):
   1. LabelScan (a:Src)                                            est≈300
   2. HashJoin on a.name = b.name (build=chain)
      where a.name = b.name
       2.1 LabelScan (b:Dst)                                       est≈300
   => Project a.name, b.name
`)
}

func TestGoldenHashJoinFallbackOnSelectiveProbe(t *testing.T) {
	// A point-seek probe side produces one row: the nested loop
	// enumerates the other chain exactly once either way, so building a
	// hash table buys nothing, and an input of seeks only keeps the
	// nested loop.
	pl := plan(t, goldenJoinStore(),
		`match (a:Src {name: "k7"}), (b:Dst) where a.name = b.name return b.name`)
	if planHas(pl, isHashJoin) {
		t.Fatalf("selective probe side must keep the nested loop:\n%s", pl.String())
	}
}

func TestGoldenBiExpandPlan(t *testing.T) {
	got := explain(t, goldenMeshStore(),
		`match (a:H {name: "h0"})-[:R]->()-[:R]->()-[:R]->()-[:R]->(b:H {name: "h1"}) return count(*)`)
	assertGolden(t, got, `
plan (streaming, greedy-ordered):
   1. IndexSeek(label+name) (a:H {name: "h0"}) name="h0"           est≈1
   2. BiExpand (a)-[:R]->()-[:R]->()-[:R]->()-[:R]->(b:H {name: "h1"}) [4 hops, meet@2]
   => Aggregate count(*)
`)
}

func TestGoldenBiExpandFallbackOnShortChain(t *testing.T) {
	// Two hops: the per-level map bookkeeping outweighs collapsing, so
	// the chain stays plain Expand stages.
	pl := plan(t, goldenMeshStore(),
		`match (a:H {name: "h0"})-[:R]->()-[:R]->(b:H {name: "h1"}) return count(*)`)
	if planHas(pl, isBiExpand) {
		t.Fatalf("2-hop chain must stay nested:\n%s", pl.String())
	}
}

func TestGoldenBiExpandFallbackOnSparseGraph(t *testing.T) {
	// The run's far end (b) is neither bound nor seek-hinted, so there is
	// no endpoint for the walks to meet: enumeration stays.
	s := graph.New()
	prev, _ := s.MergeNode("H", "h0", nil)
	for i := 1; i < 200; i++ {
		cur, _ := s.MergeNode("H", fmt.Sprintf("h%d", i), nil)
		s.AddEdge(prev, "R", cur, nil)
		prev = cur
	}
	pl := plan(t, s,
		`match (a:H {name: "h0"})-[:R]->()-[:R]->()-[:R]->()-[:R]->(b) return b.name`)
	if planHas(pl, isBiExpand) {
		t.Fatalf("sparse chain must stay nested:\n%s", pl.String())
	}
}

// TestGoldenFilteredLabelScanPlan pins a large filtered label scan
// under an aggregate: one streaming scan with its filter pushed down.
func TestGoldenFilteredLabelScanPlan(t *testing.T) {
	s := graph.New()
	for i := 0; i < 2500; i++ {
		s.MergeNode("T", fmt.Sprintf("node-%04d", i), nil)
	}
	got := explain(t, s, `match (n:T) where n.name contains "7" return count(*)`)
	assertGolden(t, got, `
plan (streaming, greedy-ordered):
   1. LabelScan (n:T)                                              est≈2500
      where n.name contains "7"
   => Aggregate count(*)
`)
}

// TestGoldenWithWherePushdown pins where a WITH's WHERE runs: the whole
// plan of the ledger's var-length hunt shape, whose grouping-key filter
// sits on the VarExpand that binds host, then per case the filters the
// segment's outer stages carry and what stays on the bridge — one case
// that pushes for each shape, one that does not for each reason.
func TestGoldenWithWherePushdown(t *testing.T) {
	s := skewedStore(t)
	got := explain(t, s, `match (m:Malware {name: "hub"})-[:CONNECT*1..2]-(host) optional match (host)<-[:MENTIONS]-(r) with host, collect(r.name) as reports where host.name starts with "10." return host.name, reports`)
	assertGolden(t, got, `
plan (streaming, greedy-ordered):
   1. IndexSeek(label+name) (m:Malware {name: "hub"}) name="hub"   est≈1
   2. VarExpand (m)-[:CONNECT*1..2]-(host)
      where host.name starts with "10."
   3. Optional [introduces r]
       3.1 BoundRef (host)
       3.2 Expand (host)<-[:MENTIONS]-(r)
   => With (aggregating) host, collect(r.name)
   => Project host.name, reports
`)
	for _, tc := range []struct {
		why, q         string
		seg            int
		pushed, bridge string
	}{
		{"pass-through grouping key", `match (m:Malware)-[:CONNECT]->(ip) with ip, count(m) as c where ip.name contains "1" return ip.name, c`, 0, `Expand (m)-[:CONNECT]->(ip): ip.name contains "1"`, ``},
		{"DISTINCT", `match (m:Malware)-[:CONNECT]->(ip) with distinct ip where ip.name contains "1" return ip.name`, 0, `Expand (m)-[:CONNECT]->(ip): ip.name contains "1"`, ``},
		{"carried from an earlier WITH", `match (m:Malware) with m match (m)-[:CONNECT]->(ip) with m, count(ip) as c where m.name = "hub" return c`, 1, `BoundRef (m): m.name = "hub"`, ``},
		{"mixed AND splits", `match (m:Malware)-[:CONNECT]->(ip) with ip, count(m) as c where c > 0 and ip.name contains "1" return ip.name, c`, 0, `Expand (m)-[:CONNECT]->(ip): ip.name contains "1"`, `c > 0`},
		{"aggregate alias", `match (m:Malware)-[:CONNECT]->(ip) with ip, count(m) as c where c > 0 return ip.name, c`, 0, ``, `c > 0`},
		{"renamed item", `match (m:Malware)-[:CONNECT]->(ip) with ip as x, count(m) as c where x.name contains "1" return x.name, c`, 0, ``, `x.name contains "1"`},
		{"variable an OPTIONAL MATCH introduces", `match (m:Malware) optional match (m)-[:CONNECT]->(ip) with ip, count(m) as c where ip.name contains "1" return ip.name, c`, 0, ``, `ip.name contains "1"`},
		{"UNWIND alias", `unwind [1, 2, 3] as x with x, count(*) as c where x > 1 return x, c`, 0, ``, `x > 1`},
		{"writing part", `match (m:Malware) set m.seen = "1" with m, count(*) as c where m.name = "hub" return c`, 0, ``, `m.name = "hub"`},
		{"aggregate call in the WHERE", `match (m:Malware)-[:CONNECT]->(ip) with ip, count(m) as c where ip.name contains "1" and count(m) > 0 return c`, 0, ``, `(ip.name contains "1" and count(m) > 0)`},
		{"WHERE names a non-item", `match (m:Malware)-[:CONNECT]->(ip) with ip, count(m) as c where ip.name contains "1" and m.name = "hub" return c`, 0, ``, `(ip.name contains "1" and m.name = "hub")`},
		{"item names an unbound variable", `match (m:Malware)-[:CONNECT]->(ip) with ip, collect(zz.name) as c where ip.name contains "1" return c`, 0, ``, `ip.name contains "1"`},
		{"sum() can fail", `match (m:Malware)-[:CONNECT]->(ip) with ip, sum(ip.port) as c where ip.name contains "1" return c`, 0, ``, `ip.name contains "1"`},
	} {
		seg := plan(t, s, tc.q).Segments[tc.seg]
		var pushed []string
		for _, st := range seg.Stages {
			for _, f := range st.filters() {
				pushed = append(pushed, st.describe()+": "+exprString(f))
			}
		}
		bridge := ""
		if seg.Filter != nil {
			bridge = exprString(seg.Filter)
		}
		if got := strings.Join(pushed, "; "); got != tc.pushed || bridge != tc.bridge {
			t.Errorf("%s: %s\n pushed %q, want %q\n bridge %q, want %q", tc.why, tc.q, got, tc.pushed, bridge, tc.bridge)
		}
	}
}

// TestPlanIgnoresDegree: after the entry, every planning decision follows
// from the pattern and the access paths, never from edge counts. Three
// shapes whose plans a fan-out estimate used to steer — a chain entered
// in the middle, two label-scan chains linked by equality, and a 3-hop
// anonymous run back to a bound start — must EXPLAIN byte-identically
// after one edge type's degree grows 120×, while no label or node count
// moves. The snapshot pins the rules themselves.
func TestPlanIgnoresDegree(t *testing.T) {
	s := graph.New()
	mk := func(label string, n int) []graph.NodeID {
		ids := make([]graph.NodeID, n)
		for i := range ids {
			ids[i], _ = s.MergeNode(label, fmt.Sprintf("%s%d", strings.ToLower(label), i), nil)
		}
		return ids
	}
	// :A and :C tie at 100 nodes, so the growth direction and the hashed
	// side are the ties' (right, and the chain).
	as, bs, cs := mk("A", 100), mk("B", 100), mk("C", 100)
	for i := 0; i < 10; i++ {
		s.AddEdge(as[i], "T", bs[i], nil)
	}
	for i, b := range bs {
		s.AddEdge(b, "U", cs[i], nil)
		s.AddEdge(b, "U", cs[(i+1)%100], nil)
	}
	queries := []string{
		`match (a:A)-[:T]->(b:B {name: "b0"})-[:U]->(c:C) return a.name, c.name`,
		`match (a:A)-[:T]->(x), (c:C) where x.name = c.name return count(*)`,
		`match (a:A {name: "a0"})-[:T]->()-[:T]->()-[:T]->(a) return count(*)`,
	}
	explainAll := func() string {
		var b strings.Builder
		for _, q := range queries {
			b.WriteString(explain(t, s, q))
		}
		return b.String()
	}
	before, nodes := explainAll(), s.Stats().NodesByType
	assertGolden(t, before, `
plan (streaming, greedy-ordered):
   1. IndexSeek(label+name) (b:B {name: "b0"}) name="b0"           est≈1
   2. Expand (b)-[:U]->(c:C)
   3. Expand (b)<-[:T]-(a:A)
   => Project a.name, c.name
plan (streaming, greedy-ordered):
   1. LabelScan (a:A)                                              est≈100
   2. Expand (a)-[:T]->(x)
   3. HashJoin on x.name = c.name (build=chain)
      where x.name = c.name
       3.1 LabelScan (c:C)                                         est≈100
   => Aggregate count(*)
plan (streaming, greedy-ordered):
   1. IndexSeek(label+name) (a:A {name: "a0"}) name="a0"           est≈1
   2. BiExpand (a)-[:T]->()-[:T]->()-[:T]->(a) [3 hops, meet@1]
   => Aggregate count(*)
`)
	tEdges := s.Stats().EdgesByType["T"]
	for _, a := range as {
		for _, b := range bs[:12] {
			s.AddEdge(a, "T", b, nil)
		}
	}
	if got := s.Stats().EdgesByType["T"]; got < 100*tEdges {
		t.Fatalf("T edges grew %d -> %d, want at least 100×", tEdges, got)
	}
	if got := s.Stats().NodesByType; !maps.Equal(got, nodes) {
		t.Fatalf("label counts moved: %v -> %v", nodes, got)
	}
	if after := explainAll(); after != before {
		t.Errorf("plans moved with one edge type's degree:\n--- before ---\n%s--- after ---\n%s", before, after)
	}
}
