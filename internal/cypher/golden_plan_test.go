package cypher

import (
	"fmt"
	"strings"
	"testing"

	"securitykg/internal/graph"
)

// The golden-plan suite pins the planner's choices on canonical shapes
// over fixture stores with known skew: full EXPLAIN snapshots where the
// whole plan matters, operator assertions where only the choice does.
// Cost-model edits that change a choice fail loudly here instead of
// silently regressing plans. Everything is deterministic: the fixtures
// are fixed, and estimates come from exact counts over them.

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
   2. HashJoin on a.name = b.name (build=chain)                    est≈300
      where a.name = b.name
       2.1 LabelScan (b:Dst)                                       est≈300
   => Project a.name, b.name
`)
}

func TestGoldenHashJoinFallbackOnSelectiveProbe(t *testing.T) {
	// A point-seek probe side produces one row: the estimates say the
	// nested loop enumerates the other chain exactly once either way, so
	// building a hash table buys nothing and the planner must fall back.
	pl := plan(t, goldenJoinStore(),
		`match (a:Src {name: "k7"}), (b:Dst) where a.name = b.name return b.name`)
	if planHas(pl, isHashJoin) {
		t.Fatalf("selective probe side must keep the nested loop:\n%s", pl.String())
	}
}

func TestGoldenHashJoinFallbackOnOversizedBuild(t *testing.T) {
	// Both sides past hashJoinMaxBuild: the build table cannot fit, so
	// the planner keeps the pipelined nested loop. Exercised through the
	// pure decision function — building a 10^6-node fixture store for
	// this would dominate the suite's runtime.
	if got := chooseJoin(1<<20, 1<<21, 1<<21, 1e18, 1<<20); got != joinNested {
		t.Fatalf("oversized build side chose %v, want nested", got)
	}
	// Just under the cap, the same shape hashes.
	if got := chooseJoin(1<<16, 1<<21, 1<<21, 1e18, 1<<16); got != joinHashInput {
		t.Fatalf("fitting build side chose %v, want hash(input)", got)
	}
}

func TestGoldenBiExpandPlan(t *testing.T) {
	got := explain(t, goldenMeshStore(),
		`match (a:H {name: "h0"})-[:R]->()-[:R]->()-[:R]->()-[:R]->(b:H {name: "h1"}) return count(*)`)
	assertGolden(t, got, `
plan (streaming, greedy-ordered):
   1. IndexSeek(label+name) (a:H {name: "h0"}) name="h0"           est≈1
   2. BiExpand (a)-[:R]->()-[:R]->()-[:R]->()-[:R]->(b:H {name: "h1"}) [4 hops, meet@2] est≈57836.0
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
	// A sparse chain graph: walks never outnumber nodes, so counted
	// expansion would only add map overhead — enumeration stays.
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
   2. VarExpand (m)-[:CONNECT*1..2]-(host)                         est≈1498.0
      where host.name starts with "10."
   3. Optional [introduces r]                                      est≈1498.0
       3.1 BoundRef (host)                                         est≈1498.0
       3.2 Expand (host)<-[:MENTIONS]-(r)                          est≈1
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
