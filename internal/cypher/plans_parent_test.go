package cypher

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"securitykg/internal/graph"
)

var updatePlans = flag.Bool("update-plans", false, "rewrite testdata/plans_parent.txt from this build")

// TestPlansMatchParent holds every plan to testdata/plans_parent.txt,
// which the last change that meant to alter a plan wrote (counts choose
// only the entry; growth, hash joins and BiExpand follow the pattern): the
// EXPLAIN text of the statements the golden-plan, join and planner tests
// plan over their fixtures, the property generators at fixed seeds, and
// the ledger's hunt-point and hunt-scan statement classes over a
// kg-100k-shaped graph. A scan estimate that moves in the last digit
// fails it. Regenerate (-update-plans) only when a change means to alter a
// plan; `make plan-shapes REV=<parent>` then shows which plans moved
// beyond their estimates.
func TestPlansMatchParent(t *testing.T) {
	var out strings.Builder
	section := func(name string, s *graph.Store, opts Options, queries ...string) {
		fmt.Fprintf(&out, "== %s\n", name)
		eng := NewEngine(s, opts)
		for _, q := range queries {
			text, err := eng.Explain(q)
			if err != nil {
				text = "error: " + err.Error() + "\n"
			}
			fmt.Fprintf(&out, "-- %s\n%s", q, text)
		}
	}
	parentCorpus(t, section)

	// bench/requests.go's statements, the point mix's literal-text class
	// included.
	section("kg-100k shape", kgShapedStore(), DefaultOptions(),
		`match (n {name:$ioc}) return n`,
		`match (i {name:$ioc})<-[:CONNECT]-(m:Malware) return m.name`,
		`match (r:MalwareReport)-[:DESCRIBES]->(m:Malware {name:$mw})-[:CONNECT]->(i:IP) return r.name, i.name limit 50`,
		`match (n {name:"c2-17"}) return n`,
		`match (r:MalwareReport)-[:REPORTED_BY]->(v:CTIVendor) return v.name, count(*) as n order by n desc, v.name limit 10`,
		`match (m:Malware {name:$mw})-[:CONNECT*1..2]-(host) optional match (host)<-[:MENTIONS]-(r) with host, collect(r.name) as reports where host.name starts with "10." return host.name, reports order by host.name limit 10`,
		`match (m:Malware), (t:Tool) where m.family = t.name return t.name, count(*) as n order by n desc, t.name limit 10`,
		`match (r:MalwareReport) return r.name order by r.published desc, r.name limit 10`,
		`match (d:Domain) return d.name, d.first_seen`)

	matchesParentFile(t, "testdata/plans_parent.txt", out.String(), *updatePlans)
}

// matchesParentFile fails t at the first line where got differs from the
// file at path, or rewrites the file with got when update is set.
func matchesParentFile(t *testing.T, path, got string, update bool) {
	t.Helper()
	if update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s differs at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s differs in length: %d lines, want %d", path, len(gl), len(wl))
	}
}

// parentCorpus hands section every fixture and statement list the
// parent-pinned tests cover, in order, except the kg-100k shape, which
// only TestPlansMatchParent covers. A section's queries run in order over
// one store, so a write among them is seen by the ones after it.
func parentCorpus(t *testing.T, section func(name string, s *graph.Store, opts Options, queries ...string)) {
	section("golden join", goldenJoinStore(), DefaultOptions(),
		`match (a:Src), (b:Dst) where a.name = b.name return a.name, b.name`,
		`match (a:Src {name: "k7"}), (b:Dst) where a.name = b.name return b.name`,
		`match (a:Src) where a.name = $secret return a.name`)
	section("golden mesh", goldenMeshStore(), DefaultOptions(),
		`match (a:H {name: "h0"})-[:R]->()-[:R]->()-[:R]->()-[:R]->(b:H {name: "h1"}) return count(*)`,
		`match (a:H {name: "h0"})-[:R]->()-[:R]->(b:H {name: "h1"}) return count(*)`,
		`match (a:H {name: "h0"})-[:R*1..2]->(b) return count(*)`,
		`match (a:H)-[:R]->(b) return a.name, b.name`)
	chain := graph.New()
	prev, _ := chain.MergeNode("H", "h0", nil)
	for i := 1; i < 200; i++ {
		cur, _ := chain.MergeNode("H", fmt.Sprintf("h%d", i), nil)
		chain.AddEdge(prev, "R", cur, nil)
		prev = cur
	}
	section("sparse chain", chain, DefaultOptions(),
		`match (a:H {name: "h0"})-[:R]->()-[:R]->()-[:R]->()-[:R]->(b) return b.name`)

	section("join store", joinStore(), DefaultOptions(), slices.Concat(hashJoinQueries, []string{
		`match (a:Src), (b:Dst) where a.name = b.name return a.name, b.name order by a.name, b.name skip 3 limit 7`,
		`match (a:Src), (b:Dst) where a.name = b.name and b.name contains "3" return a.name`,
		`match (a:Src)-[]->(), (b:Dst)-[]->() where a.name = b.name return a.name, b.name`,
	})...)
	shared := graph.New()
	hub, _ := shared.MergeNode("Hub", "hub", nil)
	for i := 0; i < 200; i++ {
		ip, _ := shared.MergeNode("IP", fmt.Sprintf("10.0.0.%d", i), nil)
		shared.AddEdge(hub, "CONNECT", ip, nil)
		d, _ := shared.MergeNode("Domain", fmt.Sprintf("d%d", i), nil)
		shared.AddEdge(d, "RESOLVES", ip, nil)
	}
	section("shared variable", shared, DefaultOptions(),
		`match (h:Hub)-[:CONNECT]->(ip), (d:Domain)-[:RESOLVES]->(ip) return d.name, ip.name`,
		`match (h:Hub)-[:CONNECT]->(ip), (d:Domain {name: "d7"})-[:RESOLVES]->(ip) return ip.name`)
	section("mesh 12", meshStore(12), DefaultOptions(), biExpandQueries...)
	wide := graph.New()
	for i := 0; i < 3000; i++ {
		wide.MergeNode("T", fmt.Sprintf("node-%04d", i), nil)
	}
	section("one wide label", wide, DefaultOptions(),
		`match (n:T) where n.name contains "7" return n.name order by n.name`,
		`match (n:T) where n.name contains "7" return count(*)`,
		`match (n:T) return n.name limit 5`,
		`match (n:T) return n.name`,
		`match (n:T) with n.name as g, count(*) as c return g, c limit 3`,
		`match (n:T) set n.seen = "1" return n.name limit 3`)

	skewed := skewedStore(t)
	section("skewed hub", skewed, DefaultOptions(),
		`match (ip:IP)<-[:CONNECT]-(m:Malware) return ip.name`,
		`match (n) where n.name = "hub" and n.type = "Malware" return n`,
		`match (m:Malware)-[:CONNECT]->(ip), (m)-[:CONNECT]->(ip2) return ip.name, ip2.name`,
		`match (m:Malware)-[:CONNECT]->(ip) where ip.name contains "10." return ip.name limit 5`,
		`match (m:Malware)-[:CONNECT]->(ip) return ip.name limit 7`,
		`match (a), (b), (c) return count(*)`)
	section("skewed hub, no indexes", skewed, Options{UseIndexes: false},
		`match (m:Malware) return m`,
		`match (m:Malware)-[:CONNECT]->(ip) return ip.name`)
	attr := graph.New()
	attr.IndexAttr("platform")
	for i := 0; i < 100; i++ {
		plat := "windows"
		if i%10 == 0 {
			plat = "solaris"
		}
		attr.MergeNode("Malware", fmt.Sprintf("m%d", i), map[string]string{"platform": plat})
	}
	section("indexed attr", attr, DefaultOptions(),
		`match (m:Malware) where m.platform = "solaris" return m.name`,
		`match (m:Malware) where m.platform = $p return m.name`)
	section("demo graph", buildDemoGraph(t), DefaultOptions(),
		`match (m:Malware)-[:CONNECT]->(x) return x.name order by x.name`,
		`match (r:MalwareReport)-[:DESCRIBES]->(m)-[:EXPLOIT]->(v) return r.name, m.name, v.name`,
		`match (a:ThreatActor {name: "cozyduke"})-[:USE]->(t)<-[:USE]-(o) where o.name <> "cozyduke" return distinct o.name`,
		`match (a:Technique), (b:ThreatActor) return a.name, b.name order by a.name, b.name`,
		`match (m:Malware)-[:EXPLOIT]->(v), (m)-[:DROP]->(f) return m.name, v.name, f.name`)

	for seed := int64(0); seed < 8; seed++ {
		section(fmt.Sprintf("random store %d", seed), randomStore(seed, 40), Options{UseIndexes: true}, equivalenceQueries...)
	}
	for seed := int64(0); seed < 200; seed++ {
		s, kind := randomStore(seed, 30), "random"
		if seed%3 == 0 {
			s, kind = denseRandomStore(seed, 12), "dense"
		}
		section(fmt.Sprintf("generated %d (%s)", seed, kind), s, Options{UseIndexes: true},
			genSurfaceQuery(rand.New(rand.NewSource(seed))))
	}
}

// kgShapedStore has the label counts and fan-outs of the ledger's kg-100k
// (bench/kg.go; the root package's scanKG is the same shape): reports
// filed by vendors, describing malware and mentioning IOCs, malware with
// a family attribute and hub-skewed CONNECT edges onto IPs and domains.
func kgShapedStore() *graph.Store {
	rng := rand.New(rand.NewSource(1))
	s := graph.New()
	s.BeginBulk()
	defer s.EndBulk()
	mk := func(label, prefix string, n int, attrs func() map[string]string) []graph.NodeID {
		ids := make([]graph.NodeID, n)
		for i := range ids {
			var a map[string]string
			if attrs != nil {
				a = attrs()
			}
			ids[i], _ = s.MergeNode(label, fmt.Sprintf("%s-%d", prefix, i), a)
		}
		return ids
	}
	seen := func() map[string]string { return map[string]string{"first_seen": "2021"} }
	vendors := mk("CTIVendor", "vendor", 40, nil)
	tools := mk("Tool", "tool", 200, nil)
	malware := mk("Malware", "mw", 4000, func() map[string]string {
		return map[string]string{"family": fmt.Sprintf("tool-%d", rng.Intn(len(tools)))}
	})
	iocs := append(mk("IP", "10.0.0", 35000, seen), mk("Domain", "c2", 20000, seen)...)
	iocZ := rand.NewZipf(rng, 1.1, 50, uint64(len(iocs)-1))
	malwareZ := rand.NewZipf(rng, 1.1, 50, uint64(len(malware)-1))
	for _, r := range mk("MalwareReport", "report", 30000, func() map[string]string {
		return map[string]string{"published": fmt.Sprintf("2021-%02d", 1+rng.Intn(12))}
	}) {
		s.AddEdge(r, "REPORTED_BY", vendors[rng.Intn(len(vendors))], nil)
		s.AddEdge(r, "DESCRIBES", malware[malwareZ.Uint64()], nil)
		for k := 0; k < 6; k++ {
			s.AddEdge(r, "MENTIONS", iocs[iocZ.Uint64()], nil)
		}
	}
	for rank, m := range malware {
		for k := 0; k < 2+6000/(50+rank); k++ { // hubs near rank 0, a long tail of 2-3
			s.AddEdge(m, "CONNECT", iocs[iocZ.Uint64()], nil)
		}
	}
	return s
}
