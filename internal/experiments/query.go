package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"securitykg/internal/cypher"
	"securitykg/internal/graph"
	"securitykg/internal/layout"
)

// syntheticKG builds a KG-shaped graph of about n nodes: malware hubs with
// IOC fan-out, reports describing them, actors and techniques shared
// across malware (so multi-hop queries have work to do).
func syntheticKG(n int, seed int64) *graph.Store {
	rng := rand.New(rand.NewSource(seed))
	s := graph.New()
	nMal := n / 10
	if nMal < 1 {
		nMal = 1
	}
	actors := make([]graph.NodeID, 0, nMal/5+1)
	for i := 0; i <= nMal/5; i++ {
		id, _ := s.MergeNode("ThreatActor", fmt.Sprintf("actor-%d", i), nil)
		actors = append(actors, id)
	}
	techs := make([]graph.NodeID, 0, 20)
	for i := 0; i < 20; i++ {
		id, _ := s.MergeNode("Technique", fmt.Sprintf("technique-%d", i), nil)
		techs = append(techs, id)
	}
	for m := 0; m < nMal; m++ {
		mal, _ := s.MergeNode("Malware", fmt.Sprintf("malware-%d", m), nil)
		rep, _ := s.MergeNode("MalwareReport", fmt.Sprintf("report-%d", m), nil)
		s.AddEdge(rep, "DESCRIBES", mal, nil)
		s.AddEdge(mal, "ATTRIBUTED_TO", actors[rng.Intn(len(actors))], nil)
		for k := 0; k < 2; k++ {
			s.AddEdge(mal, "USE", techs[rng.Intn(len(techs))], nil)
		}
		fan := 6
		for k := 0; k < fan && s.Stats().Nodes < n; k++ {
			ip, _ := s.MergeNode("IP", fmt.Sprintf("10.%d.%d.%d", m%200, k, rng.Intn(250)), nil)
			s.AddEdge(mal, "CONNECT", ip, nil)
		}
	}
	return s
}

// CypherScaling reproduces E11 (the demo's Cypher scenario): point-query
// and multi-hop latency over growing KG sizes, with indexes on vs off.
func CypherScaling(sizes []int, seed int64) (*Table, error) {
	t := &Table{
		ID:      "E11",
		Title:   "cypher query latency: KG size x index usage",
		Columns: []string{"nodes", "query", "index", "latency", "rows"},
	}
	for _, n := range sizes {
		s := syntheticKG(n, seed)
		actual := s.Stats().Nodes
		target := fmt.Sprintf("malware-%d", n/20)
		queries := []struct {
			name string
			q    string
		}{
			{"point", fmt.Sprintf(`match (n) where n.name = %q return n`, target)},
			{"2-hop", fmt.Sprintf(`match (r:MalwareReport)-[:DESCRIBES]->(m {name: %q})-[:CONNECT]->(ip) return r.name, ip.name`, target)},
			{"shared-technique", fmt.Sprintf(`match (a {name: %q})-[:USE]->(t)<-[:USE]-(other) return distinct other.name`, target)},
		}
		for _, q := range queries {
			for _, useIdx := range []bool{true, false} {
				eng := cypher.NewEngine(s, cypher.Options{UseIndexes: useIdx})
				// Warm.
				res, err := eng.Query(q.q, nil)
				if err != nil {
					return nil, err
				}
				reps := 20
				if !useIdx && n > 20000 {
					reps = 3
				}
				start := time.Now()
				for i := 0; i < reps; i++ {
					if _, err := eng.Query(q.q, nil); err != nil {
						return nil, err
					}
				}
				lat := time.Since(start) / time.Duration(reps)
				t.AddRow(actual, q.name, useIdx, lat.Round(time.Microsecond).String(), len(res.Rows))
			}
		}
	}
	t.Notes = append(t.Notes,
		"index=false forces full scans: the crossover shows why the name/label indexes exist")
	return t, nil
}

// LayoutScaling reproduces E12 (Section 2.6's Barnes-Hut layout): ms per
// iteration for Barnes-Hut vs exact O(N²) repulsion, plus BH force error.
func LayoutScaling(sizes []int, theta float64, seed int64) (*Table, error) {
	t := &Table{
		ID:      "E12",
		Title:   fmt.Sprintf("graph layout: Barnes-Hut (θ=%.2f) vs exact repulsion", theta),
		Columns: []string{"nodes", "exact ms/iter", "barnes-hut ms/iter", "speedup", "BH force err"},
	}
	for _, n := range sizes {
		g := layoutGraph(n, seed)
		exact := layout.NewEngine(g, layout.Config{Exact: true}, seed)
		bh := layout.NewEngine(g, layout.Config{Theta: theta}, seed)
		iters := 5
		if n > 5000 {
			iters = 2
		}
		timeOf := func(e *layout.Engine) time.Duration {
			start := time.Now()
			for i := 0; i < iters; i++ {
				e.Step()
			}
			return time.Since(start) / time.Duration(iters)
		}
		te := timeOf(exact)
		tb := timeOf(bh)
		errRate := bh.ForceError()
		t.AddRow(n,
			fmt.Sprintf("%.2f", float64(te.Microseconds())/1000),
			fmt.Sprintf("%.2f", float64(tb.Microseconds())/1000),
			fmt.Sprintf("%.1fx", float64(te)/float64(tb)),
			fmt.Sprintf("%.4f", errRate))
	}
	t.Notes = append(t.Notes,
		"Barnes-Hut computes approximated repulsive forces from the node distribution (Section 2.6)")
	return t, nil
}

func layoutGraph(n int, seed int64) layout.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := layout.Graph{N: n}
	for i := 1; i < n; i++ {
		g.Edges = append(g.Edges, [2]int{rng.Intn(i), i})
	}
	return g
}

// ExploreOps reproduces E13 (Section 2.6's interactivity): latency of the
// exploration primitives on a large KG.
func ExploreOps(nodes int, seed int64) (*Table, error) {
	s := syntheticKG(nodes, seed)
	actual := s.Stats().Nodes
	sn := s.Snapshot()
	defer sn.Release()
	hub := sn.FindNode("Malware", "malware-1")
	if hub == nil {
		return nil, fmt.Errorf("experiments: hub node missing")
	}
	t := &Table{
		ID:      "E13",
		Title:   fmt.Sprintf("exploration operations on a %d-node KG", actual),
		Columns: []string{"operation", "latency", "result size"},
	}
	timeIt := func(name string, reps int, op func() int) {
		op() // warm
		start := time.Now()
		size := 0
		for i := 0; i < reps; i++ {
			size = op()
		}
		t.AddRow(name, (time.Since(start) / time.Duration(reps)).Round(time.Microsecond).String(), size)
	}
	timeIt("expand depth=1", 100, func() int {
		return len(sn.ExpandFrom([]graph.NodeID{hub.ID}, 1, 25, 100).Nodes)
	})
	timeIt("expand depth=2", 50, func() int {
		return len(sn.ExpandFrom([]graph.NodeID{hub.ID}, 2, 25, 200).Nodes)
	})
	timeIt("random subgraph n=50", 50, func() int {
		return len(sn.RandomSubgraph(seed, 50).Nodes)
	})
	timeIt("collapse", 100, func() int {
		sg := sn.ExpandFrom([]graph.NodeID{hub.ID}, 1, 25, 100)
		return len(sn.CollapseFrom(hub.ID, sg.NodeIDs(), sg.NodeIDs()[:1]))
	})
	timeIt("layout 100-node view", 10, func() int {
		sg := sn.ExpandFrom([]graph.NodeID{hub.ID}, 2, 25, 100)
		lg := layout.Graph{N: len(sg.Nodes)}
		idx := map[graph.NodeID]int{}
		for i, nd := range sg.Nodes {
			idx[nd.ID] = i
		}
		for _, e := range sg.Edges {
			lg.Edges = append(lg.Edges, [2]int{idx[e.From], idx[e.To]})
		}
		eng := layout.NewEngine(lg, layout.Config{}, seed)
		return eng.Run(100, 0.05)
	})
	return t, nil
}
