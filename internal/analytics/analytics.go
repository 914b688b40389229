// Package analytics implements the "threat analysis" application layer the
// paper lists alongside threat search and threat hunting: graph-analytic
// primitives over the security knowledge graph — importance ranking
// (PageRank), connected-component discovery (campaign clusters), threat
// actor profiling (technique/tool portfolios), and publication timelines.
package analytics

import (
	"sort"

	"securitykg/internal/graph"
	"securitykg/internal/ontology"
)

// Ranked pairs a node with a score.
type Ranked struct {
	Node  *graph.Node
	Score float64
}

// pageRank computes importance scores over the knowledge graph treating
// edges as undirected citations (a report describing a malware raises the
// malware's rank; shared infrastructure concentrates rank). damping is
// typically 0.85; iters around 20-50.
func pageRank(sn *graph.Snap, damping float64, iters int) map[graph.NodeID]float64 {
	if damping <= 0 || damping >= 1 {
		damping = 0.85
	}
	if iters <= 0 {
		iters = 30
	}
	var ids []graph.NodeID
	deg := map[graph.NodeID]int{}
	adj := map[graph.NodeID][]graph.NodeID{}
	sn.ForEachNode(func(n *graph.Node) bool {
		ids = append(ids, n.ID)
		for _, e := range sn.Edges(n.ID, graph.Out) {
			adj[e.From] = append(adj[e.From], e.To)
			adj[e.To] = append(adj[e.To], e.From)
			deg[e.From]++
			deg[e.To]++
		}
		return true
	})
	n := float64(len(ids))
	if n == 0 {
		return map[graph.NodeID]float64{}
	}
	rank := make(map[graph.NodeID]float64, len(ids))
	for _, id := range ids {
		rank[id] = 1 / n
	}
	for it := 0; it < iters; it++ {
		next := make(map[graph.NodeID]float64, len(ids))
		base := (1 - damping) / n
		var danglingMass float64
		for _, id := range ids {
			if deg[id] == 0 {
				danglingMass += rank[id]
			}
		}
		for _, id := range ids {
			next[id] = base + damping*danglingMass/n
		}
		for _, id := range ids {
			if deg[id] == 0 {
				continue
			}
			share := damping * rank[id] / float64(deg[id])
			for _, nb := range adj[id] {
				next[nb] += share
			}
		}
		rank = next
	}
	return rank
}

// TopThreats returns the k highest-PageRank nodes of the given entity
// types (nil = threat concepts), most important first.
func TopThreats(s *graph.Store, k int, types []ontology.EntityType) []Ranked {
	sn := s.Snapshot()
	defer sn.Release()
	ranks := pageRank(sn, 0.85, 30)
	want := map[string]bool{}
	for _, t := range types {
		want[string(t)] = true
	}
	var out []Ranked
	sn.ForEachNode(func(n *graph.Node) bool {
		if len(want) > 0 {
			if !want[n.Type] {
				return true
			}
		} else if !ontology.IsThreatConcept(ontology.EntityType(n.Type)) {
			return true
		}
		out = append(out, Ranked{Node: n, Score: ranks[n.ID]})
		return true
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Node.ID < out[j].Node.ID
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// Component is one connected component of the KG.
type Component struct {
	Nodes []graph.NodeID
	Size  int
}

// ConnectedComponents finds undirected components, largest first. Isolated
// report clusters often indicate distinct campaigns.
func ConnectedComponents(s *graph.Store) []Component {
	sn := s.Snapshot()
	defer sn.Release()
	visited := map[graph.NodeID]bool{}
	var comps []Component
	sn.ForEachNode(func(n *graph.Node) bool {
		if visited[n.ID] {
			return true
		}
		var comp []graph.NodeID
		queue := []graph.NodeID{n.ID}
		visited[n.ID] = true
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			comp = append(comp, cur)
			for _, nb := range sn.Neighbors(cur, graph.Both) {
				if !visited[nb.ID] {
					visited[nb.ID] = true
					queue = append(queue, nb.ID)
				}
			}
		}
		sort.Slice(comp, func(i, j int) bool { return comp[i] < comp[j] })
		comps = append(comps, Component{Nodes: comp, Size: len(comp)})
		return true
	})
	sort.Slice(comps, func(i, j int) bool {
		if comps[i].Size != comps[j].Size {
			return comps[i].Size > comps[j].Size
		}
		return comps[i].Nodes[0] < comps[j].Nodes[0]
	})
	return comps
}

// ActorProfile summarizes a threat actor's observed portfolio.
type ActorProfile struct {
	Actor      *graph.Node
	Techniques []string
	Tools      []string
	Malware    []string // attributed malware
	Targets    []string
	Reports    int
}

// ProfileActor aggregates everything the KG knows about one threat actor.
func ProfileActor(s *graph.Store, name string) *ActorProfile {
	sn := s.Snapshot()
	defer sn.Release()
	return profileActor(sn, name)
}

func profileActor(sn *graph.Snap, name string) *ActorProfile {
	actor := sn.FindNode(string(ontology.TypeThreatActor), name)
	if actor == nil {
		return nil
	}
	p := &ActorProfile{Actor: actor}
	for _, e := range sn.Edges(actor.ID, graph.Out) {
		dst := sn.Node(e.To)
		if dst == nil {
			continue
		}
		switch {
		case e.Type == string(ontology.RelUses) && dst.Type == string(ontology.TypeTechnique):
			p.Techniques = append(p.Techniques, dst.Name)
		case e.Type == string(ontology.RelUses) && dst.Type == string(ontology.TypeTool):
			p.Tools = append(p.Tools, dst.Name)
		case e.Type == string(ontology.RelTargets):
			p.Targets = append(p.Targets, dst.Name)
		}
	}
	for _, e := range sn.Edges(actor.ID, graph.In) {
		src := sn.Node(e.From)
		if src == nil {
			continue
		}
		switch {
		case e.Type == string(ontology.RelAttributedTo) && src.Type == string(ontology.TypeMalware):
			p.Malware = append(p.Malware, src.Name)
		case e.Type == string(ontology.RelDescribes) || e.Type == string(ontology.RelMentions):
			p.Reports++
		}
	}
	sort.Strings(p.Techniques)
	sort.Strings(p.Tools)
	sort.Strings(p.Malware)
	sort.Strings(p.Targets)
	return p
}

// SimilarActors ranks other actors by Jaccard similarity of technique and
// tool portfolios — the generalized form of the demo's "other threat
// actors that use the same set of techniques" question.
func SimilarActors(s *graph.Store, name string, k int) []Ranked {
	sn := s.Snapshot()
	defer sn.Release()
	self := profileActor(sn, name)
	if self == nil {
		return nil
	}
	selfSet := map[string]bool{}
	for _, t := range self.Techniques {
		selfSet["T:"+t] = true
	}
	for _, t := range self.Tools {
		selfSet["L:"+t] = true
	}
	var out []Ranked
	for _, n := range sn.NodesByType(string(ontology.TypeThreatActor)) {
		if n.Name == name {
			continue
		}
		other := profileActor(sn, n.Name)
		otherSet := map[string]bool{}
		for _, t := range other.Techniques {
			otherSet["T:"+t] = true
		}
		for _, t := range other.Tools {
			otherSet["L:"+t] = true
		}
		inter, union := 0, len(selfSet)
		for x := range otherSet {
			if selfSet[x] {
				inter++
			} else {
				union++
			}
		}
		if union == 0 || inter == 0 {
			continue
		}
		out = append(out, Ranked{Node: n, Score: float64(inter) / float64(union)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Node.ID < out[j].Node.ID
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// TimelineBucket counts reports published in one period.
type TimelineBucket struct {
	Period string // YYYY-MM
	Count  int
}

// Timeline buckets the reports describing or mentioning a threat by
// publication month, oldest first — campaign activity over time.
func Timeline(s *graph.Store, threat graph.NodeID) []TimelineBucket {
	sn := s.Snapshot()
	defer sn.Release()
	counts := map[string]int{}
	for _, e := range sn.Edges(threat, graph.In) {
		if e.Type != string(ontology.RelDescribes) && e.Type != string(ontology.RelMentions) {
			continue
		}
		rep := sn.Node(e.From)
		if rep == nil {
			continue
		}
		date := rep.Attrs.Get("published_at")
		if len(date) < 7 {
			continue
		}
		counts[date[:7]]++
	}
	out := make([]TimelineBucket, 0, len(counts))
	for p, c := range counts {
		out = append(out, TimelineBucket{Period: p, Count: c})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Period < out[j].Period })
	return out
}
