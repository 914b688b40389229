// Hunting shows a downstream application from the paper's motivation: a
// threat-hunting assistant. Given indicators observed in an "incident"
// (here: IOCs lifted from one report, simulating endpoint telemetry), it
// pivots through the knowledge graph to identify the likely threat, its
// actor, and the additional indicators a responder should hunt for next.
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"securitykg"
	"securitykg/internal/cypher"
	"securitykg/internal/graph"
	"securitykg/internal/ontology"
)

func main() {
	sys, err := securitykg.New(securitykg.Options{ReportsPerSource: 15, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := sys.Collect(context.Background()); err != nil {
		log.Fatal(err)
	}
	if _, err := sys.Fuse(); err != nil {
		log.Fatal(err)
	}
	gs := sys.Store.Stats()
	fmt.Printf("knowledge graph: %d nodes, %d edges\n\n", gs.Nodes, gs.Edges)

	// Simulated incident telemetry: take the network IOCs of one malware
	// in the graph as "what the EDR saw".
	sn := sys.Store.Snapshot()
	defer sn.Release()
	observed := sampleIncidentIOCs(sn)
	if len(observed) == 0 {
		log.Fatal("no IOCs in graph; increase reports per source")
	}
	fmt.Println("observed indicators from the incident:")
	for _, ioc := range observed {
		fmt.Printf("  [%s] %s\n", ioc.Type, ioc.Name)
	}

	// Hunt: score threat-concept nodes by how many observed IOCs connect
	// to them (1-hop pivot).
	scores := map[graph.NodeID]int{}
	for _, ioc := range observed {
		for _, nb := range sn.Neighbors(ioc.ID, graph.Both) {
			if ontology.IsThreatConcept(ontology.EntityType(nb.Type)) {
				scores[nb.ID]++
			}
		}
	}
	type scored struct {
		n *graph.Node
		s int
	}
	var ranked []scored
	for id, s := range scores {
		ranked = append(ranked, scored{sn.Node(id), s})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].s != ranked[j].s {
			return ranked[i].s > ranked[j].s
		}
		return ranked[i].n.ID < ranked[j].n.ID
	})
	fmt.Println("\nhypotheses (threat concepts linked to the observed IOCs):")
	for i, r := range ranked {
		if i >= 3 {
			break
		}
		fmt.Printf("  %d/%d indicators -> [%s] %s\n", r.s, len(observed), r.n.Type, r.n.Name)
	}
	if len(ranked) == 0 {
		log.Fatal("no hypothesis found")
	}
	top := ranked[0].n
	fmt.Printf("\nbest hypothesis: %s (%s)\n", top.Name, top.Type)

	// Expand the hypothesis: what else does the KG know about this threat?
	fmt.Println("\nadditional indicators and behaviors to hunt for:")
	for _, e := range sn.Edges(top.ID, graph.Out) {
		dst := sn.Node(e.To)
		already := false
		for _, o := range observed {
			if o.ID == dst.ID {
				already = true
			}
		}
		marker := " "
		if already {
			marker = "*" // already observed in the incident
		}
		fmt.Printf("  %s %-14s -> [%s] %s\n", marker, e.Type, dst.Type, dst.Name)
	}

	// Multi-hop sweep via Cypher: a variable-length traversal pulls in
	// the assets within two edges of the hypothesis (the classic
	// "what is ≤ k hops from this IOC" hunt), with the actors that use
	// each asset collected alongside — OPTIONAL MATCH keeps assets no
	// actor touches, WITH + collect folds the actor sets per asset. The
	// hypothesis name binds as $threat: hunted values (which come from
	// the graph, i.e. from crawled CTI text) are never spliced into
	// query strings.
	threat := map[string]any{"threat": top.Name}
	eng := sys.Engine()
	res, err := eng.Query(`
		match (m {name: $threat})-[*1..2]-(x)
		optional match (x)<-[:USE]-(a:ThreatActor)
		with x, collect(a.name) as actors
		return x.type, x.name, actors
		order by x.type, x.name limit 15`, threat)
	if err == nil {
		fmt.Println("\nhunting surface within 2 hops (Cypher var-length sweep):")
		for _, row := range res.Rows {
			fmt.Printf("  [%s] %s  actors=%s\n", row[0], row[1], row[2])
		}
	}

	// Attribution and reporting context via Cypher, streamed through the
	// cursor API: the DESCRIBES sweep prints reports as they match.
	res, err = eng.Query(
		`match (m {name: $threat})-[:ATTRIBUTED_TO]->(a:ThreatActor) return a.name`, threat)
	if err == nil && len(res.Rows) > 0 {
		fmt.Printf("\nattribution: %s\n", res.Rows[0][0])
	}
	rows, err := eng.QueryRows(
		`match (r)-[:DESCRIBES]->(m {name: $threat}) return r.name, r.source`, threat)
	if err == nil {
		fmt.Println("reports describing this threat:")
		err = rows.Drain(func(row []cypher.Value) error {
			fmt.Printf("  %s (%s)\n", row[0], row[1])
			return nil
		})
	}
	if err != nil {
		log.Fatal(err)
	}
}

// sampleIncidentIOCs picks the network/file IOCs adjacent to the first
// malware node that has at least three of them.
func sampleIncidentIOCs(sn *graph.Snap) []*graph.Node {
	var out []*graph.Node
	sn.ForEachNode(func(n *graph.Node) bool {
		if n.Type != "Malware" {
			return true
		}
		var iocs []*graph.Node
		for _, nb := range sn.Neighbors(n.ID, graph.Out) {
			if ontology.IsIOCType(ontology.EntityType(nb.Type)) {
				iocs = append(iocs, nb)
			}
		}
		if len(iocs) >= 3 {
			out = iocs[:3]
			return false
		}
		return true
	})
	return out
}
