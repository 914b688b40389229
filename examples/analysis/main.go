// Analysis demonstrates the threat-analysis application layer: after a
// full ingest it ranks the most important threats by PageRank, discovers
// campaign clusters via connected components, profiles a threat actor's
// portfolio, finds actors with overlapping tradecraft, and plots a
// threat's reporting timeline.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"securitykg"
	"securitykg/internal/analytics"
	"securitykg/internal/ontology"
)

func main() {
	sys, err := securitykg.New(securitykg.Options{ReportsPerSource: 15, Seed: 11})
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

	// 1. Most important threats by PageRank over the KG.
	fmt.Println("=== top threats by graph importance ===")
	for _, r := range analytics.TopThreats(sys.Store, 8,
		[]ontology.EntityType{ontology.TypeMalware, ontology.TypeThreatActor}) {
		fmt.Printf("  %.5f  [%s] %s\n", r.Score, r.Node.Type, r.Node.Name)
	}

	// 2. Campaign clusters.
	comps := analytics.ConnectedComponents(sys.Store)
	fmt.Printf("\n=== campaign structure: %d connected components ===\n", len(comps))
	for i, c := range comps {
		if i >= 3 {
			fmt.Printf("  ... and %d smaller clusters\n", len(comps)-3)
			break
		}
		fmt.Printf("  cluster %d: %d nodes\n", i+1, c.Size)
	}

	// 3. Actor profile: pick the actor with the most attributed malware.
	var best *analytics.ActorProfile
	sn := sys.Store.Snapshot()
	defer sn.Release()
	for _, n := range sn.NodesByType(string(ontology.TypeThreatActor)) {
		p := analytics.ProfileActor(sys.Store, n.Name)
		if best == nil || len(p.Malware)+len(p.Techniques) > len(best.Malware)+len(best.Techniques) {
			best = p
		}
	}
	if best == nil {
		log.Fatal("no actors in graph")
	}
	fmt.Printf("\n=== actor profile: %s ===\n", best.Actor.Name)
	fmt.Printf("  techniques: %s\n", strings.Join(best.Techniques, ", "))
	fmt.Printf("  tools:      %s\n", strings.Join(best.Tools, ", "))
	fmt.Printf("  malware:    %s\n", strings.Join(best.Malware, ", "))
	fmt.Printf("  targets:    %s\n", strings.Join(best.Targets, ", "))

	// 4. Tradecraft overlap.
	fmt.Printf("\n=== actors with overlapping tradecraft (Jaccard) ===\n")
	sims := analytics.SimilarActors(sys.Store, best.Actor.Name, 5)
	if len(sims) == 0 {
		fmt.Println("  (none)")
	}
	for _, r := range sims {
		fmt.Printf("  %.3f  %s\n", r.Score, r.Node.Name)
	}

	// 5. Reporting timeline for the top malware.
	top := analytics.TopThreats(sys.Store, 1, []ontology.EntityType{ontology.TypeMalware})
	if len(top) > 0 {
		fmt.Printf("\n=== reporting timeline: %s ===\n", top[0].Node.Name)
		for _, b := range analytics.Timeline(sys.Store, top[0].Node.ID) {
			fmt.Printf("  %s %s (%d)\n", b.Period, strings.Repeat("#", b.Count), b.Count)
		}
	}
}
