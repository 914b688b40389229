// Threatsearch replays the three demonstration scenarios from Section 3 of
// the paper against a freshly built knowledge graph:
//
//  1. keyword search for "wannacry" and exploration of its neighborhood;
//  2. keyword search for "cozyduke" and the shared-techniques question
//     ("are there other threat actors that use the same set of techniques?");
//  3. the literal Cypher query
//     match (n) where n.name = "wannacry" return n.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"securitykg"
	"securitykg/internal/graph"
)

func main() {
	sys, err := securitykg.New(securitykg.Options{ReportsPerSource: 20, Seed: 42})
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
	fmt.Printf("knowledge graph ready: %d nodes, %d edges\n\n", gs.Nodes, gs.Edges)

	// --- Scenario 1: keyword search for "wannacry" -------------------
	fmt.Println("=== scenario 1: keyword search \"wannacry\" ===")
	hits, _ := sys.Search("wannacry", 5)
	for _, h := range hits {
		fmt.Printf("  report %.2f  %s\n", h.Score, h.Title)
	}
	// Find the WannaCry malware node and expand its neighborhood, the way
	// double-clicking does in the UI.
	wc := findMalware(sys, "wannacry")
	if wc != nil {
		sub := sys.Store.ExpandFrom([]graph.NodeID{wc.ID}, 1, 10, 40)
		fmt.Printf("  expanding %q: %d neighbors\n", wc.Name, len(sub.Nodes)-1)
		for _, n := range sub.Nodes {
			if n.ID != wc.ID {
				fmt.Printf("    [%s] %s\n", n.Type, n.Name)
			}
		}
	} else {
		fmt.Println("  (WannaCry not sampled into this corpus — rerun with more reports)")
	}

	// --- Scenario 2: keyword search for "cozyduke" -------------------
	fmt.Println("\n=== scenario 2: threat actor \"cozyduke\" ===")
	hits, _ = sys.Search("cozyduke", 5)
	for _, h := range hits {
		fmt.Printf("  report %.2f  %s\n", h.Score, h.Title)
	}
	res, err := sys.Engine().Query(`match (a:ThreatActor {name: $actor})-[:USE]->(t)<-[:USE]-(other:ThreatActor)
		where other.name <> $actor
		return distinct other.name, t.name`, map[string]any{"actor": "CozyDuke"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("  other actors sharing CozyDuke's techniques:")
	if len(res.Rows) == 0 {
		fmt.Println("    (none in this corpus)")
	}
	for _, row := range res.Rows {
		fmt.Printf("    %s (via %s)\n", row[0], row[1])
	}

	// --- Scenario 3: the literal demo Cypher query --------------------
	fmt.Println("\n=== scenario 3: cypher point query ===")
	name := "wannacry"
	if wc != nil {
		name = wc.Name
	}
	// The looked-up name binds as a $parameter — no value splicing, and
	// the statement text (hence its cached plan) is the same every run.
	q := `match (n) where n.name = $name return n`
	fmt.Printf("  %s  ($name = %q)\n", q, name)
	res, err = sys.Engine().Query(q, map[string]any{"name": name})
	if err != nil {
		log.Fatal(err)
	}
	for _, row := range res.Rows {
		fmt.Printf("  -> %s\n", row[0])
	}
}

// findMalware locates a malware node whose (possibly fused) name or alias
// matches the query, case-insensitively.
func findMalware(sys *securitykg.System, q string) *graph.Node {
	var found *graph.Node
	sn := sys.Store.Snapshot()
	defer sn.Release()
	sn.ForEachNode(func(n *graph.Node) bool {
		if n.Type != "Malware" {
			return true
		}
		if strings.Contains(strings.ToLower(n.Name), q) ||
			strings.Contains(strings.ToLower(n.Attrs.Get("aliases")), q) {
			found = n
			return false
		}
		return true
	})
	return found
}
