// Quickstart: build a small SecurityKG system, ingest the synthetic OSCTI
// web end to end, and ask it questions — the minimal public-API tour.
package main

import (
	"context"
	"fmt"
	"log"

	"securitykg"
	"securitykg/internal/cypher"
)

func main() {
	// 1. Build the system. This assembles the 42-source synthetic OSCTI
	// web; nothing is trained yet.
	sys, err := securitykg.New(securitykg.Options{ReportsPerSource: 5})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("system ready: %d OSCTI sources\n", len(sys.Sources()))

	// 2. Collect: crawl every source and run the porter → checker →
	// parser → extractor → connector pipeline into the knowledge graph.
	// The first pipeline trains the CRF entity recognizer with
	// programmatically synthesized labels (data programming) — no manual
	// annotation.
	st, err := sys.Collect(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ingested %d reports (%d rejected as ads/empty)\n",
		st.Process.Connected, st.Process.Rejected)

	// 3. Fuse: merge entities that different vendors name differently.
	fstats, err := sys.Fuse()
	if err != nil {
		log.Fatal(err)
	}
	gs := sys.Store.Stats()
	fmt.Printf("knowledge graph: %d nodes, %d edges (%d aliases fused)\n",
		gs.Nodes, gs.Edges, fstats.NodesMerged)

	// 4. Keyword search (the Elasticsearch role).
	hits, err := sys.Search("ransomware campaign", 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ntop reports for \"ransomware campaign\":")
	for _, h := range hits {
		fmt.Printf("  %.2f  %s\n", h.Score, h.Title)
	}

	// 5. Cypher queries (the Neo4j role), streamed through the cursor:
	// Drain hands each row over as the executor matches it, and the
	// LIMIT stops the traversal early.
	rows, err := sys.Engine().QueryRows(`match (m:Malware)-[:CONNECT]->(ip:IP) return m.name, ip.name limit 5`, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nmalware → C2 addresses:")
	err = rows.Drain(func(row []cypher.Value) error {
		fmt.Printf("  %s -> %s\n", row[0], row[1])
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
}
