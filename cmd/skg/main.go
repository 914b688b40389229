// Command skg runs the end-to-end SecurityKG lifecycle: collect OSCTI
// reports from the synthetic web, process them through the pipeline into
// the knowledge graph, optionally run knowledge fusion, and persist the
// graph.
//
// Usage:
//
//	skg [-config file.json] [-reports N] [-out kg.jsonl] [-fuse] [-v]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"

	"securitykg"
	"securitykg/internal/config"
)

func main() {
	var (
		configPath = flag.String("config", "", "JSON configuration file (see internal/config)")
		reports    = flag.Int("reports", 0, "override reports per source")
		out        = flag.String("out", "", "persist the knowledge graph to this path")
		stixOut    = flag.String("stix", "", "export the graph as a STIX 2.1 bundle to this path")
		fuse       = flag.Bool("fuse", true, "run the knowledge-fusion stage after ingest")
		verbose    = flag.Bool("v", false, "verbose per-type statistics")
	)
	flag.Parse()

	cfg := config.Default()
	if *configPath != "" {
		var err error
		cfg, err = config.Load(*configPath)
		if err != nil {
			log.Fatalf("skg: %v", err)
		}
	}
	opts := securitykg.Options{Config: &cfg}
	if *reports > 0 {
		opts.ReportsPerSource = *reports
	}

	fmt.Println("skg: training NER extractor by data programming...")
	sys, err := securitykg.New(opts)
	if err != nil {
		log.Fatalf("skg: %v", err)
	}
	fmt.Printf("skg: %d sources configured\n", len(sys.Sources()))

	st, err := sys.Collect(context.Background())
	if err != nil {
		log.Fatalf("skg: collect: %v", err)
	}
	fmt.Printf("skg: crawled %d files in %s (%.0f reports/min), %d retries, %d failures\n",
		st.Crawl.Collected, st.Crawl.Elapsed.Round(1e6), st.Crawl.ReportsPerMinute(),
		st.Crawl.Retries, st.Crawl.Failures)
	fmt.Printf("skg: processed %d reports (%d rejected by checkers, %d parse errors, %d lost after extraction) in %s\n",
		st.Process.Connected, st.Process.Rejected, st.Process.ParseErrs, st.Process.ExtractErrs,
		st.Process.Elapsed.Round(1e6))

	if *fuse && cfg.Fusion.Enabled {
		fstats, err := sys.Fuse()
		if err != nil {
			log.Fatalf("skg: fusion: %v", err)
		}
		fmt.Printf("skg: fusion merged %d nodes across %d alias groups\n",
			fstats.NodesMerged, fstats.Groups)
	}

	gs := sys.Store.Stats()
	fmt.Printf("skg: knowledge graph: %d nodes, %d edges, %d storage-time merges\n",
		gs.Nodes, gs.Edges, gs.MergeHits)
	if *verbose {
		types := make([]string, 0, len(gs.NodesByType))
		for t := range gs.NodesByType {
			types = append(types, t)
		}
		sort.Strings(types)
		for _, t := range types {
			fmt.Printf("  %-22s %6d\n", t, gs.NodesByType[t])
		}
	}

	path := *out
	if path == "" {
		path = cfg.GraphPath
	}
	if path != "" {
		if err := sys.SaveGraph(path); err != nil {
			log.Fatalf("skg: save: %v", err)
		}
		fmt.Printf("skg: graph saved to %s\n", path)
	}
	if *stixOut != "" {
		f, err := os.Create(*stixOut)
		if err != nil {
			log.Fatalf("skg: stix: %v", err)
		}
		if err := sys.ExportSTIX(f); err != nil {
			log.Fatalf("skg: stix: %v", err)
		}
		if err := f.Close(); err != nil {
			log.Fatalf("skg: stix: %v", err)
		}
		fmt.Printf("skg: STIX bundle written to %s\n", *stixOut)
	}
	os.Exit(0)
}
