// Command skg runs the end-to-end SecurityKG lifecycle: collect OSCTI
// reports from the synthetic web, process them through the pipeline into
// the knowledge graph, optionally run knowledge fusion, and persist the
// graph.
//
// With -out the graph is written to a data directory, the same one
// skg-server and skg-query open with -data-dir: every mutation is logged
// as it is ingested, and the run ends with a checkpoint, so the directory
// holds the graph as one snapshot. A directory that already holds a graph
// is refused.
//
// Usage:
//
//	skg [-config file.json] [-reports N] [-out DIR] [-stix file.json] [-fuse] [-v]
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
	"securitykg/internal/storage"
)

func main() {
	var (
		configPath = flag.String("config", "", "JSON configuration file (see internal/config)")
		reports    = flag.Int("reports", 0, "override reports per source")
		out        = flag.String("out", "", "persist the knowledge graph to this data directory (open it with skg-server or skg-query -data-dir)")
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
	if !*fuse {
		cfg.Fusion.Enabled = false
	}
	opts := securitykg.Options{Config: &cfg}
	if *reports > 0 {
		opts.ReportsPerSource = *reports
	}

	sys, err := securitykg.New(opts)
	if err != nil {
		log.Fatalf("skg: %v", err)
	}
	fmt.Printf("skg: %d sources configured\n", len(sys.Sources()))

	var db *storage.DB
	var st *securitykg.IngestStats
	if *out != "" {
		db, st, err = sys.OpenDataDir(context.Background(), *out, storage.Options{}, true)
		if err != nil {
			log.Fatalf("skg: %v", err)
		}
		if st == nil {
			log.Fatalf("skg: %s already holds a graph; serve it with skg-server -data-dir, or pick a new directory", *out)
		}
	} else {
		ist, err := sys.Ingest(context.Background())
		if err != nil {
			log.Fatalf("skg: %v", err)
		}
		st = &ist
	}
	fmt.Printf("skg: crawled %d files in %s (%.0f reports/min), %d retries, %d failures\n",
		st.Crawl.Collected, st.Crawl.Elapsed.Round(1e6), st.Crawl.ReportsPerMinute(),
		st.Crawl.Retries, st.Crawl.Failures)
	fmt.Printf("skg: processed %d reports (%d rejected by checkers, %d parse errors, %d lost after extraction) in %s\n",
		st.Process.Connected, st.Process.Rejected, st.Process.ParseErrs, st.Process.ExtractErrs,
		st.Process.Elapsed.Round(1e6))
	if cfg.Fusion.Enabled {
		fmt.Printf("skg: fusion merged %d nodes across %d alias groups\n",
			st.Fusion.NodesMerged, st.Fusion.Groups)
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
	if db != nil {
		if err := db.Close(); err != nil {
			log.Fatalf("skg: close: %v", err)
		}
		fmt.Printf("skg: graph saved to data directory %s\n", *out)
	}
	os.Exit(0)
}
