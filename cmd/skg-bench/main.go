// Command skg-bench regenerates every experiment in its index (the defs
// table below, E1-E14) and prints each as a table.
//
// Usage:
//
//	skg-bench                 # run every experiment at default scale
//	skg-bench -exp ner        # one experiment
//	skg-bench -exp scale -scale 120000   # the paper-scale 120K ingest
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"securitykg/internal/experiments"
)

type expDef struct {
	id, name string
	run      func(scale int, seed int64) (*experiments.Table, error)
}

var defs = []expDef{
	{"E1", "crawl", func(_ int, seed int64) (*experiments.Table, error) {
		return experiments.CrawlThroughput([]int{1, 2, 4, 8, 16}, 40, seed)
	}},
	{"E2", "scale", func(scale int, seed int64) (*experiments.Table, error) {
		if scale <= 0 {
			scale = 5000
		}
		return experiments.ScaleIngest(scale, seed)
	}},
	{"E3", "pipeline", func(_ int, seed int64) (*experiments.Table, error) {
		return experiments.PipelineWorkers(25, []int{1, 2, 4, 8}, seed)
	}},
	{"E4", "ner", func(_ int, seed int64) (*experiments.Table, error) {
		return experiments.NERQuality(150, 300, seed)
	}},
	{"E5", "iocprot", func(_ int, seed int64) (*experiments.Table, error) {
		return experiments.IOCProtection(200, seed)
	}},
	{"E6", "labelmodel", func(_ int, seed int64) (*experiments.Table, error) {
		return experiments.LabelingStrategies(150, 200, seed)
	}},
	{"E7", "relext", func(_ int, seed int64) (*experiments.Table, error) {
		return experiments.RelationExtraction(150, seed)
	}},
	{"E8", "fusion", func(_ int, seed int64) (*experiments.Table, error) {
		return experiments.FusionExperiment(25, seed)
	}},
	{"E9", "ontology", func(_ int, seed int64) (*experiments.Table, error) {
		return experiments.OntologyCoverage(25, seed)
	}},
	{"E10", "search", func(_ int, seed int64) (*experiments.Table, error) {
		return experiments.SearchScenarios(60, seed)
	}},
	{"E11", "cypher", func(_ int, seed int64) (*experiments.Table, error) {
		return experiments.CypherScaling([]int{1000, 10000, 50000}, seed)
	}},
	{"E12", "layout", func(_ int, seed int64) (*experiments.Table, error) {
		return experiments.LayoutScaling([]int{100, 500, 2000, 8000, 20000}, 0.5, seed)
	}},
	{"E13", "explore", func(_ int, seed int64) (*experiments.Table, error) {
		return experiments.ExploreOps(50000, seed)
	}},
	{"E14", "embeddings", func(_ int, seed int64) (*experiments.Table, error) {
		return experiments.EmbeddingFeatures(150, 200, seed)
	}},
}

func main() {
	var (
		exp   = flag.String("exp", "", "experiment to run: E1..E14 or name (crawl, scale, pipeline, ner, iocprot, labelmodel, relext, fusion, ontology, search, cypher, layout, explore, embeddings); empty = all")
		scale = flag.Int("scale", 0, "scale override for -exp scale (default 5000; paper scale 120000)")
		seed  = flag.Int64("seed", 42, "experiment seed")
	)
	flag.Parse()

	var selected []expDef
	if *exp == "" {
		selected = defs
	} else {
		for _, d := range defs {
			if strings.EqualFold(d.id, *exp) || strings.EqualFold(d.name, *exp) {
				selected = append(selected, d)
			}
		}
		if len(selected) == 0 {
			log.Fatalf("skg-bench: unknown experiment %q", *exp)
		}
	}
	for _, d := range selected {
		start := time.Now()
		tab, err := d.run(*scale, *seed)
		if err != nil {
			log.Fatalf("skg-bench: %s: %v", d.id, err)
		}
		tab.Fprint(os.Stdout)
		fmt.Printf("  [%s completed in %s]\n\n", d.id, time.Since(start).Round(time.Millisecond))
	}
}
