// Endtoend demonstrates the automated gathering-and-management procedure
// from the demo outline: start from an empty database, watch reports flow
// through every pipeline stage, then ingest a second batch and show the
// knowledge graph growing continuously — with every intermediate stage's
// counters printed.
package main

import (
	"context"
	"fmt"
	"log"
	"sync"

	"securitykg/internal/connector"
	"securitykg/internal/crawler"
	"securitykg/internal/ctirep"
	"securitykg/internal/graph"
	"securitykg/internal/ner"
	"securitykg/internal/pipeline"
	"securitykg/internal/search"
	"securitykg/internal/sources"
)

func main() {
	// Assemble the pieces by hand (rather than via the facade) to show
	// each component the architecture diagram names.
	specs := sources.DefaultSources(8)[:10]
	web := sources.NewWeb(42, specs)
	web.FailEveryN = 5 // inject transient fetch failures: retries recover

	fmt.Println("training extractor (data programming over unlabeled reports)...")
	var texts []string
	for _, spec := range specs {
		for i := 0; i < 4; i++ {
			truth := web.GenerateTruth(spec, i)
			for _, p := range truth.Paragraphs {
				_ = p
			}
			texts = append(texts, join(truth.Paragraphs))
		}
	}
	ext, err := ner.Train(texts, ner.TrainOptions{Epochs: 4, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}

	store := graph.New()
	idx := search.NewIndex(map[string]float64{"title": 2})
	pipe := func() *pipeline.Pipeline {
		return &pipeline.Pipeline{
			Porter:   pipeline.NewGroupingPorter(),
			Checkers: []pipeline.Checker{pipeline.NonemptyChecker{}, pipeline.NotAdsChecker{}},
			Parsers:  pipeline.DefaultParsers(specs),
			Extractors: []pipeline.Extractor{
				pipeline.EntityExtractor{NER: ext},
				pipeline.RelationExtractor{NER: ext},
			},
			Connectors: []connector.Connector{connector.NewGraphConnector(store, idx)},
			Cfg:        pipeline.Config{ExtractWorkers: 4},
		}
	}

	fw := crawler.New(web, specs, crawler.Config{Workers: 6})
	runBatch := func(label string) {
		files := make(chan ctirep.RawFile, 128)
		p := pipe()
		var wg sync.WaitGroup
		wg.Add(1)
		var pst pipeline.Stats
		go func() {
			defer wg.Done()
			pst, _ = p.Run(context.Background(), files)
		}()
		if err := fw.RunOnce(context.Background(), func(rf ctirep.RawFile) { files <- rf }); err != nil {
			log.Fatal(err)
		}
		close(files)
		wg.Wait()
		cst := fw.Stats()
		fmt.Printf("%s:\n", label)
		fmt.Printf("  crawler:   %d files collected, %d retries after transient failures\n",
			cst.Collected, cst.Retries)
		fmt.Printf("  porter:    %d report representations\n", pst.Ported)
		fmt.Printf("  checkers:  %d rejected (ads, empty pages)\n", pst.Rejected)
		fmt.Printf("  parsers:   %d CTI representations (%d errors)\n", pst.Parsed, pst.ParseErrs)
		fmt.Printf("  extractor: %d refined with entities+relations\n", pst.Extracted)
		fmt.Printf("  connector: %d merged into storage\n", pst.Connected)
		gs := store.Stats()
		fmt.Printf("  graph now: %d nodes, %d edges (merge hits so far: %d)\n\n",
			gs.Nodes, gs.Edges, gs.MergeHits)
	}

	fmt.Println("=== batch 1: initial collection (empty database) ===")
	runBatch("batch 1")

	// New reports appear on every source. The crawler framework is
	// incremental: re-running it emits only URLs it has not collected yet,
	// and the storage stage's exact merge keeps re-processed knowledge
	// deduplicated — so the same graph grows continuously.
	fmt.Println("=== batch 2: sources published more reports; incremental re-crawl ===")
	for i := range specs {
		specs[i].Reports = 14 // each source now has 6 more reports
	}
	web2 := sources.NewWeb(42, specs)
	web2.FailEveryN = 5
	fw2 := crawler.New(web2, specs, crawler.Config{Workers: 6})
	// Seed the new framework's dedup state by replaying batch 1's URLs:
	// a long-running deployment keeps one framework alive instead.
	firstBatch := sources.NewWeb(42, withReports(specs, 8))
	seedFw := crawler.New(firstBatch, withReports(specs, 8), crawler.Config{Workers: 6})
	var seen []string
	seedFw.RunOnce(context.Background(), func(rf ctirep.RawFile) { seen = append(seen, rf.URL) })
	fw2.MarkSeen(seen)
	fw = fw2
	runBatch("batch 2 (incremental)")

	fmt.Println("the same knowledge graph served both batches: it grows continuously.")
}

func withReports(specs []sources.SourceSpec, n int) []sources.SourceSpec {
	out := make([]sources.SourceSpec, len(specs))
	copy(out, specs)
	for i := range out {
		out[i].Reports = n
	}
	return out
}

func join(ps []string) string {
	out := ""
	for i, p := range ps {
		if i > 0 {
			out += "\n"
		}
		out += p
	}
	return out
}
