package experiments

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"securitykg/internal/connector"
	"securitykg/internal/crawler"
	"securitykg/internal/ctirep"
	"securitykg/internal/fusion"
	"securitykg/internal/graph"
	"securitykg/internal/ner"
	"securitykg/internal/ontology"
	"securitykg/internal/pipeline"
	"securitykg/internal/search"
	"securitykg/internal/sources"
)

// nerCache holds one extractor per seed and corpus size: several
// experiments share it and CRF training is the expensive step.
var (
	nerMu    sync.Mutex
	nerCache = map[nerKey]*ner.Extractor{}
)

type nerKey struct {
	seed int64
	docs int
}

// TrainNER returns a data-programming-trained extractor over a corpus
// sample of docs reports from the synthetic web (cached per seed and docs).
func TrainNER(seed int64, docs int) (*ner.Extractor, error) {
	nerMu.Lock()
	defer nerMu.Unlock()
	key := nerKey{seed, docs}
	if ext, ok := nerCache[key]; ok {
		return ext, nil
	}
	web := sources.NewWeb(seed, sources.DefaultSources(docs/40+2))
	var texts []string
	for _, spec := range web.Sources() {
		for i := 0; i < spec.Reports && len(texts) < docs; i++ {
			truth := web.GenerateTruth(spec, i)
			texts = append(texts, strings.Join(truth.Paragraphs, "\n"))
		}
	}
	ext, err := ner.Train(texts, ner.TrainOptions{Epochs: 5, Seed: seed})
	if err != nil {
		return nil, err
	}
	nerCache[key] = ext
	return ext, nil
}

// CrawlThroughput reproduces E1 (Section 2.2: "throughput of approximately
// 350+ reports per minute on a single deployed host"): a worker sweep over
// the full 42-source web.
func CrawlThroughput(workerSweep []int, reportsPerSource int, seed int64) (*Table, error) {
	t := &Table{
		ID:      "E1",
		Title:   "crawler throughput (paper: 350+ reports/min single host)",
		Columns: []string{"workers", "reports", "fetches", "elapsed", "reports/min"},
	}
	for _, w := range workerSweep {
		specs := sources.DefaultSources(reportsPerSource)
		web := sources.NewWeb(seed, specs)
		web.Latency = 2 * time.Millisecond // simulated network RTT
		fw := crawler.New(web, specs, crawler.Config{Workers: w})
		count := 0
		var mu sync.Mutex
		if err := fw.RunOnce(context.Background(), func(ctirep.RawFile) {
			mu.Lock()
			count++
			mu.Unlock()
		}); err != nil {
			return nil, err
		}
		st := fw.Stats()
		t.AddRow(w, count, st.Fetches, st.Elapsed.Round(time.Millisecond).String(),
			fmt.Sprintf("%.0f", st.ReportsPerMinute()))
	}
	t.Notes = append(t.Notes,
		"synthetic web with 2ms simulated latency per fetch; the paper's figure is for live sites")
	return t, nil
}

// buildPipeline assembles the standard processing pipeline for experiments.
func buildPipeline(specs []sources.SourceSpec, ext *ner.Extractor, store *graph.Store,
	idx *search.Index, cfg pipeline.Config) *pipeline.Pipeline {
	return &pipeline.Pipeline{
		Porter:   pipeline.NewGroupingPorter(),
		Checkers: []pipeline.Checker{pipeline.NonemptyChecker{}, pipeline.NotAdsChecker{}},
		Parsers:  pipeline.DefaultParsers(specs),
		Extractors: []pipeline.Extractor{
			pipeline.EntityExtractor{NER: ext},
			pipeline.RelationExtractor{NER: ext},
		},
		Connectors: []connector.Connector{connector.NewGraphConnector(store, idx)},
		Cfg:        cfg,
	}
}

// crawlAll collects every raw file of the web.
func crawlAll(web *sources.Web, specs []sources.SourceSpec) ([]ctirep.RawFile, crawler.Stats, error) {
	fw := crawler.New(web, specs, crawler.Config{Workers: 8})
	var mu sync.Mutex
	var files []ctirep.RawFile
	err := fw.RunOnce(context.Background(), func(rf ctirep.RawFile) {
		mu.Lock()
		files = append(files, rf)
		mu.Unlock()
	})
	return files, fw.Stats(), err
}

func feed(files []ctirep.RawFile) <-chan ctirep.RawFile {
	ch := make(chan ctirep.RawFile, 256)
	go func() {
		for _, f := range files {
			ch <- f
		}
		close(ch)
	}()
	return ch
}

// ScaleIngest reproduces E2 (the 120K+ report corpus): end-to-end ingest
// of totalReports reports across the 42 sources, then an incremental
// re-ingest proving dedup, reporting KG size and growth.
func ScaleIngest(totalReports int, seed int64) (*Table, error) {
	perSource := totalReports/42 + 1
	specs := sources.DefaultSources(perSource)
	web := sources.NewWeb(seed, specs)
	ext, err := TrainNER(seed, 120)
	if err != nil {
		return nil, err
	}
	files, cst, err := crawlAll(web, specs)
	if err != nil {
		return nil, err
	}
	store := graph.New()
	idx := search.NewIndex(nil)
	p := buildPipeline(specs, ext, store, idx, pipeline.Config{ExtractWorkers: 8, ConnectWorkers: 4})
	pst, err := p.Run(context.Background(), feed(files))
	if err != nil {
		return nil, err
	}
	gs := store.Stats()
	t := &Table{
		ID:      "E2",
		Title:   fmt.Sprintf("corpus-scale ingest (%d reports; paper: 120K+ collected)", int(pst.Connected)),
		Columns: []string{"metric", "value"},
	}
	t.AddRow("reports collected", cst.Collected)
	t.AddRow("reports connected", pst.Connected)
	t.AddRow("ads/empty rejected", pst.Rejected)
	t.AddRow("KG nodes", gs.Nodes)
	t.AddRow("KG edges", gs.Edges)
	t.AddRow("storage-time merges", gs.MergeHits)
	t.AddRow("pipeline reports/min", fmt.Sprintf("%.0f", pst.ReportsPerMinute()))
	t.AddRow("search docs", idx.Len())

	// Incremental re-ingest: same files, graph must not grow.
	p2 := buildPipeline(specs, ext, store, idx, pipeline.Config{ExtractWorkers: 8})
	if _, err := p2.Run(context.Background(), feed(files)); err != nil {
		return nil, err
	}
	gs2 := store.Stats()
	t.AddRow("nodes after re-ingest", gs2.Nodes)
	if gs2.Nodes != gs.Nodes {
		t.Notes = append(t.Notes, "WARNING: re-ingest grew the graph (dedup regression)")
	} else {
		t.Notes = append(t.Notes, "re-ingest left the KG unchanged: incremental collection dedups")
	}
	return t, nil
}

// PipelineWorkers reproduces E3 (Figure 1's staged design): throughput vs
// extractor workers, with the serialized hand-off on and off.
func PipelineWorkers(reportsPerSource int, workerSweep []int, seed int64) (*Table, error) {
	specs := sources.DefaultSources(reportsPerSource)[:12]
	web := sources.NewWeb(seed, specs)
	ext, err := TrainNER(seed, 120)
	if err != nil {
		return nil, err
	}
	files, _, err := crawlAll(web, specs)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "E3",
		Title:   "pipeline scalability: extract workers x serialized hand-off",
		Columns: []string{"workers", "serialize", "elapsed", "reports/min"},
	}
	for _, w := range workerSweep {
		for _, ser := range []bool{false, true} {
			store := graph.New()
			p := buildPipeline(specs, ext, store, nil, pipeline.Config{
				ExtractWorkers: w, Serialize: ser,
			})
			st, err := p.Run(context.Background(), feed(files))
			if err != nil {
				return nil, err
			}
			t.AddRow(w, ser, st.Elapsed.Round(time.Millisecond).String(),
				fmt.Sprintf("%.0f", st.ReportsPerMinute()))
		}
	}
	t.Notes = append(t.Notes,
		"serialization cost is the price of multi-host deployability (Section 2.1)",
		fmt.Sprintf("GOMAXPROCS=%d on this host: CPU-bound extraction scales with workers only when cores are available; the crawl stage (E1) scales regardless because it hides I/O latency", runtime.GOMAXPROCS(0)))
	return t, nil
}

// FusionExperiment reproduces E8 (Section 2.5): storage-time exact merge
// only vs the separate fusion stage, with alias-variant malware names in
// the corpus.
func FusionExperiment(reportsPerSource int, seed int64) (*Table, error) {
	specs := sources.DefaultSources(reportsPerSource)
	web := sources.NewWeb(seed, specs)
	ext, err := TrainNER(seed, 120)
	if err != nil {
		return nil, err
	}
	files, _, err := crawlAll(web, specs)
	if err != nil {
		return nil, err
	}
	store := graph.New()
	p := buildPipeline(specs, ext, store, nil, pipeline.Config{ExtractWorkers: 8})
	if _, err := p.Run(context.Background(), feed(files)); err != nil {
		return nil, err
	}
	before := store.Stats()
	fst, err := fusion.Fuse(store, fusion.Options{})
	if err != nil {
		return nil, err
	}
	after := store.Stats()

	t := &Table{
		ID:      "E8",
		Title:   "knowledge fusion: exact storage merge vs fusion stage",
		Columns: []string{"metric", "before fusion", "after fusion"},
	}
	t.AddRow("nodes", before.Nodes, after.Nodes)
	t.AddRow("edges", before.Edges, after.Edges)
	t.AddRow("malware nodes", before.NodesByType[string(ontology.TypeMalware)],
		after.NodesByType[string(ontology.TypeMalware)])
	t.AddRow("alias groups fused", "-", fst.Groups)
	t.AddRow("nodes merged", "-", fst.NodesMerged)
	t.AddRow("aliases recorded", "-", fst.AliasesStored)
	t.Notes = append(t.Notes,
		"storage stage merges exact description text only; vendor-convention variants (W32/x, Ransom.Win32.x) merge here")
	return t, nil
}

// OntologyCoverage reproduces E9 (Figure 2): every ontology entity and
// relation type instantiated in the KG after a full ingest.
func OntologyCoverage(reportsPerSource int, seed int64) (*Table, error) {
	specs := sources.DefaultSources(reportsPerSource)
	web := sources.NewWeb(seed, specs)
	ext, err := TrainNER(seed, 120)
	if err != nil {
		return nil, err
	}
	files, _, err := crawlAll(web, specs)
	if err != nil {
		return nil, err
	}
	store := graph.New()
	p := buildPipeline(specs, ext, store, nil, pipeline.Config{ExtractWorkers: 8})
	if _, err := p.Run(context.Background(), feed(files)); err != nil {
		return nil, err
	}
	gs := store.Stats()
	t := &Table{
		ID:      "E9",
		Title:   "ontology coverage (Figure 2): node counts by entity type",
		Columns: []string{"entity type", "nodes"},
	}
	covered := 0
	for _, et := range ontology.EntityTypes() {
		n := gs.NodesByType[string(et)]
		if n > 0 {
			covered++
		}
		t.AddRow(string(et), n)
	}
	t.Notes = append(t.Notes, fmt.Sprintf("%d/%d entity types instantiated; %d relation types in use",
		covered, len(ontology.EntityTypes()), len(gs.EdgesByType)))
	return t, nil
}

// SearchScenarios reproduces E10 (Section 3's keyword scenarios): BM25
// search for "wannacry" and "cozyduke" over an ingested corpus, with
// latency.
func SearchScenarios(reportsPerSource int, seed int64) (*Table, error) {
	specs := sources.DefaultSources(reportsPerSource)
	web := sources.NewWeb(seed, specs)
	ext, err := TrainNER(seed, 120)
	if err != nil {
		return nil, err
	}
	files, _, err := crawlAll(web, specs)
	if err != nil {
		return nil, err
	}
	store := graph.New()
	idx := search.NewIndex(map[string]float64{"title": 2})
	p := buildPipeline(specs, ext, store, idx, pipeline.Config{ExtractWorkers: 8})
	if _, err := p.Run(context.Background(), feed(files)); err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "E10",
		Title:   fmt.Sprintf("keyword search scenarios over %d reports", idx.Len()),
		Columns: []string{"query", "hits", "top-10 latency"},
	}
	for _, q := range []string{"wannacry", "cozyduke", "ransomware campaign", "credential dumping"} {
		start := time.Now()
		const reps = 50
		var hits []search.Hit
		for i := 0; i < reps; i++ {
			hits = idx.Search(q, 10)
		}
		lat := time.Since(start) / reps
		t.AddRow(q, len(hits), lat.Round(time.Microsecond).String())
	}
	return t, nil
}
