// Package securitykg is the public facade of the SecurityKG reproduction:
// a system for automated open-source cyber threat intelligence (OSCTI)
// gathering and management (Gao et al., SIGMOD 2021).
//
// A System bundles the full lifecycle the paper describes: collection
// (crawler framework over 40+ sources), processing (porter → checker →
// parser → extractor pipeline with CRF-based entity recognition and
// dependency-based relation extraction), storage (property-graph,
// relational, and log connectors plus a BM25 search index), knowledge
// fusion, and exploration (Cypher-subset queries, keyword search,
// force-directed layout with Barnes-Hut for large views, node
// expansion).
//
// Quickstart:
//
//	sys, _ := securitykg.New(securitykg.Options{ReportsPerSource: 10})
//	sys.Collect(context.Background())
//	sys.Fuse()
//	hits, _ := sys.Search("wannacry", 5)
//	res, _ := sys.CypherP(`match (n) where n.name = $ioc return n`,
//		map[string]any{"ioc": "wannacry"})
package securitykg

import (
	"context"
	"fmt"
	"io"
	"os"
	"strings"

	"securitykg/internal/config"
	"securitykg/internal/connector"
	"securitykg/internal/crawler"
	"securitykg/internal/ctirep"
	"securitykg/internal/cypher"
	"securitykg/internal/embed"
	"securitykg/internal/fusion"
	"securitykg/internal/graph"
	"securitykg/internal/ioc"
	"securitykg/internal/ner"
	"securitykg/internal/pipeline"
	"securitykg/internal/relstore"
	"securitykg/internal/search"
	"securitykg/internal/sources"
	"securitykg/internal/stix"
	"securitykg/internal/textproc"
)

// Options configure a System. The zero value is usable: it builds the full
// 42-source synthetic web with 25 reports each and trains the NER model by
// data programming on a corpus sample.
type Options struct {
	// Seed drives every deterministic component (default 42).
	Seed int64
	// ReportsPerSource scales the synthetic corpus (default 25).
	ReportsPerSource int
	// SourceSlugs restricts collection to the named sources (nil = all).
	SourceSlugs []string
	// Config, when non-nil, overrides the per-field options above with a
	// full configuration document.
	Config *config.Config
	// LogWriter receives the log connector's output when the "log"
	// connector is selected (default os.Stderr -> discarded if nil).
	LogWriter io.Writer
}

// System is a fully wired SecurityKG instance.
type System struct {
	cfg   config.Config
	web   *sources.Web
	specs []sources.SourceSpec

	Store    *graph.Store
	Index    *search.Index
	RelStore *relstore.Store
	NER      *ner.Extractor

	frame   *crawler.Framework
	relConn *connector.RelConnector
	logW    io.Writer
}

// New builds a System: it assembles the synthetic OSCTI web, trains the
// NER extractor on an unlabeled corpus sample via data programming, and
// prepares storage backends.
func New(opts Options) (*System, error) {
	cfg := config.Default()
	if opts.Config != nil {
		cfg = *opts.Config
	}
	if opts.Seed != 0 {
		cfg.Seed = opts.Seed
	}
	if opts.ReportsPerSource != 0 {
		cfg.ReportsPerSource = opts.ReportsPerSource
	}
	if opts.SourceSlugs != nil {
		cfg.Sources = opts.SourceSlugs
	}

	specs := sources.DefaultSources(cfg.ReportsPerSource)
	if len(cfg.Sources) > 0 {
		want := make(map[string]bool, len(cfg.Sources))
		for _, s := range cfg.Sources {
			want[s] = true
		}
		var filtered []sources.SourceSpec
		for _, s := range specs {
			if want[s.Slug] {
				filtered = append(filtered, s)
			}
		}
		if len(filtered) == 0 {
			return nil, fmt.Errorf("securitykg: no sources match config selection %v", cfg.Sources)
		}
		specs = filtered
	}
	web := sources.NewWeb(cfg.Seed, specs)

	sys := &System{
		cfg:   cfg,
		web:   web,
		specs: specs,
		Store: graph.New(),
		Index: search.NewIndex(map[string]float64{"title": 2.0}),
		logW:  opts.LogWriter,
	}
	// Report nodes are looked up by report_id when resolving search hits.
	sys.Store.IndexAttr("report_id")

	ext, err := sys.trainNER()
	if err != nil {
		return nil, err
	}
	sys.NER = ext

	sys.frame = crawler.New(web, specs, crawler.Config{
		Workers:    cfg.Crawler.Workers,
		MaxRetries: cfg.Crawler.MaxRetries,
	})
	return sys, nil
}

// trainNER samples report texts across sources and trains the extractor
// with programmatically synthesized labels (no manual annotations).
func (sys *System) trainNER() (*ner.Extractor, error) {
	var texts []string
	n := sys.cfg.NER.TrainDocs
	perSource := n/len(sys.specs) + 1
	for _, spec := range sys.specs {
		for i := 0; i < perSource && i < spec.Reports && len(texts) < n; i++ {
			truth := sys.web.GenerateTruth(spec, i)
			texts = append(texts, strings.Join(truth.Paragraphs, "\n"))
		}
	}
	strategy := ner.LabelingStrategy(sys.cfg.NER.Strategy)
	if strategy == "" {
		strategy = ner.StrategyLabelModel
	}
	var clusters map[string]int
	if sys.cfg.NER.Embeddings {
		c, err := trainEmbeddingClusters(texts, sys.cfg.Seed)
		if err != nil {
			return nil, err
		}
		clusters = c
	}
	ext, err := ner.Train(texts, ner.TrainOptions{
		Strategy: strategy,
		Epochs:   sys.cfg.NER.Epochs,
		Seed:     sys.cfg.Seed,
		Clusters: clusters,
	})
	if err != nil {
		return nil, fmt.Errorf("securitykg: NER training: %w", err)
	}
	return ext, nil
}

// trainEmbeddingClusters learns skip-gram word embeddings on the training
// corpus and discretizes them into k-means cluster ids, which the CRF
// consumes as "emb=<id>" features (the paper lists word embeddings among
// the CRF features).
func trainEmbeddingClusters(texts []string, seed int64) (map[string]int, error) {
	var sentences [][]string
	for _, text := range texts {
		prot := ioc.Protect(text)
		for _, s := range textproc.SplitSentences(prot.Protected) {
			var words []string
			for _, tok := range textproc.Tokenize(s.Text) {
				if !tok.IsPunct() {
					words = append(words, strings.ToLower(tok.Text))
				}
			}
			if len(words) > 1 {
				sentences = append(sentences, words)
			}
		}
	}
	emb, err := embed.Train(sentences, embed.Config{Dim: 24, Epochs: 3, Seed: seed, MinCount: 2})
	if err != nil {
		return nil, fmt.Errorf("securitykg: embedding training: %w", err)
	}
	return emb.Clusters(32, 20, seed), nil
}

// Web exposes the synthetic OSCTI web (for demos and experiments).
func (sys *System) Web() *sources.Web { return sys.web }

// Sources lists the configured source specs.
func (sys *System) Sources() []sources.SourceSpec { return sys.web.Sources() }

// Config returns the effective configuration.
func (sys *System) Config() config.Config { return sys.cfg }

// CollectStats pairs the two stage reports from a Collect run.
type CollectStats struct {
	Crawl   crawler.Stats
	Process pipeline.Stats
}

// Collect runs one incremental end-to-end pass: crawl every source, then
// process the collected files through the full pipeline into storage.
// Repeated calls only process newly published reports.
func (sys *System) Collect(ctx context.Context) (CollectStats, error) {
	files := make(chan ctirep.RawFile, 256)
	p, err := sys.buildPipeline()
	if err != nil {
		return CollectStats{}, err
	}
	var pstats pipeline.Stats
	var perr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		pstats, perr = p.Run(ctx, files)
	}()
	crawlErr := sys.frame.RunOnce(ctx, func(rf ctirep.RawFile) {
		select {
		case files <- rf:
		case <-ctx.Done():
		}
	})
	close(files)
	<-done
	st := CollectStats{Crawl: sys.frame.Stats(), Process: pstats}
	if crawlErr != nil {
		return st, fmt.Errorf("securitykg: collect: %w", crawlErr)
	}
	return st, perr
}

func (sys *System) buildPipeline() (*pipeline.Pipeline, error) {
	var checkers []pipeline.Checker
	for _, name := range sys.cfg.Checkers {
		switch name {
		case "nonempty":
			checkers = append(checkers, pipeline.NonemptyChecker{})
		case "not-ads":
			checkers = append(checkers, pipeline.NotAdsChecker{})
		}
	}
	var conns []connector.Connector
	for _, name := range sys.cfg.Connectors {
		switch name {
		case "graph":
			conns = append(conns, connector.NewGraphConnector(sys.Store, sys.Index))
		case "log":
			w := sys.logW
			if w == nil {
				w = os.Stderr
			}
			conns = append(conns, connector.NewLogConnector(w))
		case "relational":
			if sys.relConn == nil {
				sys.RelStore = relstore.New()
				rc, err := connector.NewRelConnector(sys.RelStore)
				if err != nil {
					return nil, fmt.Errorf("securitykg: relational connector: %w", err)
				}
				sys.relConn = rc
			}
			conns = append(conns, sys.relConn)
		}
	}
	if len(conns) == 0 {
		conns = append(conns, connector.NewGraphConnector(sys.Store, sys.Index))
	}
	return &pipeline.Pipeline{
		Porter:   pipeline.NewGroupingPorter(),
		Checkers: checkers,
		Parsers:  pipeline.DefaultParsers(sys.specs),
		Extractors: []pipeline.Extractor{
			pipeline.EntityExtractor{NER: sys.NER},
			pipeline.RelationExtractor{NER: sys.NER},
		},
		Connectors: conns,
		Cfg: pipeline.Config{
			PortWorkers:    sys.cfg.Pipeline.PortWorkers,
			CheckWorkers:   sys.cfg.Pipeline.CheckWorkers,
			ParseWorkers:   sys.cfg.Pipeline.ParseWorkers,
			ExtractWorkers: sys.cfg.Pipeline.ExtractWorkers,
			ConnectWorkers: sys.cfg.Pipeline.ConnectWorkers,
			Serialize:      sys.cfg.Pipeline.Serialize,
		},
	}, nil
}

// Fuse runs the knowledge-fusion stage over the graph, merging alias
// entities and migrating their edges.
func (sys *System) Fuse() (fusion.Stats, error) {
	return fusion.Fuse(sys.Store, fusion.Options{Types: sys.cfg.Fusion.Types})
}

// SearchHit is one keyword search result resolved to its report node.
type SearchHit struct {
	ReportID string
	Score    float64
	Title    string
	Kind     string
	URL      string
}

// Search runs a BM25 keyword query over report title/body and resolves
// hits to report metadata (the UI's Elasticsearch path).
func (sys *System) Search(query string, k int) ([]SearchHit, error) {
	hits := sys.Index.Search(query, k)
	out := make([]SearchHit, 0, len(hits))
	for _, h := range hits {
		sh := SearchHit{ReportID: h.ID, Score: h.Score}
		for _, nt := range []string{"MalwareReport", "VulnerabilityReport", "AttackReport"} {
			for _, n := range sys.Store.NodesByAttr("report_id", h.ID) {
				if n.Type == nt {
					sh.Title = n.Name
					sh.Kind = n.Type
					sh.URL = n.Attrs.Get("url")
				}
			}
		}
		out = append(out, sh)
	}
	return out, nil
}

// engine builds a query engine over the current store. Engines are
// cheap to construct: the compiled-plan cache is shared per store, so
// repeated statements hit cached plans across calls (and across every
// other consumer of the same store, e.g. an API server).
func (sys *System) engine() *cypher.Engine {
	return cypher.NewEngine(sys.Store, cypher.DefaultOptions())
}

// Cypher executes a Cypher-subset query with no parameters against the
// knowledge graph (the UI's Neo4j path). Queries embedding untrusted
// values — IOC strings, report titles — should use CypherP instead of
// splicing them into the query text.
func (sys *System) Cypher(query string) (*cypher.Result, error) {
	return sys.CypherP(query, nil)
}

// CypherP executes a parameterized query: $name placeholders in the
// query text are bound from params at execution time, so one cached
// plan serves every binding and values never need escaping.
//
//	sys.CypherP(`match (m {name: $ioc})-[:CONNECT]->(x) return x.name`,
//		map[string]any{"ioc": observed})
func (sys *System) CypherP(query string, params map[string]any) (*cypher.Result, error) {
	return sys.engine().Query(query, params)
}

// CypherRows executes a parameterized query and returns a streaming
// cursor: rows surface as they are matched, and closing the cursor
// early stops all remaining pattern matching. The caller must Close it.
func (sys *System) CypherRows(query string, params map[string]any) (*cypher.Rows, error) {
	return sys.engine().QueryRows(query, params)
}

// PrepareCypher parses and plans a statement once for repeated
// execution with different parameter bindings (threat-hunting loops,
// API handlers). The statement remains valid until the graph is
// replaced with LoadGraph.
func (sys *System) PrepareCypher(query string) (*cypher.Stmt, error) {
	return sys.engine().Prepare(query)
}

// CypherAnalyze executes a parameterized statement fully and returns
// its result together with the profiled plan: per-operator actual
// rows, input rows, iterator calls, and wall time rendered next to the
// planner's estimates (EXPLAIN ANALYZE as an API). The statement's
// effects are real — writes commit.
func (sys *System) CypherAnalyze(query string, params map[string]any) (*cypher.Result, string, error) {
	return sys.engine().QueryAnalyze(query, params)
}

// SaveGraph persists the knowledge graph to path.
func (sys *System) SaveGraph(path string) error { return sys.Store.SaveFile(path) }

// ExportSTIX writes the knowledge graph as a STIX 2.1-style bundle, making
// it consumable by standard CTI tooling.
func (sys *System) ExportSTIX(w io.Writer) error { return stix.Export(sys.Store, w) }

// AdoptStore replaces the knowledge graph with an externally managed
// store — the durability layer's recovered store, whose mutations are
// write-ahead-logged — and installs the attribute indexes the system
// expects. Ingestion, fusion and Cypher writes all flow into it from
// here on.
func (sys *System) AdoptStore(st *graph.Store) {
	st.IndexAttr("report_id")
	sys.Store = st
}

// RebuildIndex reconstructs the keyword search index from the report
// nodes already in the graph (title field only; bodies are not
// persisted). Used after adopting a recovered store, where ingestion —
// which indexes bodies as it runs — did not populate the index.
func (sys *System) RebuildIndex() {
	idx := search.NewIndex(map[string]float64{"title": 2.0})
	sys.Store.ForEachNode(func(n *graph.Node) bool {
		if strings.HasSuffix(n.Type, "Report") {
			id := n.Attrs.Get("report_id")
			if id == "" {
				id = fmt.Sprint(n.ID)
			}
			idx.Add(search.Document{ID: id, Fields: map[string]string{"title": n.Name}})
		}
		return true
	})
	sys.Index = idx
}

// LoadGraph replaces the knowledge graph with one loaded from path.
func (sys *System) LoadGraph(path string) error {
	s, err := graph.LoadFile(path)
	if err != nil {
		return err
	}
	s.IndexAttr("report_id")
	sys.Store = s
	return nil
}
