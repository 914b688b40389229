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
//	res, _ := sys.Engine().Query(`match (n) where n.name = $ioc return n`,
//		map[string]any{"ioc": "wannacry"})
package securitykg

import (
	"context"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"securitykg/internal/config"
	"securitykg/internal/connector"
	"securitykg/internal/crawler"
	"securitykg/internal/ctirep"
	"securitykg/internal/cypher"
	"securitykg/internal/fusion"
	"securitykg/internal/graph"
	"securitykg/internal/ner"
	"securitykg/internal/pipeline"
	"securitykg/internal/relstore"
	"securitykg/internal/search"
	"securitykg/internal/sources"
	"securitykg/internal/stix"
	"securitykg/internal/storage"
)

// Options configure a System. The zero value is usable: it builds the full
// 42-source synthetic web with 25 reports each, and the first pipeline run
// trains the NER model by data programming on a corpus sample.
type Options struct {
	// Seed fixes the web, the training sample and the model (default 42). Node and
	// edge ids, and so Save bytes, repeat only with one worker per stage (TestIngestMatchesParent).
	Seed int64
	// ReportsPerSource scales the synthetic corpus (default 25).
	ReportsPerSource int
	// SourceSlugs restricts collection to the named sources (nil = all).
	SourceSlugs []string
	// Config, when non-nil, overrides the per-field options above with a
	// full configuration document.
	Config *config.Config
	// LogWriter receives the log connector's output when the "log"
	// connector is selected (os.Stderr if nil).
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

	frame     *crawler.Framework
	extractor *ner.Extractor // trained by the first pipeline built
	relConn   *connector.RelConnector
	logW      io.Writer
}

// New builds a System: it validates the configuration, assembles the
// synthetic OSCTI web and prepares storage backends. It trains nothing; the
// NER extractor is trained when a pipeline first needs it (Collect, Ingest).
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
	if err := cfg.Validate(); err != nil {
		return nil, err
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
	var clusters map[string]int
	if sys.cfg.NER.Embeddings {
		c, err := ner.EmbeddingClusters(texts, sys.cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("securitykg: %w", err)
		}
		clusters = c
	}
	ext, err := ner.Train(texts, ner.TrainOptions{
		Strategy: ner.LabelingStrategy(sys.cfg.NER.Strategy),
		Epochs:   sys.cfg.NER.Epochs,
		Seed:     sys.cfg.Seed,
		Clusters: clusters,
	})
	if err != nil {
		return nil, fmt.Errorf("securitykg: NER training: %w", err)
	}
	return ext, nil
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
// The first call trains the NER extractor; repeated calls reuse it and
// only process newly published reports.
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
	if sys.extractor == nil {
		ext, err := sys.trainNER()
		if err != nil {
			return nil, err
		}
		sys.extractor = ext
	}
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
			pipeline.EntityExtractor{NER: sys.extractor},
			pipeline.RelationExtractor{NER: sys.extractor},
		},
		Connectors: conns,
		Cfg: pipeline.Config{
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

// reportKinds are the node types a search hit resolves to.
var reportKinds = []string{"MalwareReport", "VulnerabilityReport", "AttackReport"}

// Search runs a BM25 keyword query over report title/body and resolves
// hits to report metadata (the UI's Elasticsearch path).
func (sys *System) Search(query string, k int) ([]SearchHit, error) {
	hits := sys.Index.Search(query, k)
	sn := sys.Store.Snapshot()
	defer sn.Release()
	out := make([]SearchHit, 0, len(hits))
	for _, h := range hits {
		sh := SearchHit{ReportID: h.ID, Score: h.Score}
		// Of several report nodes under one report_id, the last kind listed
		// wins, and the highest ID within a kind.
		kind := -1
		for _, n := range sn.Nodes(nil, sn.NodeIDsByAttr("report_id", h.ID)) {
			if i := slices.Index(reportKinds, n.Type); i >= 0 && i >= kind {
				kind = i
				sh.Title, sh.Kind, sh.URL = n.Name, n.Type, n.Attrs.Get("url")
			}
		}
		out = append(out, sh)
	}
	return out, nil
}

// Engine returns a Cypher-subset query engine over the knowledge graph
// (the UI's Neo4j path). Engines are cheap to construct: the
// compiled-plan cache is shared per store, so repeated statements hit
// cached plans across calls (and across every other consumer of the
// same store, e.g. an API server). Rows are read with Rows.Drain, and a
// drain stopped by its callback rolls the statement back. Untrusted
// values (IOC strings, report titles) bind as $params, never spliced
// into the text. An engine stays valid until AdoptStore replaces the
// graph.
func (sys *System) Engine() *cypher.Engine {
	return cypher.NewEngine(sys.Store, cypher.DefaultOptions())
}

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

// IngestStats pairs a collect pass with the fusion pass that followed
// it (zero when fusion is disabled).
type IngestStats struct {
	CollectStats
	Fusion fusion.Stats
}

// Ingest fills the graph as one load: a collect pass, then fusion when
// the configuration enables it. Adjacency seals once at the end instead
// of repacking as the store grows.
func (sys *System) Ingest(ctx context.Context) (IngestStats, error) {
	sys.Store.BeginBulk()
	defer sys.Store.EndBulk()
	var st IngestStats
	var err error
	if st.CollectStats, err = sys.Collect(ctx); err != nil {
		return st, err
	}
	if sys.cfg.Fusion.Enabled {
		st.Fusion, err = sys.Fuse()
	}
	return st, err
}

// OpenDataDir opens the data directory dir and adopts its store. When
// ingest is set and the directory holds no graph yet, it fills the store
// with Ingest and checkpoints, so the directory holds the whole graph
// as a snapshot; the returned stats are then non-nil. Otherwise it
// serves what was recovered and rebuilds the search index from its
// report nodes. The caller owns the returned DB and must Close it.
func (sys *System) OpenDataDir(ctx context.Context, dir string, opts storage.Options, ingest bool) (*storage.DB, *IngestStats, error) {
	db, err := storage.Open(dir, opts)
	if err != nil {
		return nil, nil, err
	}
	sys.AdoptStore(db.Store())
	if !ingest || sys.Store.CountNodes() > 0 {
		sys.Index = connector.RebuildIndex(sys.Store)
		return db, nil, nil
	}
	st, err := sys.Ingest(ctx)
	if err == nil {
		err = db.Checkpoint()
	}
	if err != nil {
		db.Close()
		return nil, nil, err
	}
	return db, &st, nil
}
