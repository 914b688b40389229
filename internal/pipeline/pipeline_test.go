package pipeline

import (
	"bytes"
	"context"
	"errors"
	"log"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"securitykg/internal/connector"
	"securitykg/internal/crawler"
	"securitykg/internal/ctirep"
	"securitykg/internal/graph"
	"securitykg/internal/ner"
	"securitykg/internal/ontology"
	"securitykg/internal/relstore"
	"securitykg/internal/search"
	"securitykg/internal/sources"
)

// trained NER shared across tests (training is the slow part).
var (
	nerOnce sync.Once
	nerExt  *ner.Extractor
)

func sharedNER(t *testing.T) *ner.Extractor {
	t.Helper()
	nerOnce.Do(func() {
		web := sources.NewWeb(7, sources.DefaultSources(6))
		var texts []string
		for _, spec := range web.Sources()[:12] {
			for i := 0; i < 6; i++ {
				truth := web.GenerateTruth(spec, i)
				texts = append(texts, strings.Join(truth.Paragraphs, "\n"))
			}
		}
		ext, err := ner.Train(texts, ner.TrainOptions{Epochs: 4, Seed: 1})
		if err != nil {
			panic(err)
		}
		nerExt = ext
	})
	return nerExt
}

// crawlFiles collects raw files from a small synthetic web.
func crawlFiles(t *testing.T, web *sources.Web, specs []sources.SourceSpec) []ctirep.RawFile {
	t.Helper()
	fw := crawler.New(web, specs, crawler.Config{Workers: 4})
	var mu sync.Mutex
	var out []ctirep.RawFile
	if err := fw.RunOnce(context.Background(), func(rf ctirep.RawFile) {
		mu.Lock()
		out = append(out, rf)
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func feed(files []ctirep.RawFile) <-chan ctirep.RawFile {
	ch := make(chan ctirep.RawFile, len(files))
	for _, f := range files {
		ch <- f
	}
	close(ch)
	return ch
}

func newPipeline(t *testing.T, specs []sources.SourceSpec, store *graph.Store, idx *search.Index, serialize bool) *Pipeline {
	t.Helper()
	ext := sharedNER(t)
	return &Pipeline{
		Porter:   NewGroupingPorter(),
		Checkers: []Checker{NonemptyChecker{}, NotAdsChecker{}},
		Parsers:  DefaultParsers(specs),
		Extractors: []Extractor{
			EntityExtractor{NER: ext},
			RelationExtractor{NER: ext},
		},
		Connectors: []connector.Connector{connector.NewGraphConnector(store, idx)},
		Cfg:        Config{Serialize: serialize},
	}
}

func TestEndToEndCrawlProcessStore(t *testing.T) {
	specs := sources.DefaultSources(8)[:4]
	web := sources.NewWeb(11, specs)
	files := crawlFiles(t, web, specs)
	store := graph.New()
	idx := search.NewIndex(map[string]float64{"title": 2})
	p := newPipeline(t, specs, store, idx, true)
	st, err := p.Run(context.Background(), feed(files))
	if err != nil {
		t.Fatal(err)
	}
	if st.Connected != 4*8 {
		t.Fatalf("connected %d reports, want 32 (stats %+v)", st.Connected, st)
	}
	gs := store.Stats()
	if gs.Nodes < 100 || gs.Edges < 150 {
		t.Errorf("graph too small: %+v", gs)
	}
	// Reports present with the right types.
	reports := 0
	for _, tn := range []string{"MalwareReport", "VulnerabilityReport", "AttackReport"} {
		reports += gs.NodesByType[tn]
	}
	if reports != 32 {
		t.Errorf("report nodes: %d, want 32", reports)
	}
	// Vendor attribution edges exist.
	if gs.EdgesByType[string(ontology.RelReportedBy)] != 32 {
		t.Errorf("REPORTED_BY edges: %d", gs.EdgesByType[string(ontology.RelReportedBy)])
	}
	// Full-text index covers every report.
	if idx.Len() != 32 {
		t.Errorf("search index: %d docs", idx.Len())
	}
	if st.Elapsed <= 0 || st.ReportsPerMinute() <= 0 {
		t.Errorf("throughput metrics missing: %+v", st)
	}
}

func TestPipelineRecallAgainstGroundTruth(t *testing.T) {
	specs := sources.DefaultSources(10)[:2]
	web := sources.NewWeb(13, specs)
	files := crawlFiles(t, web, specs)
	store := graph.New()
	p := newPipeline(t, specs, store, nil, false)
	if _, err := p.Run(context.Background(), feed(files)); err != nil {
		t.Fatal(err)
	}
	// Spot-check: the main malware of every report must be a node, and at
	// least half of the ground-truth relations must exist as edges.
	sn := store.Snapshot()
	defer sn.Release()
	totalRel, foundRel := 0, 0
	for _, spec := range specs {
		for i := 0; i < spec.Reports; i++ {
			truth := web.GenerateTruth(spec, i)
			for _, r := range truth.Relations {
				totalRel++
				src := sn.FindNode(string(r.Src.Type), r.Src.Name)
				dst := sn.FindNode(string(r.Dst.Type), r.Dst.Name)
				if src == nil || dst == nil {
					continue
				}
				for _, e := range sn.Edges(src.ID, graph.Out) {
					if e.To == dst.ID && e.Type == string(r.Type) {
						foundRel++
						break
					}
				}
			}
		}
	}
	recall := float64(foundRel) / float64(totalRel)
	if recall < 0.4 {
		t.Errorf("relation recall %.3f (%d/%d), want >= 0.4", recall, foundRel, totalRel)
	}
}

func TestCheckersRejectAdsAndEmpty(t *testing.T) {
	ad := &ctirep.ReportRep{
		Title:  "Sponsored: Limited offer",
		Format: "html",
		Pages:  [][]byte{[]byte(`<html><body>Buy now! Discount! Click here to subscribe and win a prize.</body></html>`)},
	}
	if (NotAdsChecker{}).Check(ad) {
		t.Error("ad page passed not-ads checker")
	}
	empty := &ctirep.ReportRep{
		Format: "html",
		Pages:  [][]byte{[]byte("<html><body>   </body></html>")},
	}
	if (NonemptyChecker{}).Check(empty) {
		t.Error("empty page passed nonempty checker")
	}
	good := &ctirep.ReportRep{
		Title:  "Real analysis",
		Format: "html",
		Pages:  [][]byte{[]byte("<html><body><p>The malware connects out.</p></body></html>")},
	}
	if !(NonemptyChecker{}).Check(good) || !(NotAdsChecker{}).Check(good) {
		t.Error("real report rejected")
	}
}

func TestGroupingPorterJoinsPages(t *testing.T) {
	g := NewGroupingPorter()
	page1 := ctirep.RawFile{
		Source: "src", URL: "https://src.osint.test/report/3", Format: "html",
		Body: []byte(`<html><body><p>part one</p><a class="next-page" href="https://src.osint.test/report/3/2">next</a></body></html>`),
	}
	page2 := ctirep.RawFile{
		Source: "src", URL: "https://src.osint.test/report/3/2", Format: "html",
		Body: []byte(`<html><body><p>part two</p></body></html>`),
	}
	if got := g.Port(page1); got != nil {
		t.Fatalf("page 1 should be held: %+v", got)
	}
	reps := g.Port(page2)
	if len(reps) != 1 {
		t.Fatalf("page 2 should complete the report: %+v", reps)
	}
	rep := reps[0]
	if len(rep.Pages) != 2 {
		t.Fatalf("pages: %d", len(rep.Pages))
	}
	if rep.URL != page1.URL {
		t.Errorf("canonical URL should be page 1's: %s", rep.URL)
	}
	if got := g.Flush(); len(got) != 0 {
		t.Errorf("flush after completion: %+v", got)
	}
}

func TestGroupingPorterFlushEmitsPartials(t *testing.T) {
	g := NewGroupingPorter()
	page1 := ctirep.RawFile{
		Source: "src", URL: "u1", Format: "html",
		Body: []byte(`<html><body>x<a class="next-page" href="u2">next</a></body></html>`),
	}
	if got := g.Port(page1); got != nil {
		t.Fatal("held page emitted early")
	}
	flushed := g.Flush()
	if len(flushed) != 1 || len(flushed[0].Pages) != 1 {
		t.Fatalf("flush should emit the partial: %+v", flushed)
	}
}

// directRep is the report representation of one raw file, as a porter
// that does no page grouping would emit it.
func directRep(f ctirep.RawFile) *ctirep.ReportRep {
	return makeRep(f.Source, f.URL, f)
}

func TestParsersExtractStructuredFields(t *testing.T) {
	specs := sources.DefaultSources(4)
	web := sources.NewWeb(5, specs)
	for _, spec := range specs[:1] { // encyclopedia layout
		page, err := web.Fetch(spec.BaseURL() + "/report/0")
		if err != nil {
			t.Fatal(err)
		}
		rep := directRep(ctirep.RawFile{
			Source: spec.Slug, URL: page.URL, Format: "html", Body: page.Body,
		})
		cti, err := (EncyclopediaParser{}).Parse(rep)
		if err != nil {
			t.Fatal(err)
		}
		truth := web.GenerateTruth(spec, 0)
		if cti.Vendor != spec.Vendor {
			t.Errorf("vendor: %q want %q", cti.Vendor, spec.Vendor)
		}
		if cti.PublishedAt != truth.PublishedAt {
			t.Errorf("published: %q want %q", cti.PublishedAt, truth.PublishedAt)
		}
		if cti.Kind != truth.Kind {
			t.Errorf("kind: %q want %q", cti.Kind, truth.Kind)
		}
		if cti.Title != truth.Title {
			t.Errorf("title: %q want %q", cti.Title, truth.Title)
		}
		if !strings.Contains(cti.Text, "belongs to") {
			t.Errorf("body text missing: %q", cti.Text[:80])
		}
	}
}

func TestPDFParserRoundTrip(t *testing.T) {
	specs := sources.DefaultSources(4)
	var pdfSpec sources.SourceSpec
	for _, s := range specs {
		if s.Format == "pdf" {
			pdfSpec = s
			break
		}
	}
	web := sources.NewWeb(5, specs)
	page, err := web.Fetch(pdfSpec.BaseURL() + "/report/2")
	if err != nil {
		t.Fatal(err)
	}
	rep := directRep(ctirep.RawFile{
		Source: pdfSpec.Slug, URL: page.URL, Format: "pdf", Body: page.Body,
	})
	cti, err := (PDFParser{}).Parse(rep)
	if err != nil {
		t.Fatal(err)
	}
	truth := web.GenerateTruth(pdfSpec, 2)
	if cti.Vendor != pdfSpec.Vendor || cti.Kind != truth.Kind {
		t.Errorf("pdf header fields: vendor=%q kind=%q", cti.Vendor, cti.Kind)
	}
	if len(cti.Text) < 100 {
		t.Errorf("pdf body too short: %d", len(cti.Text))
	}
}

// TestSerializationToggleEquivalence holds the in-process hand-off to the
// JSON round trip between stages on every source of the web corpus-ingest
// crawls. With one worker per stage the reports connect in one order, so
// node IDs are fixed and the two graphs must save to the same bytes.
func TestSerializationToggleEquivalence(t *testing.T) {
	specs := sources.DefaultSources(2)
	web := sources.NewWeb(17, specs)
	files := crawlFiles(t, web, specs)

	run := func(serialize bool) []byte {
		store := graph.New()
		p := newPipeline(t, specs, store, nil, serialize)
		p.Cfg = Config{PortWorkers: 1, CheckWorkers: 1, ParseWorkers: 1, ExtractWorkers: 1,
			ConnectWorkers: 1, Serialize: serialize}
		st, err := p.Run(context.Background(), feed(files))
		if err != nil {
			t.Fatal(err)
		}
		if st.Connected == 0 || st.Connected != st.Ported-st.Rejected {
			t.Fatalf("serialize=%v: %+v", serialize, st)
		}
		var buf bytes.Buffer
		if err := store.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	values, json := run(false), run(true)
	if !bytes.Equal(values, json) {
		t.Errorf("the graph saves to %d bytes from the value hand-off, %d from the JSON one, and they differ",
			len(values), len(json))
	}
}

func TestMultipleConnectorsReceiveEverything(t *testing.T) {
	specs := sources.DefaultSources(4)[:1]
	web := sources.NewWeb(19, specs)
	files := crawlFiles(t, web, specs)
	store := graph.New()
	rstore := relstore.New()
	rc, err := connector.NewRelConnector(rstore)
	if err != nil {
		t.Fatal(err)
	}
	var logBuf bytes.Buffer
	p := newPipeline(t, specs, store, nil, false)
	p.Connectors = append(p.Connectors, rc, connector.NewLogConnector(&logBuf))
	st, err := p.Run(context.Background(), feed(files))
	if err != nil {
		t.Fatal(err)
	}
	if rc.Connected() != int(st.Connected) {
		t.Errorf("relational connector saw %d, pipeline connected %d", rc.Connected(), st.Connected)
	}
	if n, _ := rstore.Count(connector.TableReports); n != int(st.Connected) {
		t.Errorf("reports table rows: %d", n)
	}
	if logLines := bytes.Count(logBuf.Bytes(), []byte("\n")); logLines != int(st.Connected) {
		t.Errorf("log lines: %d", logLines)
	}
	if mentions, _ := rstore.Count(connector.TableMentions); mentions == 0 {
		t.Error("no mentions stored relationally")
	}
}

func TestPipelineIncrementalIngestGrowsGraph(t *testing.T) {
	// The paper: the KG "can continuously grow" as new reports arrive.
	specs := sources.DefaultSources(6)[:1]
	web := sources.NewWeb(23, specs)
	files := crawlFiles(t, web, specs)
	store := graph.New()
	p := newPipeline(t, specs, store, nil, false)
	if _, err := p.Run(context.Background(), feed(files[:3])); err != nil {
		t.Fatal(err)
	}
	before := store.Stats()
	p2 := newPipeline(t, specs, store, nil, false)
	if _, err := p2.Run(context.Background(), feed(files[3:])); err != nil {
		t.Fatal(err)
	}
	after := store.Stats()
	if after.Nodes <= before.Nodes {
		t.Errorf("graph did not grow: %+v -> %+v", before, after)
	}
	// Re-ingesting the same files must not duplicate report nodes.
	p3 := newPipeline(t, specs, store, nil, false)
	if _, err := p3.Run(context.Background(), feed(files)); err != nil {
		t.Fatal(err)
	}
	again := store.Stats()
	if again.Nodes != after.Nodes {
		t.Errorf("re-ingest duplicated nodes: %d -> %d", after.Nodes, again.Nodes)
	}
}

func TestPipelineContextCancellation(t *testing.T) {
	specs := sources.DefaultSources(30)[:4]
	web := sources.NewWeb(29, specs)
	files := crawlFiles(t, web, specs)
	store := graph.New()
	p := newPipeline(t, specs, store, nil, false)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before start: should stop promptly with error
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := p.Run(ctx, feed(files)); err == nil {
			t.Log("run finished despite cancellation (allowed if fast)")
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("pipeline hung on cancellation")
	}
}

func TestStatsRejectionCounting(t *testing.T) {
	// Feed one ad page and one real report through the stages.
	specs := sources.DefaultSources(4)[:1]
	web := sources.NewWeb(31, specs)
	spec := specs[0]
	adPage, err := web.Fetch(spec.BaseURL() + "/ad/0")
	if err != nil {
		t.Fatal(err)
	}
	realPage, err := web.Fetch(spec.BaseURL() + "/report/0")
	if err != nil {
		t.Fatal(err)
	}
	files := []ctirep.RawFile{
		{Source: spec.Slug, URL: adPage.URL, Format: "html", Body: adPage.Body},
		{Source: spec.Slug, URL: realPage.URL, Format: "html", Body: realPage.Body},
	}
	store := graph.New()
	p := newPipeline(t, specs, store, nil, false)
	st, err := p.Run(context.Background(), feed(files))
	if err != nil {
		t.Fatal(err)
	}
	if st.Rejected != 1 {
		t.Errorf("rejected %d, want 1 (the ad)", st.Rejected)
	}
	if st.Connected != 1 {
		t.Errorf("connected %d, want 1", st.Connected)
	}
}

// captureConnector keeps every rep the pipeline delivers.
type captureConnector struct {
	mu   sync.Mutex
	reps []*ctirep.CTIRep
}

func (*captureConnector) Name() string { return "capture" }

func (c *captureConnector) Connect(rep *ctirep.CTIRep) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reps = append(c.reps, rep)
	return nil
}

// The extract stage analyzes a report once for both extractors. What it
// delivers must be what the two extractors' public entry points give when
// each analyzes for itself: Extract over title+body, ExtractRelations over
// the body — for every report of the synthetic web, element for element.
func TestFusedExtractionMatchesTwoCallAPI(t *testing.T) {
	ext := sharedNER(t)
	kinds := map[string]int{}
	titleIOCs := 0
	for seed := int64(1); seed <= 3; seed++ {
		specs := sources.DefaultSources(3)
		web := sources.NewWeb(seed, specs)
		files := crawlFiles(t, web, specs)
		capture := &captureConnector{}
		p := newPipeline(t, specs, nil, nil, seed != 2) // seed 2 hands reps over unserialized
		p.Connectors = []connector.Connector{capture}
		st, err := p.Run(context.Background(), feed(files))
		if err != nil {
			t.Fatal(err)
		}
		if int(st.Connected) != len(capture.reps) || st.Connected != st.Ported-st.Rejected {
			t.Fatalf("seed %d: %d reps captured, stats %+v", seed, len(capture.reps), st)
		}
		for _, rep := range capture.reps {
			kinds[rep.Kind]++
			if strings.Contains(rep.Title, "CVE-") {
				titleIOCs++
			}
			if rep.TakeAnalysis() != nil {
				t.Fatalf("%s left the extract stage carrying its analysis", rep.URL)
			}
			var wantEnts []ontology.Entity
			for _, e := range ext.Extract(rep.Title + ".\n" + rep.Text) {
				wantEnts = append(wantEnts, ontology.Entity{Type: e.Type, Name: e.Name,
					Attrs: map[string]string{"extractor": e.Source}})
			}
			if !reflect.DeepEqual(rep.Entities, wantEnts) {
				t.Fatalf("%s (%s): entities\n got %+v\nwant %+v", rep.URL, rep.Kind, rep.Entities, wantEnts)
			}
			if want := ext.ExtractRelations(rep.Text); !reflect.DeepEqual(rep.Relations, want) {
				t.Fatalf("%s (%s): relations\n got %+v\nwant %+v", rep.URL, rep.Kind, rep.Relations, want)
			}
		}
	}
	for _, k := range []string{"malware", "vulnerability", "attack"} {
		if kinds[k] == 0 {
			t.Errorf("no %s report compared (kinds %v)", k, kinds)
		}
	}
	if titleIOCs == 0 {
		t.Error("no report with an IOC in its title compared")
	}
}

// A RelationExtractor that finds no analysis of its own NER over the rep's
// text analyzes the body itself.
func TestRelationExtractorWithoutSharedAnalysis(t *testing.T) {
	ext := sharedNER(t)
	web := sources.NewWeb(5, sources.DefaultSources(2))
	tr := web.GenerateTruth(web.Sources()[0], 0)
	text := strings.Join(tr.Paragraphs, "\n")
	want := ext.ExtractRelations(text)
	if len(want) == 0 {
		t.Fatal("report without relations")
	}

	alone := &ctirep.CTIRep{Title: tr.Title, Text: text}
	if err := (RelationExtractor{NER: ext}).Extract(alone); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(alone.Relations, want) {
		t.Errorf("no entity extractor before: relations %+v, want %+v", alone.Relations, want)
	}

	edited := &ctirep.CTIRep{Title: tr.Title, Text: text}
	if err := (EntityExtractor{NER: ext}).Extract(edited); err != nil {
		t.Fatal(err)
	}
	edited.Text = tr.Paragraphs[0] // an extractor in between rewrote the body
	if err := (RelationExtractor{NER: ext}).Extract(edited); err != nil {
		t.Fatal(err)
	}
	if want := ext.ExtractRelations(edited.Text); !reflect.DeepEqual(edited.Relations, want) {
		t.Errorf("stale analysis used: relations %+v, want %+v", edited.Relations, want)
	}
	if edited.TakeAnalysis() != nil {
		t.Error("analysis left on the rep")
	}

	other := &ctirep.CTIRep{Title: tr.Title, Text: text}
	if err := (EntityExtractor{NER: ext}).Extract(other); err != nil {
		t.Fatal(err)
	}
	if err := (RelationExtractor{NER: ner.NewFromModel(ext.Model(), nil)}).Extract(other); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(other.Relations, want) {
		t.Errorf("another extractor's analysis: relations %+v, want %+v", other.Relations, want)
	}
}

// A rep that extracts but cannot be re-encoded for the connector stage is
// logged and counted, so the stats still add up.
func TestExtractStageEncodeFailureIsCounted(t *testing.T) {
	specs := sources.DefaultSources(4)[:1]
	web := sources.NewWeb(37, specs)
	files := crawlFiles(t, web, specs)
	var logBuf bytes.Buffer
	var victim string
	var once sync.Once
	p := newPipeline(t, specs, graph.New(), nil, true)
	p.Cfg.Logger = log.New(&logBuf, "", 0)
	p.encodeCTI = func(c *ctirep.CTIRep) ([]byte, error) {
		// Fails for one report, and only once it carries entities: after
		// extraction, not after parsing.
		if len(c.Entities) > 0 {
			once.Do(func() { victim = c.ReportID })
			if c.ReportID == victim {
				return nil, errors.New("cannot encode")
			}
		}
		return ctirep.EncodeCTIRep(c)
	}
	st, err := p.Run(context.Background(), feed(files))
	if err != nil {
		t.Fatal(err)
	}
	if st.ExtractErrs != 1 {
		t.Errorf("ExtractErrs = %d, want 1", st.ExtractErrs)
	}
	if st.Connected != st.Ported-st.Rejected-st.ParseErrs-st.ExtractErrs || st.Connected != 3 {
		t.Errorf("stats do not add up: %+v", st)
	}
	if want := "pipeline: serialize extracted " + victim + ": cannot encode"; !strings.Contains(logBuf.String(), want) {
		t.Errorf("log %q lacks %q", logBuf.String(), want)
	}
}
