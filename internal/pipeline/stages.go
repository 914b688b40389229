// Package pipeline implements SecurityKG's processing backbone: the
// porter → checker → parser → extractor → connector stages (Figure 1),
// each running on its own worker pool with serializable intermediate
// representations handed between stages. Serialization can be toggled to
// measure its cost (the design enables multi-host deployment; E3 ablates
// the overhead).
package pipeline

import (
	"fmt"
	"strings"

	"securitykg/internal/ctirep"
	"securitykg/internal/htmlparse"
	"securitykg/internal/ner"
	"securitykg/internal/ontology"
	"securitykg/internal/pdf"
	"securitykg/internal/sources"
)

// --- porters ---

// Porter converts raw crawled files into intermediate report
// representations, grouping multi-page reports and attaching metadata.
type Porter interface {
	// Port consumes one raw file and returns zero or more completed
	// report representations (zero while pages are pending).
	Port(f ctirep.RawFile) []*ctirep.ReportRep
	// Flush returns any reports still pending at end of stream.
	Flush() []*ctirep.ReportRep
}

func makeRep(source, canonicalURL string, f ctirep.RawFile) *ctirep.ReportRep {
	title := ""
	if f.Format == "html" {
		// The porter runs serially (grouping state); a cheap scan for the
		// title keeps it off the pipeline's critical path — full parsing
		// happens in the parallel parser stage.
		title = scanTitle(f.Body)
	}
	return &ctirep.ReportRep{
		ID:        ctirep.NewID(source, canonicalURL),
		Source:    source,
		URL:       canonicalURL,
		Title:     title,
		Format:    f.Format,
		Pages:     [][]byte{f.Body},
		Meta:      map[string]string{"fetched_url": f.URL},
		FetchedAt: f.FetchedAt,
	}
}

// scanTitle extracts the <title> text without building a DOM.
func scanTitle(body []byte) string {
	s := string(body)
	lower := strings.ToLower(s)
	i := strings.Index(lower, "<title")
	if i < 0 {
		return ""
	}
	gt := strings.IndexByte(s[i:], '>')
	if gt < 0 {
		return ""
	}
	start := i + gt + 1
	end := strings.Index(lower[start:], "</title")
	if end < 0 {
		return ""
	}
	return strings.TrimSpace(htmlparse.DecodeEntities(s[start : start+end]))
}

// GroupingPorter groups multi-page HTML reports: a page that names a
// continuation (RawFile.Next) is held until the continuation arrives,
// then both pages are emitted as one report representation.
type GroupingPorter struct {
	// pending maps the awaited continuation URL to the partial report.
	pending map[string]*ctirep.ReportRep
}

// NewGroupingPorter builds the porter.
func NewGroupingPorter() *GroupingPorter {
	return &GroupingPorter{pending: make(map[string]*ctirep.ReportRep)}
}

// Port implements Porter.
func (g *GroupingPorter) Port(f ctirep.RawFile) []*ctirep.ReportRep {
	// Is this file a continuation someone is waiting for?
	rep, ok := g.pending[f.URL]
	if ok {
		delete(g.pending, f.URL)
		rep.Pages = append(rep.Pages, f.Body)
	} else {
		rep = makeRep(f.Source, f.URL, f)
	}
	if f.Next != "" {
		g.pending[f.Next] = rep
		return nil
	}
	return []*ctirep.ReportRep{rep}
}

// Flush implements Porter: partial reports are emitted with the pages
// collected so far (never silently dropped).
func (g *GroupingPorter) Flush() []*ctirep.ReportRep {
	out := make([]*ctirep.ReportRep, 0, len(g.pending))
	for _, rep := range g.pending {
		out = append(out, rep)
	}
	g.pending = make(map[string]*ctirep.ReportRep)
	return out
}

// --- checkers ---

// Checker screens intermediate report representations; reports failing
// any checker are dropped before parsing.
type Checker interface {
	Name() string
	Check(r *ctirep.ReportRep) bool
}

// pageDoc returns page i of r parsed as HTML. A page is parsed on first
// use and its tree kept on r, so the checkers and the parser share one
// parse of each page; the trees go with r after the parse stage.
func pageDoc(r *ctirep.ReportRep, i int) *htmlparse.Node {
	docs, _ := r.ParsedPages().([]*htmlparse.Node)
	if len(docs) != len(r.Pages) {
		docs = make([]*htmlparse.Node, len(r.Pages))
		r.SetParsedPages(docs)
	}
	if docs[i] == nil {
		docs[i] = htmlparse.Parse(string(r.Pages[i]))
	}
	return docs[i]
}

// NonemptyChecker rejects reports whose pages carry no visible text.
type NonemptyChecker struct{}

// Name implements Checker.
func (NonemptyChecker) Name() string { return "nonempty" }

// Check implements Checker.
func (NonemptyChecker) Check(r *ctirep.ReportRep) bool {
	for i, page := range r.Pages {
		if r.Format == "pdf" {
			if text, err := pdf.ExtractText(page); err == nil && strings.TrimSpace(text) != "" {
				return true
			}
		} else if pageDoc(r, i).HasText() {
			return true
		}
	}
	return false
}

// NotAdsChecker rejects sponsored/advertisement pages by title markers and
// promotional vocabulary density.
type NotAdsChecker struct{}

// Name implements Checker.
func (NotAdsChecker) Name() string { return "not-ads" }

var adMarkers = []string{"sponsored", "advertisement", "buy now", "subscribe",
	"limited offer", "discount", "win a prize", "click here"}

// Check implements Checker.
func (NotAdsChecker) Check(r *ctirep.ReportRep) bool {
	title := strings.ToLower(r.Title)
	for _, m := range adMarkers[:2] {
		if strings.Contains(title, m) {
			return false
		}
	}
	if len(r.Pages) == 0 {
		return false
	}
	body := strings.ToLower(pageDoc(r, 0).InnerText())
	hits := 0
	for _, m := range adMarkers {
		if strings.Contains(body, m) {
			hits++
		}
	}
	// Short, promo-dense pages are ads.
	return !(hits >= 3 && len(body) < 600)
}

// --- parsers ---

// Parser converts a report representation into the intermediate CTI
// representation. Parsers are source-dependent: each knows its site's
// structure.
type Parser interface {
	Name() string
	Parse(r *ctirep.ReportRep) (*ctirep.CTIRep, error)
}

// DefaultParsers builds the per-source parser registry for the specs.
func DefaultParsers(specs []sources.SourceSpec) map[string]Parser {
	out := make(map[string]Parser, len(specs))
	for _, s := range specs {
		out[s.Slug] = ParserFor(s)
	}
	return out
}

// ParserFor returns the right parser for a source spec.
func ParserFor(spec sources.SourceSpec) Parser {
	if spec.Format == "pdf" {
		return PDFParser{}
	}
	switch spec.Layout {
	case sources.LayoutEncyclopedia:
		return EncyclopediaParser{}
	case sources.LayoutNews:
		return NewsParser{}
	default:
		return BlogParser{}
	}
}

func baseCTI(r *ctirep.ReportRep) *ctirep.CTIRep {
	return &ctirep.CTIRep{
		ReportID: r.ID,
		Source:   r.Source,
		URL:      r.URL,
		Title:    r.Title,
		Fields:   map[string]string{},
	}
}

// EncyclopediaParser reads the threat-encyclopedia layout: h1.entry-title,
// a key/value meta table, and div.body paragraphs.
type EncyclopediaParser struct{}

// Name implements Parser.
func (EncyclopediaParser) Name() string { return "encyclopedia" }

// Parse implements Parser.
func (EncyclopediaParser) Parse(r *ctirep.ReportRep) (*ctirep.CTIRep, error) {
	c := baseCTI(r)
	var bodies []string
	for i := range r.Pages {
		doc := pageDoc(r, i)
		if h := doc.Find("h1.entry-title"); h != nil {
			c.Title = h.InnerText()
		}
		keys := doc.FindAll("table.meta td.key")
		vals := doc.FindAll("table.meta td.val")
		for i := range keys {
			if i < len(vals) {
				c.Fields[strings.ToLower(keys[i].InnerText())] = vals[i].InnerText()
			}
		}
		if b := doc.Find("div.body"); b != nil {
			bodies = append(bodies, b.InnerText())
		}
	}
	c.Vendor = c.Fields["vendor"]
	c.PublishedAt = c.Fields["published"]
	c.Kind = c.Fields["kind"]
	if c.Kind == "" {
		c.Kind = "malware"
	}
	c.Text = strings.Join(bodies, "\n")
	if strings.TrimSpace(c.Text) == "" {
		return nil, fmt.Errorf("pipeline: encyclopedia parser: empty body for %s", r.URL)
	}
	return c, nil
}

// BlogParser reads the blog layout: h1.post-title, div.byline
// ("By VENDOR on DATE · KIND"), article.post-body.
type BlogParser struct{}

// Name implements Parser.
func (BlogParser) Name() string { return "blog" }

// Parse implements Parser.
func (BlogParser) Parse(r *ctirep.ReportRep) (*ctirep.CTIRep, error) {
	c := baseCTI(r)
	var bodies []string
	for i := range r.Pages {
		doc := pageDoc(r, i)
		if h := doc.Find("h1.post-title"); h != nil {
			c.Title = h.InnerText()
		}
		if by := doc.Find("div.byline"); by != nil {
			parseByline(by, c)
		}
		if b := doc.Find("article.post-body"); b != nil {
			bodies = append(bodies, b.InnerText())
		}
	}
	c.Text = strings.Join(bodies, "\n")
	if strings.TrimSpace(c.Text) == "" {
		return nil, fmt.Errorf("pipeline: blog parser: empty body for %s", r.URL)
	}
	if c.Kind == "" {
		c.Kind = "attack"
	}
	return c, nil
}

func parseByline(by *htmlparse.Node, c *ctirep.CTIRep) {
	text := by.InnerText()
	if d := by.Find("span.date"); d != nil {
		c.PublishedAt = d.InnerText()
	}
	if k := by.Find("span.kind"); k != nil {
		c.Kind = k.InnerText()
	}
	if i := strings.Index(text, "By "); i >= 0 {
		rest := text[i+3:]
		if j := strings.Index(rest, " on "); j > 0 {
			c.Vendor = strings.TrimSpace(rest[:j])
		}
	}
}

// NewsParser reads the news layout: h1.headline, div.meta data attributes,
// div.story paragraphs.
type NewsParser struct{}

// Name implements Parser.
func (NewsParser) Name() string { return "news" }

// Parse implements Parser.
func (NewsParser) Parse(r *ctirep.ReportRep) (*ctirep.CTIRep, error) {
	c := baseCTI(r)
	var bodies []string
	for i := range r.Pages {
		doc := pageDoc(r, i)
		if h := doc.Find("h1.headline"); h != nil {
			c.Title = h.InnerText()
		}
		if m := doc.Find("div.meta"); m != nil {
			if v, ok := m.Attr("data-vendor"); ok {
				c.Vendor = v
			}
			if v, ok := m.Attr("data-date"); ok {
				c.PublishedAt = v
			}
			if v, ok := m.Attr("data-kind"); ok {
				c.Kind = v
			}
		}
		if b := doc.Find("div.story"); b != nil {
			bodies = append(bodies, b.InnerText())
		}
	}
	c.Text = strings.Join(bodies, "\n")
	if strings.TrimSpace(c.Text) == "" {
		return nil, fmt.Errorf("pipeline: news parser: empty body for %s", r.URL)
	}
	if c.Kind == "" {
		c.Kind = "attack"
	}
	return c, nil
}

// PDFParser reads PDF reports: line 1 title, "Vendor:"/"Published:"/
// "Kind:" header lines, remainder body.
type PDFParser struct{}

// Name implements Parser.
func (PDFParser) Name() string { return "pdf" }

// Parse implements Parser.
func (PDFParser) Parse(r *ctirep.ReportRep) (*ctirep.CTIRep, error) {
	c := baseCTI(r)
	var bodies []string
	for pi, page := range r.Pages {
		text, err := pdf.ExtractText(page)
		if err != nil {
			return nil, fmt.Errorf("pipeline: pdf parser: %s: %w", r.URL, err)
		}
		lines := strings.Split(text, "\n")
		bodyStart := 0
		if pi == 0 {
			for li, line := range lines {
				line = strings.TrimSpace(line)
				switch {
				case li == 0 && line != "":
					c.Title = line
				case strings.HasPrefix(line, "Vendor: "):
					c.Vendor = strings.TrimPrefix(line, "Vendor: ")
				case strings.HasPrefix(line, "Published: "):
					c.PublishedAt = strings.TrimPrefix(line, "Published: ")
				case strings.HasPrefix(line, "Kind: "):
					c.Kind = strings.TrimPrefix(line, "Kind: ")
					bodyStart = li + 1
				}
				if bodyStart > 0 {
					break
				}
			}
		}
		bodies = append(bodies, strings.Join(lines[bodyStart:], "\n"))
	}
	c.Text = strings.Join(bodies, "\n")
	if c.Kind == "" {
		c.Kind = "attack"
	}
	return c, nil
}

// --- extractors ---

// Extractor refines an intermediate CTI representation in place. Extractors
// are source-independent: they only see the unified schema.
type Extractor interface {
	Name() string
	Extract(c *ctirep.CTIRep) error
}

// EntityExtractor fills Entities using the NER pipeline over title+body.
// The analysis it makes also covers the body's relations; it leaves it on
// the rep for a RelationExtractor that follows.
type EntityExtractor struct {
	NER *ner.Extractor
}

// Name implements Extractor.
func (EntityExtractor) Name() string { return "entity" }

// Extract implements Extractor.
func (e EntityExtractor) Extract(c *ctirep.CTIRep) error {
	a := e.NER.Analyze(c.Title, c.Text)
	for _, ent := range a.Entities() {
		c.Entities = append(c.Entities, ontology.Entity{
			Type:  ent.Type,
			Name:  ent.Name,
			Attrs: map[string]string{"extractor": ent.Source},
		})
	}
	c.SetAnalysis(a)
	return nil
}

// RelationExtractor fills Relations using dependency-based verb extraction
// between recognized entity spans. It takes the analysis an EntityExtractor
// with the same NER left on the rep, and analyzes the body itself when
// there is none.
type RelationExtractor struct {
	NER *ner.Extractor
}

// Name implements Extractor.
func (RelationExtractor) Name() string { return "relation" }

// Extract implements Extractor.
func (e RelationExtractor) Extract(c *ctirep.CTIRep) error {
	if a, ok := c.TakeAnalysis().(*ner.Analysis); ok && a.Of(e.NER, c.Text) {
		c.Relations = append(c.Relations, a.Relations()...)
		return nil
	}
	c.Relations = append(c.Relations, e.NER.ExtractRelations(c.Text)...)
	return nil
}
