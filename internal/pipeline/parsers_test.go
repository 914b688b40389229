package pipeline

import (
	"strings"
	"testing"

	"securitykg/internal/ctirep"
	"securitykg/internal/sources"
)

// parserFixture fetches report 0 of the first source matching the layout
// and ports it into a ReportRep.
func parserFixture(t *testing.T, layout sources.Layout) (*ctirep.ReportRep, *sources.Truth, sources.SourceSpec) {
	t.Helper()
	specs := sources.DefaultSources(4)
	web := sources.NewWeb(3, specs)
	for _, spec := range specs {
		if spec.Layout != layout || spec.Format != "html" {
			continue
		}
		page, err := web.Fetch(spec.BaseURL() + "/report/0")
		if err != nil {
			t.Fatal(err)
		}
		rep := directRep(ctirep.RawFile{
			Source: spec.Slug, URL: page.URL, Format: "html", Body: page.Body,
		})
		return rep, web.GenerateTruth(spec, 0), spec
	}
	t.Fatalf("no html source with layout %s", layout)
	return nil, nil, sources.SourceSpec{}
}

func TestBlogParserFields(t *testing.T) {
	rep, truth, spec := parserFixture(t, sources.LayoutBlog)
	cti, err := (BlogParser{}).Parse(rep)
	if err != nil {
		t.Fatal(err)
	}
	if cti.Vendor != spec.Vendor {
		t.Errorf("vendor %q want %q", cti.Vendor, spec.Vendor)
	}
	if cti.PublishedAt != truth.PublishedAt {
		t.Errorf("published %q want %q", cti.PublishedAt, truth.PublishedAt)
	}
	if cti.Kind != truth.Kind {
		t.Errorf("kind %q want %q", cti.Kind, truth.Kind)
	}
	if cti.Title != truth.Title {
		t.Errorf("title %q want %q", cti.Title, truth.Title)
	}
	if !strings.Contains(cti.Text, "belongs to") {
		t.Errorf("body missing: %.80s", cti.Text)
	}
}

func TestNewsParserFields(t *testing.T) {
	rep, truth, spec := parserFixture(t, sources.LayoutNews)
	cti, err := (NewsParser{}).Parse(rep)
	if err != nil {
		t.Fatal(err)
	}
	if cti.Vendor != spec.Vendor || cti.Kind != truth.Kind || cti.Title != truth.Title {
		t.Errorf("news fields: vendor=%q kind=%q title=%q", cti.Vendor, cti.Kind, cti.Title)
	}
}

func TestParserForSelection(t *testing.T) {
	specs := sources.DefaultSources(1)
	seen := map[Parser]bool{}
	for _, spec := range specs {
		p := ParserFor(spec)
		seen[p] = true
		if spec.Format == "pdf" && p != (PDFParser{}) {
			t.Errorf("pdf source %s got parser %T", spec.Slug, p)
		}
	}
	for _, want := range []Parser{EncyclopediaParser{}, BlogParser{}, NewsParser{}, PDFParser{}} {
		if !seen[want] {
			t.Errorf("no source selects the %T", want)
		}
	}
}

func TestParsersRejectEmptyBodies(t *testing.T) {
	empty := &ctirep.ReportRep{
		ID: "x", Source: "s", URL: "u", Format: "html",
		Pages: [][]byte{[]byte("<html><body></body></html>")},
	}
	for _, p := range []Parser{EncyclopediaParser{}, BlogParser{}, NewsParser{}} {
		if _, err := p.Parse(empty); err == nil {
			t.Errorf("%T accepted empty body", p)
		}
	}
	if _, err := (PDFParser{}).Parse(&ctirep.ReportRep{
		ID: "x", Source: "s", URL: "u", Format: "pdf",
		Pages: [][]byte{[]byte("not a pdf")},
	}); err == nil {
		t.Error("pdf parser accepted garbage")
	}
}

func TestScanTitle(t *testing.T) {
	cases := map[string]string{
		`<html><head><title>Hello &amp; World</title></head></html>`: "Hello & World",
		`<HTML><TITLE foo="bar">Caps</TITLE></HTML>`:                 "Caps",
		`<html><body>no title</body></html>`:                         "",
		`<title>unterminated`:                                        "",
		``:                                                           "",
	}
	for in, want := range cases {
		if got := scanTitle([]byte(in)); got != want {
			t.Errorf("scanTitle(%q) = %q, want %q", in, got, want)
		}
	}
}
