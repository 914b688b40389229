package sources

import (
	"net/http/httptest"
	"strings"
	"testing"

	"securitykg/internal/htmlparse"
	"securitykg/internal/ontology"
	"securitykg/internal/pdf"
)

func testWeb(reports int) *Web {
	return NewWeb(42, DefaultSources(reports))
}

func TestDefaultSourcesShape(t *testing.T) {
	srcs := DefaultSources(10)
	if len(srcs) < 40 {
		t.Fatalf("paper promises 40+ sources, got %d", len(srcs))
	}
	slugs := map[string]bool{}
	pdfCount := 0
	layouts := map[Layout]bool{}
	for _, s := range srcs {
		if slugs[s.Slug] {
			t.Errorf("duplicate slug %s", s.Slug)
		}
		slugs[s.Slug] = true
		if s.Format == "pdf" {
			pdfCount++
		}
		layouts[s.Layout] = true
		if s.Reports != 10 || s.PerPage <= 0 {
			t.Errorf("bad spec: %+v", s)
		}
	}
	if pdfCount < 3 {
		t.Errorf("need several PDF sources, got %d", pdfCount)
	}
	if len(layouts) != 3 {
		t.Errorf("expected all 3 layouts, got %v", layouts)
	}
}

func TestGenerateTruthDeterministic(t *testing.T) {
	w := testWeb(20)
	spec := w.Sources()[0]
	a := w.GenerateTruth(spec, 7)
	b := w.GenerateTruth(spec, 7)
	if a.Title != b.Title || len(a.Entities) != len(b.Entities) || len(a.Relations) != len(b.Relations) {
		t.Fatal("generation not deterministic")
	}
	c := w.GenerateTruth(spec, 8)
	if a.Title == c.Title {
		t.Error("different indices should differ")
	}
	w2 := NewWeb(43, DefaultSources(20))
	d := w2.GenerateTruth(spec, 7)
	if a.Title == d.Title {
		t.Error("different seeds should differ")
	}
}

func TestTruthRelationsValidateAgainstOntology(t *testing.T) {
	w := testWeb(30)
	for _, spec := range w.Sources()[:6] {
		for i := 0; i < 10; i++ {
			truth := w.GenerateTruth(spec, i)
			for _, e := range truth.Entities {
				if err := e.Validate(); err != nil {
					t.Fatalf("%s/%d entity: %v", spec.Slug, i, err)
				}
			}
			for _, r := range truth.Relations {
				if err := r.Validate(); err != nil {
					t.Fatalf("%s/%d relation: %v (%+v)", spec.Slug, i, err, r)
				}
			}
		}
	}
}

func TestTruthCoversEveryOntologyEntityType(t *testing.T) {
	w := testWeb(60)
	seen := map[ontology.EntityType]bool{}
	for _, spec := range w.Sources() {
		for i := 0; i < 20 && i < spec.Reports; i++ {
			truth := w.GenerateTruth(spec, i)
			seen[ontology.ReportTypeFor(truth.Kind)] = true
			for _, e := range truth.Entities {
				seen[e.Type] = true
			}
		}
	}
	for _, et := range ontology.EntityTypes() {
		if et == ontology.TypeAttack || et == ontology.TypeFilePath ||
			et == ontology.TypeEmail || et == ontology.TypeURL {
			continue // covered probabilistically or via IOC scanning paths
		}
		if !seen[et] {
			t.Errorf("generator never produces entity type %s", et)
		}
	}
}

func TestFetchIndexAndFollowReportLinks(t *testing.T) {
	w := testWeb(25)
	spec := w.Sources()[0]
	page, err := w.Fetch(w.IndexURL(spec.Slug, 0))
	if err != nil {
		t.Fatal(err)
	}
	doc := htmlparse.Parse(string(page.Body))
	links := doc.FindAll("a.report-link")
	if len(links) != spec.PerPage {
		t.Fatalf("index links: %d, want %d", len(links), spec.PerPage)
	}
	href, _ := links[0].Attr("href")
	rep, err := w.Fetch(href)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ContentType != "text/html" || !strings.Contains(string(rep.Body), "<h1") {
		t.Errorf("report page malformed")
	}
	// Next index page exists for 25 reports at 20/page.
	if next := doc.Find("a.next-index"); next == nil {
		t.Error("missing next-index link")
	}
}

func TestIndexPagination(t *testing.T) {
	w := testWeb(45)
	spec := w.Sources()[0]
	if n := w.IndexPages(spec); n != 3 {
		t.Fatalf("45 reports at 20/page should be 3 pages, got %d", n)
	}
	if _, err := w.Fetch(w.IndexURL(spec.Slug, 3)); err == nil {
		t.Error("out-of-range index page should fail")
	}
}

func TestMultiPageReports(t *testing.T) {
	w := testWeb(30)
	var spec SourceSpec
	for _, s := range w.Sources() {
		if s.Format == "html" {
			spec = s
			break
		}
	}
	// idx%7==3 is multi-page for HTML sources.
	truth := w.GenerateTruth(spec, 3)
	if !truth.MultiPage {
		t.Fatal("report 3 should be multi-page")
	}
	p1, err := w.Fetch(spec.BaseURL() + "/report/3")
	if err != nil {
		t.Fatal(err)
	}
	doc := htmlparse.Parse(string(p1.Body))
	next := doc.Find("a.next-page")
	if next == nil {
		t.Fatal("multi-page report missing next link")
	}
	href, _ := next.Attr("href")
	p2, err := w.Fetch(href)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(p2.Body), "next-page") {
		t.Error("page 2 should not link further")
	}
	// Page 1 and 2 split the paragraphs.
	text1 := htmlparse.Parse(string(p1.Body)).InnerText()
	text2 := htmlparse.Parse(string(p2.Body)).InnerText()
	joined := text1 + "\n" + text2
	for _, para := range truth.Paragraphs {
		probe := para[:40]
		if !strings.Contains(strings.ReplaceAll(joined, "\n", " "), probe[:20]) {
			t.Errorf("paragraph missing across pages: %q", probe)
		}
	}
}

func TestPDFSourcesRoundTrip(t *testing.T) {
	w := testWeb(10)
	var spec SourceSpec
	for _, s := range w.Sources() {
		if s.Format == "pdf" {
			spec = s
			break
		}
	}
	page, err := w.Fetch(spec.BaseURL() + "/report/1")
	if err != nil {
		t.Fatal(err)
	}
	if page.ContentType != "application/pdf" || !pdf.IsPDF(page.Body) {
		t.Fatalf("expected PDF response")
	}
	text, err := pdf.ExtractText(page.Body)
	if err != nil {
		t.Fatal(err)
	}
	truth := w.GenerateTruth(spec, 1)
	if !strings.Contains(text, "Vendor: "+spec.Vendor) {
		t.Errorf("vendor line missing in PDF text")
	}
	probe := strings.Fields(truth.Paragraphs[1])[0]
	if !strings.Contains(text, probe) {
		t.Errorf("body text missing from PDF: %q", probe)
	}
}

func TestAdAndEmptyPages(t *testing.T) {
	w := testWeb(10)
	spec := w.Sources()[0]
	ad, err := w.Fetch(spec.BaseURL() + "/ad/0")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(ad.Body), "Sponsored") {
		t.Error("ad page should be identifiable")
	}
	empty, err := w.Fetch(spec.BaseURL() + "/empty/0")
	if err != nil {
		t.Fatal(err)
	}
	if txt := htmlparse.Parse(string(empty.Body)).InnerText(); strings.TrimSpace(txt) != "" {
		t.Errorf("empty page has text: %q", txt)
	}
}

func TestFetchErrors(t *testing.T) {
	w := testWeb(5)
	spec := w.Sources()[0]
	bad := []string{
		"http://insecure.osint.test/index/0",
		"https://unknown.osint.test/index/0",
		spec.BaseURL() + "/report/999",
		spec.BaseURL() + "/report/abc",
		spec.BaseURL() + "/nope",
		"garbage",
	}
	for _, u := range bad {
		if _, err := w.Fetch(u); err == nil {
			t.Errorf("expected error for %s", u)
		}
	}
}

func TestTransientFailureInjection(t *testing.T) {
	w := testWeb(10)
	w.FailEveryN = 1 // every URL fails once
	spec := w.Sources()[0]
	url := spec.BaseURL() + "/report/1"
	if _, err := w.Fetch(url); err == nil {
		t.Fatal("first fetch should fail")
	} else if _, ok := err.(*TransientError); !ok {
		t.Fatalf("expected TransientError, got %T", err)
	}
	if _, err := w.Fetch(url); err != nil {
		t.Fatalf("second fetch should succeed: %v", err)
	}
}

func TestAliasAndUnseenGeneration(t *testing.T) {
	w := testWeb(300)
	spec := w.Sources()[0]
	aliases, unseen := 0, 0
	for i := 0; i < 300; i++ {
		truth := w.GenerateTruth(spec, i)
		if truth.AliasOf != "" {
			aliases++
			mal := truth.Entities[0]
			if mal.Type != ontology.TypeMalware {
				t.Fatalf("first entity should be the malware: %+v", mal)
			}
			if mal.Name == truth.AliasOf {
				t.Error("alias should differ from canonical")
			}
		}
		if truth.UnseenMalware {
			unseen++
		}
	}
	if aliases < 20 {
		t.Errorf("too few alias variants: %d/300", aliases)
	}
	if unseen < 10 {
		t.Errorf("too few unseen malware names: %d/300", unseen)
	}
}

func TestServeHTTP(t *testing.T) {
	w := testWeb(5)
	spec := w.Sources()[0]
	srv := httptest.NewServer(w)
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/s/" + spec.Slug + "/index/0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	buf := make([]byte, 64)
	n, _ := resp.Body.Read(buf)
	if !strings.Contains(string(buf[:n]), "<html>") {
		t.Errorf("unexpected body: %q", buf[:n])
	}
	if resp2, _ := srv.Client().Get(srv.URL + "/bogus"); resp2 != nil && resp2.StatusCode == 200 {
		t.Error("bogus path should not be 200")
	}
}
