package pipeline

import (
	"testing"

	"securitykg/internal/ctirep"
	"securitykg/internal/pdf"
	"securitykg/internal/sources"
)

// FuzzParsers feeds arbitrary page bodies to all four parsers, seeded
// with a page of each layout from the synthetic web, a generated PDF and
// cuts of them. split > 0 cuts the body into two pages there, so the
// multi-page paths run too. Property: no parser panics — a page is bytes
// fetched from outside the program.
func FuzzParsers(f *testing.F) {
	specs := sources.DefaultSources(4)
	web := sources.NewWeb(3, specs)
	seen := map[string]bool{}
	for _, spec := range specs {
		key := string(spec.Layout) + spec.Format
		if seen[key] {
			continue
		}
		seen[key] = true
		page, err := web.Fetch(spec.BaseURL() + "/report/0")
		if err != nil {
			f.Fatal(err)
		}
		f.Add(page.Body, uint16(0))
		f.Add(page.Body[:len(page.Body)/2], uint16(len(page.Body)/4))
	}
	f.Add(pdf.Generate("Title", []string{"Vendor: V", "Published: 2020-01-02", "Kind: malware", "Body (text)."}), uint16(0))
	f.Add([]byte("%PDF-"), uint16(0))
	f.Add([]byte("%PDF-1.4\nstream\nBT (unclosed \\"), uint16(3))
	f.Add([]byte(`<h1 class="headline">x</h1><div class="meta" data-vendor="v"></div><div class="story">s</div>`), uint16(0))
	f.Add([]byte("<sCript>\xe9\xe9\xe9\xe9\xe9</sCript><div class=\"byline\">By V on D</div>"), uint16(9))
	parsers := []Parser{EncyclopediaParser{}, BlogParser{}, NewsParser{}, PDFParser{}}
	f.Fuzz(func(t *testing.T, body []byte, split uint16) {
		pages := [][]byte{body}
		if s := int(split); s > 0 && s < len(body) {
			pages = [][]byte{body[:s], body[s:]}
		}
		for _, p := range parsers {
			p.Parse(&ctirep.ReportRep{Source: "fuzz", URL: "https://fuzz.example/report/0", Pages: pages})
		}
	})
}
