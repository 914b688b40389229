//go:build !race

// Allocation regression guard for the check and parse stages.
// AllocsPerRun is meaningless under the race detector, so this runs in
// the plain pass `make test` adds alongside the -race suite.

package pipeline

import (
	"strconv"
	"testing"

	"securitykg/internal/ctirep"
	"securitykg/internal/htmlparse"
	"securitykg/internal/sources"
)

// multiPageBlogRep ports the first multi-page report of a blog source.
func multiPageBlogRep(t *testing.T) *ctirep.ReportRep {
	t.Helper()
	specs := sources.DefaultSources(4)
	web := sources.NewWeb(3, specs)
	for _, spec := range specs {
		if spec.Layout != sources.LayoutBlog || spec.Format != "html" {
			continue
		}
		for i := 0; i < spec.Reports; i++ {
			if !web.GenerateTruth(spec, i).MultiPage {
				continue
			}
			g := NewGroupingPorter()
			url := spec.BaseURL() + "/report/" + strconv.Itoa(i)
			for url != "" {
				page, err := web.Fetch(url)
				if err != nil {
					t.Fatal(err)
				}
				f := ctirep.RawFile{Source: spec.Slug, URL: url, Format: "html", Body: page.Body}
				if reps := g.Port(f); len(reps) == 1 {
					if len(reps[0].Pages) < 2 {
						t.Fatalf("report %s has %d pages", reps[0].URL, len(reps[0].Pages))
					}
					return reps[0]
				}
				url = nextPageURL(f)
			}
		}
	}
	t.Fatal("no multi-page blog report")
	return nil
}

// TestCheckParseAllocs: both checkers and the blog parser read one parse
// of each page. Checking and parsing a report whose pages are already
// parsed costs only selectors and text, pinned; a fresh report costs that
// plus one parse of each page. A second parse of even the cheapest page,
// through pageDoc or beside it, fails one of the two.
func TestCheckParseAllocs(t *testing.T) {
	fresh := multiPageBlogRep(t)
	parsed := *fresh
	for i := range parsed.Pages {
		pageDoc(&parsed, i)
	}
	checkParse := func(rep *ctirep.ReportRep) func() {
		return func() {
			r := *rep
			if !(NonemptyChecker{}).Check(&r) || !(NotAdsChecker{}).Check(&r) {
				t.Fatal("the report was rejected")
			}
			if _, err := (BlogParser{}).Parse(&r); err != nil {
				t.Fatal(err)
			}
		}
	}
	withParse := testing.AllocsPerRun(20, checkParse(fresh))
	rest := testing.AllocsPerRun(20, checkParse(&parsed))
	var parses, cheapest float64
	for _, page := range fresh.Pages {
		n := testing.AllocsPerRun(20, func() { htmlparse.Parse(string(page)) })
		parses += n
		if cheapest == 0 || n < cheapest {
			cheapest = n
		}
	}
	t.Logf("check + parse of %d pages: %.0f allocations, %.0f of them besides parsing; one parse of each page: %.0f, the cheapest %.0f",
		len(fresh.Pages), withParse, rest, parses, cheapest)
	// 108 allocations: the selectors' compiles and matches, the texts and
	// the rep's copy. Find stops at its first match, so it builds no
	// match list.
	const restCeiling = 110
	if rest > restCeiling {
		t.Errorf("check + parse of parsed pages allocates %.0f times, ceiling %d: a stage parses a page itself", rest, restCeiling)
	}
	if withParse-rest >= parses+cheapest {
		t.Errorf("check + parse allocates %.0f times for parsing, one parse of each page %.0f: pageDoc parses a page twice",
			withParse-rest, parses)
	}
}
