package pipeline

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log"
	"strings"
	"testing"

	"securitykg/internal/crawler"
	"securitykg/internal/ctirep"
	"securitykg/internal/graph"
	"securitykg/internal/sources"
)

// hostileFetcher serves the synthetic web with the pages in bodies
// replaced and the URLs in gone failing to fetch.
type hostileFetcher struct {
	web    *sources.Web
	bodies map[string][]byte
	gone   map[string]bool
}

func (h hostileFetcher) Fetch(url string) (*sources.Page, error) {
	if h.gone[url] {
		return nil, errors.New("gone")
	}
	page, err := h.web.Fetch(url)
	if body, ok := h.bodies[url]; ok && err == nil {
		page = &sources.Page{URL: url, ContentType: page.ContentType, Body: body}
	}
	return page, err
}

// panicExtractor stands in for an extractor with a bug one report
// provokes.
type panicExtractor struct{ url string }

func (panicExtractor) Name() string { return "panic" }

func (e panicExtractor) Extract(c *ctirep.CTIRep) error {
	if c.URL == e.url {
		panic("extractor fault")
	}
	return nil
}

// TestHostilePagesFailAlone ingests a web in which three report pages are
// hostile bytes (raw text with invalid UTF-8, a page cut inside a tag, a
// %PDF- header over garbage) and an extractor panics on a fourth report.
// Each of the four is counted once, at the stage that fails it; the
// counters add up to the reports ported; and the graph saves to the same
// bytes as a run in which the four reports fail to fetch. One worker per
// stage keeps the connect order, and with it the bytes, fixed.
func TestHostilePagesFailAlone(t *testing.T) {
	var specs []sources.SourceSpec
	for _, s := range sources.DefaultSources(3) {
		switch s.Slug {
		case "acme-encyclopedia", "redcanary-blog", "hack-daily", "ibm-xforce-pdf":
			specs = append(specs, s)
		}
	}
	web := sources.NewWeb(41, specs)
	report := func(slug string, i int) string {
		return fmt.Sprintf("https://%s.osint.test/report/%d", slug, i)
	}
	news, err := web.Fetch(report("hack-daily", 1))
	if err != nil {
		t.Fatal(err)
	}
	cut := bytes.Index(news.Body, []byte(`<div class="story"`)) + len(`<div cla`)
	bodies := map[string][]byte{
		report("redcanary-blog", 0): []byte("Emotet \xff\xfe dropped \xc3\x28 payloads over \xed\xa0\x80 TLS.\n"),
		report("hack-daily", 1):     news.Body[:cut],
		report("ibm-xforce-pdf", 2): []byte("%PDF-1.4\n\x00\x9c\xffstream BT (\\\n\x01endobj"),
	}
	marked := report("acme-encyclopedia", 1)

	run := func(f sources.Fetcher) (Stats, string, []byte) {
		var files []ctirep.RawFile
		fw := crawler.New(f, specs, crawler.Config{Workers: 1})
		if err := fw.RunOnce(context.Background(), func(rf ctirep.RawFile) { files = append(files, rf) }); err != nil {
			t.Fatal(err)
		}
		store := graph.New()
		var logBuf bytes.Buffer
		p := newPipeline(t, specs, store, nil, false)
		p.Extractors = append(p.Extractors, panicExtractor{marked})
		p.Cfg = Config{CheckWorkers: 1, ParseWorkers: 1, ExtractWorkers: 1, ConnectWorkers: 1,
			Logger: log.New(&logBuf, "", 0)}
		st, err := p.Run(context.Background(), feed(files))
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Connectors) != 1 || st.Ported != st.Rejected+st.ParseErrs+st.ExtractErrs+st.Panics+st.ConnectErrs+st.Connected {
			t.Errorf("the counters do not add up to the reports ported: %+v", st)
		}
		var saved bytes.Buffer
		if err := store.Save(&saved); err != nil {
			t.Fatal(err)
		}
		return st, logBuf.String(), saved.Bytes()
	}

	hostile, logged, hostileGraph := run(hostileFetcher{web: web, bodies: bodies})
	gone := map[string]bool{marked: true}
	for u := range bodies {
		gone[u] = true
	}
	clean, _, cleanGraph := run(hostileFetcher{web: web, gone: gone})

	if clean.Connected == 0 || hostile.Connected != clean.Connected || hostile.Ported != clean.Ported+4 {
		t.Errorf("hostile run %+v, against the run without the four reports %+v", hostile, clean)
	}
	// The PDF has no text to check; the other two pages have no body to parse.
	if hostile.Rejected != clean.Rejected+1 || hostile.ParseErrs != clean.ParseErrs+2 ||
		hostile.Panics != 1 || clean.Panics != 0 || hostile.ExtractErrs != clean.ExtractErrs ||
		hostile.ConnectErrs != clean.ConnectErrs {
		t.Errorf("hostile reports not each counted once: hostile run %+v, without them %+v", hostile, clean)
	}
	if want := "pipeline: extract " + marked + ": panic: extractor fault"; !strings.Contains(logged, want) {
		t.Errorf("log %q lacks %q", logged, want)
	}
	if !bytes.Equal(hostileGraph, cleanGraph) {
		t.Errorf("the graph saves to %d bytes with the hostile reports, %d without them, and they differ",
			len(hostileGraph), len(cleanGraph))
	}
}
