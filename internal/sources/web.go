package sources

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"securitykg/internal/pdf"
)

// Page is one fetched synthetic document.
type Page struct {
	URL         string
	ContentType string // text/html or application/pdf
	Body        []byte
}

// Fetcher is the access interface the crawler framework consumes. The
// synthetic web implements it in-process; a production deployment would
// implement it with net/http.
type Fetcher interface {
	Fetch(url string) (*Page, error)
}

// TransientError marks a fetch failure worth retrying.
type TransientError struct{ URL string }

func (e *TransientError) Error() string {
	return fmt.Sprintf("sources: transient fetch failure for %s", e.URL)
}

// Web is the deterministic synthetic OSCTI web.
type Web struct {
	seed    int64
	sources []SourceSpec
	bySlug  map[string]*SourceSpec

	// FailEveryN injects one transient failure on the first fetch of every
	// URL whose hash is divisible by N (0 disables). Exercises the
	// crawler's retry/reboot behaviour.
	FailEveryN int
	// Latency simulates network delay per fetch.
	Latency time.Duration

	mu       sync.Mutex
	attempts map[string]int
}

// NewWeb builds a synthetic web over the given sources.
func NewWeb(seed int64, specs []SourceSpec) *Web {
	w := &Web{seed: seed, sources: specs, bySlug: map[string]*SourceSpec{},
		attempts: map[string]int{}}
	for i := range specs {
		w.bySlug[specs[i].Slug] = &specs[i]
	}
	return w
}

// Sources returns the source specs.
func (w *Web) Sources() []SourceSpec {
	out := make([]SourceSpec, len(w.sources))
	copy(out, w.sources)
	return out
}

// Source returns the spec for a slug.
func (w *Web) Source(slug string) (SourceSpec, bool) {
	s, ok := w.bySlug[slug]
	if !ok {
		return SourceSpec{}, false
	}
	return *s, true
}

// IndexURL returns the URL of the p-th index page of a source.
func (w *Web) IndexURL(slug string, p int) string {
	return fmt.Sprintf("https://%s.osint.test/index/%d", slug, p)
}

// Fetch resolves a synthetic URL, generating content on demand.
func (w *Web) Fetch(url string) (*Page, error) {
	if w.Latency > 0 {
		time.Sleep(w.Latency)
	}
	w.mu.Lock()
	if w.FailEveryN > 0 && int(hashSeed(url))%w.FailEveryN == 0 && w.attempts[url] == 0 {
		w.attempts[url]++
		w.mu.Unlock()
		return nil, &TransientError{URL: url}
	}
	w.attempts[url]++
	w.mu.Unlock()

	slug, path, err := splitURL(url)
	if err != nil {
		return nil, err
	}
	spec, ok := w.bySlug[slug]
	if !ok {
		return nil, fmt.Errorf("sources: unknown source %q in %s", slug, url)
	}
	switch {
	case strings.HasPrefix(path, "index/"):
		p, err := strconv.Atoi(strings.TrimPrefix(path, "index/"))
		if err != nil || p < 0 {
			return nil, fmt.Errorf("sources: bad index page in %s", url)
		}
		return w.renderIndex(*spec, p)
	case strings.HasPrefix(path, "report/"):
		rest := strings.TrimPrefix(path, "report/")
		parts := strings.Split(rest, "/")
		idx, err := strconv.Atoi(parts[0])
		if err != nil || idx < 0 || idx >= spec.Reports {
			return nil, fmt.Errorf("sources: bad report id in %s", url)
		}
		page := 1
		if len(parts) == 2 {
			page, err = strconv.Atoi(parts[1])
			if err != nil || page < 1 {
				return nil, fmt.Errorf("sources: bad report page in %s", url)
			}
		}
		return w.renderReport(*spec, idx, page, url)
	case strings.HasPrefix(path, "ad/"):
		return w.renderAd(*spec, url)
	case strings.HasPrefix(path, "empty/"):
		return &Page{URL: url, ContentType: "text/html",
			Body: []byte("<html><head><title></title></head><body></body></html>")}, nil
	}
	return nil, fmt.Errorf("sources: not found: %s", url)
}

func splitURL(url string) (slug, path string, err error) {
	const scheme = "https://"
	if !strings.HasPrefix(url, scheme) {
		return "", "", fmt.Errorf("sources: unsupported URL %q", url)
	}
	rest := strings.TrimPrefix(url, scheme)
	slash := strings.IndexByte(rest, '/')
	if slash < 0 {
		return "", "", fmt.Errorf("sources: no path in %q", url)
	}
	host := rest[:slash]
	path = rest[slash+1:]
	slug = strings.TrimSuffix(host, ".osint.test")
	if slug == host {
		return "", "", fmt.Errorf("sources: foreign host %q", host)
	}
	return slug, path, nil
}

// IndexPages returns the number of index pages for a source.
func (w *Web) IndexPages(spec SourceSpec) int {
	return (spec.Reports + spec.PerPage - 1) / spec.PerPage
}

func (w *Web) renderIndex(spec SourceSpec, p int) (*Page, error) {
	nPages := w.IndexPages(spec)
	if p >= nPages {
		return nil, fmt.Errorf("sources: index page %d out of range for %s", p, spec.Slug)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "<html><head><title>%s — page %d</title></head><body>", spec.Name, p)
	fmt.Fprintf(&b, "<h1>%s</h1><ul class=\"reports\">", spec.Name)
	start := p * spec.PerPage
	end := start + spec.PerPage
	if end > spec.Reports {
		end = spec.Reports
	}
	for i := start; i < end; i++ {
		fmt.Fprintf(&b, `<li><a class="report-link" href="%s/report/%d">Report %d</a></li>`,
			spec.BaseURL(), i, i)
	}
	b.WriteString("</ul>")
	// Noise links the checker must screen out.
	fmt.Fprintf(&b, `<a class="sponsored" href="%s/ad/%d">Sponsored content</a>`, spec.BaseURL(), p)
	fmt.Fprintf(&b, `<a href="%s/empty/%d">placeholder</a>`, spec.BaseURL(), p)
	if p+1 < nPages {
		fmt.Fprintf(&b, `<a class="next-index" href="%s">older posts</a>`, w.IndexURL(spec.Slug, p+1))
	}
	b.WriteString("</body></html>")
	return &Page{URL: w.IndexURL(spec.Slug, p), ContentType: "text/html", Body: []byte(b.String())}, nil
}

func (w *Web) renderAd(spec SourceSpec, url string) (*Page, error) {
	body := `<html><head><title>Sponsored: Limited offer</title></head><body>
<div class="ad">Buy SuperAV Pro now! Discount ends soon. Click here to subscribe and win a prize.</div>
</body></html>`
	return &Page{URL: url, ContentType: "text/html", Body: []byte(body)}, nil
}

func (w *Web) renderReport(spec SourceSpec, idx, page int, url string) (*Page, error) {
	truth := w.GenerateTruth(spec, idx)
	if spec.Format == "pdf" {
		if page != 1 {
			return nil, fmt.Errorf("sources: pdf reports are single-URL: %s", url)
		}
		return &Page{URL: url, ContentType: "application/pdf",
			Body: pdf.Generate(truth.Title, append(
				[]string{"Vendor: " + spec.Vendor, "Published: " + truth.PublishedAt, "Kind: " + truth.Kind},
				truth.Paragraphs...))}, nil
	}
	maxPage := 1
	if truth.MultiPage {
		maxPage = 2
	}
	if page > maxPage {
		return nil, fmt.Errorf("sources: report page %d out of range: %s", page, url)
	}
	// Split paragraphs across pages when multi-page.
	paras := truth.Paragraphs
	var shown []string
	if truth.MultiPage {
		half := (len(paras) + 1) / 2
		if page == 1 {
			shown = paras[:half]
		} else {
			shown = paras[half:]
		}
	} else {
		shown = paras
	}
	var b strings.Builder
	fmt.Fprintf(&b, "<html><head><title>%s</title></head><body>", htmlEscape(truth.Title))
	switch spec.Layout {
	case LayoutEncyclopedia:
		fmt.Fprintf(&b, `<h1 class="entry-title">%s</h1>`, htmlEscape(truth.Title))
		if page == 1 {
			b.WriteString(`<table class="meta">`)
			rows := [][2]string{
				{"Vendor", spec.Vendor},
				{"Published", truth.PublishedAt},
				{"Kind", truth.Kind},
			}
			for _, r := range rows {
				fmt.Fprintf(&b, `<tr><td class="key">%s</td><td class="val">%s</td></tr>`,
					r[0], htmlEscape(r[1]))
			}
			b.WriteString("</table>")
		}
		b.WriteString(`<div class="body">`)
		for _, p := range shown {
			fmt.Fprintf(&b, "<p>%s</p>", htmlEscape(p))
		}
		b.WriteString("</div>")
	case LayoutBlog:
		fmt.Fprintf(&b, `<h1 class="post-title">%s</h1>`, htmlEscape(truth.Title))
		fmt.Fprintf(&b, `<div class="byline">By %s on <span class="date">%s</span> · <span class="kind">%s</span></div>`,
			spec.Vendor, truth.PublishedAt, truth.Kind)
		b.WriteString(`<article class="post-body">`)
		for _, p := range shown {
			fmt.Fprintf(&b, "<p>%s</p>", htmlEscape(p))
		}
		b.WriteString("</article>")
	case LayoutNews:
		fmt.Fprintf(&b, `<h1 class="headline">%s</h1>`, htmlEscape(truth.Title))
		fmt.Fprintf(&b, `<div class="meta" data-vendor="%s" data-date="%s" data-kind="%s"></div>`,
			htmlEscape(spec.Vendor), truth.PublishedAt, truth.Kind)
		b.WriteString(`<div class="story">`)
		for _, p := range shown {
			fmt.Fprintf(&b, "<p>%s</p>", htmlEscape(p))
		}
		b.WriteString("</div>")
	}
	if truth.MultiPage && page == 1 {
		fmt.Fprintf(&b, `<a class="next-page" href="%s/report/%d/2">continue reading</a>`,
			spec.BaseURL(), idx)
	}
	b.WriteString("</body></html>")
	return &Page{URL: url, ContentType: "text/html", Body: []byte(b.String())}, nil
}

// htmlEscaper is built once: a strings.Replacer is safe for concurrent use.
var htmlEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")

func htmlEscape(s string) string { return htmlEscaper.Replace(s) }

// ServeHTTP exposes the synthetic web over real HTTP for demos: the path
// scheme is /s/<slug>/<path...>, translated to the canonical https URL.
func (w *Web) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	parts := strings.SplitN(strings.TrimPrefix(r.URL.Path, "/"), "/", 3)
	if len(parts) != 3 || parts[0] != "s" {
		http.NotFound(rw, r)
		return
	}
	page, err := w.Fetch(fmt.Sprintf("https://%s.osint.test/%s", parts[1], parts[2]))
	if err != nil {
		http.Error(rw, err.Error(), http.StatusBadGateway)
		return
	}
	rw.Header().Set("Content-Type", page.ContentType)
	rw.Write(page.Body)
}
