package htmlparse

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"securitykg/internal/sources"
)

const samplePage = `<!DOCTYPE html>
<html>
<head><title>Threat Report: WannaCry</title>
<style>body { color: red }</style>
<script>var x = "<div>not a tag</div>";</script>
</head>
<body>
<div id="report" class="report malware-report">
  <h1 class="title">WannaCry Analysis</h1>
  <table class="meta">
    <tr><td class="key">Vendor</td><td class="val">AcmeSec</td></tr>
    <tr><td class="key">Date</td><td class="val">2021-02-26</td></tr>
  </table>
  <ul class="iocs">
    <li>10.0.0.1
    <li>bad.example.com
  </ul>
  <p>The worm spreads &amp; encrypts files.</p>
  <!-- hidden comment -->
  <img src="x.png">
  <a href="https://mitre.org">reference</a>
</div>
</body>
</html>`

func TestTokenizeBasicStructure(t *testing.T) {
	toks := Tokenize("<p class='x'>hi</p>")
	if len(toks) != 3 {
		t.Fatalf("expected 3 tokens, got %+v", toks)
	}
	if toks[0].Type != TokenStartTag || toks[0].Data != "p" || toks[0].Attrs["class"] != "x" {
		t.Errorf("start tag wrong: %+v", toks[0])
	}
	if toks[1].Type != TokenText || toks[1].Data != "hi" {
		t.Errorf("text wrong: %+v", toks[1])
	}
	if toks[2].Type != TokenEndTag || toks[2].Data != "p" {
		t.Errorf("end tag wrong: %+v", toks[2])
	}
}

func TestTokenizeScriptRawText(t *testing.T) {
	toks := Tokenize(`<script>if (a<b) { x = "</div>"; }</script><p>after</p>`)
	// Script content must be one raw text token; the "<b)" must not lex a tag.
	var scriptText string
	for i, tk := range toks {
		if tk.Type == TokenStartTag && tk.Data == "script" && i+1 < len(toks) {
			scriptText = toks[i+1].Data
		}
	}
	if !strings.Contains(scriptText, "a<b") {
		t.Errorf("script raw text mangled: %q (tokens %+v)", scriptText, toks)
	}
}

func TestTokenizeVoidAndSelfClosing(t *testing.T) {
	toks := Tokenize(`<img src="a.png"><br/><input type=text>`)
	for _, tk := range toks {
		if tk.Type != TokenSelfClosing {
			t.Errorf("expected self-closing, got %+v", tk)
		}
	}
}

func TestTokenizeUnquotedAndSingleQuotedAttrs(t *testing.T) {
	toks := Tokenize(`<a href=/x/y title='hello world' data-k="v">z</a>`)
	at := toks[0].Attrs
	if at["href"] != "/x/y" || at["title"] != "hello world" || at["data-k"] != "v" {
		t.Errorf("attrs wrong: %+v", at)
	}
}

func TestDecodeEntities(t *testing.T) {
	cases := map[string]string{
		"a &amp; b":       "a & b",
		"&lt;tag&gt;":     "<tag>",
		"&#65;&#x42;":     "AB",
		"&unknown; stays": "&unknown; stays",
		"no entities":     "no entities",
		"&quot;q&quot;":   `"q"`,
	}
	for in, want := range cases {
		if got := DecodeEntities(in); got != want {
			t.Errorf("DecodeEntities(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestParseTreeShape(t *testing.T) {
	doc := Parse("<div><p>one</p><p>two</p></div>")
	div := doc.Find("div")
	if div == nil {
		t.Fatal("div not found")
	}
	if len(div.Children) != 2 {
		t.Fatalf("div should have 2 children, got %d", len(div.Children))
	}
	if div.Children[0].Tag != "p" || div.Children[1].Tag != "p" {
		t.Errorf("children wrong: %+v", div.Children)
	}
	if div.Children[0].Parent != div {
		t.Error("parent pointer wrong")
	}
}

func TestParseAutoClosesLiAndTr(t *testing.T) {
	doc := Parse("<ul><li>a<li>b<li>c</ul>")
	lis := doc.FindAll("ul li")
	if len(lis) != 3 {
		t.Fatalf("expected 3 li, got %d", len(lis))
	}
	for i, want := range []string{"a", "b", "c"} {
		if got := lis[i].InnerText(); got != want {
			t.Errorf("li[%d] = %q, want %q", i, got, want)
		}
	}
}

func TestParseIgnoresStrayCloseTags(t *testing.T) {
	doc := Parse("<div></span><p>ok</p></div>")
	if p := doc.Find("div p"); p == nil || p.InnerText() != "ok" {
		t.Errorf("stray close tag broke parse: %+v", doc)
	}
}

func TestParseUnclosedTagsClosedAtEOF(t *testing.T) {
	doc := Parse("<div><p>dangling")
	if p := doc.Find("div p"); p == nil || p.InnerText() != "dangling" {
		t.Error("unclosed tags not recovered")
	}
}

func TestSelectorsOnSamplePage(t *testing.T) {
	doc := Parse(samplePage)

	if n := doc.Find("div.malware-report"); n == nil {
		t.Error("class selector failed")
	}
	if n := doc.Find("h1.title"); n == nil || n.InnerText() != "WannaCry Analysis" {
		t.Errorf("h1.title wrong: %v", n)
	}
	keys := doc.FindAll("table.meta td.key")
	vals := doc.FindAll("table.meta td.val")
	if len(keys) != 2 || len(vals) != 2 {
		t.Fatalf("table cells: %d keys %d vals", len(keys), len(vals))
	}
	if keys[0].InnerText() != "Vendor" || vals[0].InnerText() != "AcmeSec" {
		t.Errorf("first row wrong: %q=%q", keys[0].InnerText(), vals[0].InnerText())
	}
}

// A descendant step matches at any depth below the step before it.
func TestDescendantSelectorReachesAnyDepth(t *testing.T) {
	doc := Parse("<div><section><p>deep</p></section><p>shallow</p></div>")
	if desc := doc.FindAll("div p"); len(desc) != 2 {
		t.Errorf("descendant selector should match 2, got %d", len(desc))
	}
}

func TestInnerTextSkipsScriptStyleAndDecodes(t *testing.T) {
	doc := Parse(samplePage)
	text := doc.InnerText()
	if strings.Contains(text, "color: red") || strings.Contains(text, "var x") {
		t.Error("InnerText leaked script/style content")
	}
	if !strings.Contains(text, "spreads & encrypts") {
		t.Errorf("entities not decoded in text: %q", text)
	}
	if strings.Contains(text, "hidden comment") {
		t.Error("InnerText leaked comment")
	}
}

func TestInnerTextBlockSeparation(t *testing.T) {
	doc := Parse("<div><p>one</p><p>two</p></div>")
	text := doc.InnerText()
	if !strings.Contains(text, "\n") {
		t.Errorf("block elements should be newline separated: %q", text)
	}
}

func TestWalkVisitsAllElements(t *testing.T) {
	doc := Parse(samplePage)
	count := 0
	doc.Walk(func(n *Node) bool {
		if n.Type == ElementNode {
			count++
		}
		return true
	})
	if count < 15 {
		t.Errorf("expected at least 15 elements, got %d", count)
	}
}

func TestWalkPrune(t *testing.T) {
	doc := Parse("<div><span>a</span></div><p>b</p>")
	var tags []string
	doc.Walk(func(n *Node) bool {
		if n.Type == ElementNode {
			tags = append(tags, n.Tag)
			return n.Tag != "div" // prune div's subtree
		}
		return true
	})
	for _, tg := range tags {
		if tg == "span" {
			t.Error("pruned subtree was visited")
		}
	}
}

func TestFindAllNoDuplicatesOnNestedMatch(t *testing.T) {
	doc := Parse("<div><div><p>x</p></div></div>")
	ps := doc.FindAll("div p")
	if len(ps) != 1 {
		t.Errorf("expected 1 unique p, got %d", len(ps))
	}
}

// Property: Parse never panics and InnerText never contains '<' from tags
// for inputs assembled from structural fragments.
func TestParseRobustnessQuick(t *testing.T) {
	frags := []string{"<div>", "</div>", "<p class='a'>", "text & more",
		"<img src=x>", "</span>", "<script>x<y</script>", "<!-- c -->",
		"<a href=", "'>", "<", ">", "&amp;", "<table><tr><td>z"}
	f := func(idx []uint8) bool {
		var sb strings.Builder
		for _, i := range idx {
			sb.WriteString(frags[int(i)%len(frags)])
		}
		doc := Parse(sb.String())
		_ = doc.InnerText()
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

// tokenSummary renders tokens as "type:data" for comparison.
func tokenSummary(toks []Token) []string {
	out := make([]string, len(toks))
	for i, tk := range toks {
		out[i] = fmt.Sprintf("%d:%s", tk.Type, tk.Data)
	}
	return out
}

// A raw-text element's close tag is found in the page itself, so bytes
// and runes whose lowercase form has another length cannot move it: not
// invalid UTF-8 (each byte lowers to a three-byte U+FFFD), not Ⱥ (2 bytes,
// lowers to 3) and not İ (2 bytes, lowers to 1).
func TestRawTextCloseTagOffsets(t *testing.T) {
	for _, tc := range []struct {
		html string
		want []Token
	}{
		{"<title>ȺȺ report</TITLE><p>after</p>", []Token{
			{Type: TokenStartTag, Data: "title"}, {Type: TokenText, Data: "ȺȺ report"},
			{Type: TokenEndTag, Data: "title"}, {Type: TokenStartTag, Data: "p"},
			{Type: TokenText, Data: "after"}, {Type: TokenEndTag, Data: "p"}}},
		{"<style>İİ{x:1}</style ><p>after</p>", []Token{
			{Type: TokenStartTag, Data: "style"}, {Type: TokenText, Data: "İİ{x:1}"},
			{Type: TokenEndTag, Data: "style"}, {Type: TokenStartTag, Data: "p"},
			{Type: TokenText, Data: "after"}, {Type: TokenEndTag, Data: "p"}}},
		// Only "</" and the name close it; a near miss is raw text.
		{"<textarea>a</text b</textareaZ>c", []Token{
			{Type: TokenStartTag, Data: "textarea"}, {Type: TokenText, Data: "a</text b"},
			{Type: TokenEndTag, Data: "textarea"}, {Type: TokenText, Data: "c"}}},
		// A fuzz find: the close tag's index in the lowered copy ran past
		// the end of the page. It comes last, so that where that bug is
		// back the cases above report before it panics.
		{"<sCript>\xe9\xe9\xe9\xe9\xe9</sCript", []Token{
			{Type: TokenStartTag, Data: "script"}, {Type: TokenText, Data: "\xe9\xe9\xe9\xe9\xe9"},
			{Type: TokenEndTag, Data: "script"}}},
	} {
		got, want := tokenSummary(Tokenize(tc.html)), tokenSummary(tc.want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Tokenize(%q):\n got %q\nwant %q", tc.html, got, want)
		}
		_ = Parse(tc.html).InnerText()
	}
}

// HasText answers whether InnerText is non-empty without building it.
func TestHasTextMatchesInnerText(t *testing.T) {
	for _, tc := range []struct {
		name, html string
		want       bool
	}{
		{"script only", "<html><body><script>var x = 1;</script></body></html>", false},
		{"style only", "<html><head><style>p { color: red }</style></head><body></body></html>", false},
		{"comment only", "<html><body><!-- nothing to see --></body></html>", false},
		{"whitespace only", "<html><body>  \n\t <p>   </p>\r\n</body></html>", false},
		{"empty", "", false},
		{"nbsp only", "<p>&nbsp;</p>", false},
		{"text beside script", "<body><script>x()</script><p>malware</p></body>", true},
		{"title text", "<html><head><title>Report</title></head></html>", true},
		{"bare text", "plain", true},
	} {
		doc := Parse(tc.html)
		if got := doc.HasText(); got != tc.want {
			t.Errorf("%s: HasText() = %v, want %v", tc.name, got, tc.want)
		}
		if inner := doc.InnerText() != ""; inner != tc.want {
			t.Errorf("%s: InnerText() != \"\" is %v, want %v", tc.name, inner, tc.want)
		}
	}
}

// FuzzParse: no page makes Parse or InnerText panic, HasText agrees with
// InnerText on every page, and Parse and FindAll agree with their
// references.
func FuzzParse(f *testing.F) {
	for _, s := range []string{samplePage, "<sCript>\xe9\xe9\xe9\xe9\xe9</sCript",
		"<title>ȺȺ</title>", "<style>İ</style>", "<!-- x", "<a href='x", "<table><tr><td>z",
		"<p> \u00a0\v </p>", "<script>x</script><style>y</style><!--z-->"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, html string) {
		if len(html) > 1<<16 {
			t.Skip()
		}
		doc := Parse(html)
		if has, inner := doc.HasText(), doc.InnerText(); has != (inner != "") {
			t.Errorf("HasText() = %v, InnerText() = %q", has, inner)
		}
		checkFindIsFirst(t, doc)
		checkAgainstReference(t, html)
	})
}

// findSelectors are the selectors the report parsers and the crawler
// use, and some with the grammar's other steps.
var findSelectors = []string{
	"a.next-page", "h1.entry-title", "table.meta td.key", "table.meta td.val", "div.body",
	"h1.post-title", "div.byline", "article.post-body", "span.date", "span.kind",
	"h1.headline", "div.meta", "div.story", "a.report-link", "a.next-index",
	"div p", "ul li", "div div", "",
	"tr .key", "div.report.malware-report td", "div div div",
}

// checkFindIsFirst holds Find, which stops at its first match, to
// FindAll's first, below n.
func checkFindIsFirst(t *testing.T, n *Node) {
	t.Helper()
	for _, sel := range findSelectors {
		var want *Node
		if all := n.FindAll(sel); len(all) > 0 {
			want = all[0]
		}
		if got := n.Find(sel); got != want {
			t.Fatalf("Find(%q) below <%s> = %v, FindAll's first %v", sel, n.Tag, got, want)
		}
	}
}

// checkFindIsFirstEverywhere is checkFindIsFirst below every node of doc,
// as the blog parser's byline lookups are.
func checkFindIsFirstEverywhere(t *testing.T, doc *Node) {
	t.Helper()
	checkFindIsFirst(t, doc)
	for _, c := range doc.Children {
		checkFindIsFirstEverywhere(t, c)
	}
}

func TestFindIsFindAllFirst(t *testing.T) {
	checkFindIsFirstEverywhere(t, Parse(samplePage))
	for _, page := range syntheticPages(t) {
		checkFindIsFirstEverywhere(t, Parse(page))
	}
}

// syntheticPages returns the index and report pages of the synthetic
// web's HTML sources.
func syntheticPages(t *testing.T) []string {
	t.Helper()
	specs := sources.DefaultSources(3)
	web := sources.NewWeb(1, specs)
	var pages []string
	for _, spec := range specs {
		if spec.Format != "html" {
			continue
		}
		urls := []string{web.IndexURL(spec.Slug, 0), web.IndexURL(spec.Slug, 1)}
		for i := 0; i < spec.Reports; i++ {
			urls = append(urls, fmt.Sprintf("%s/report/%d", spec.BaseURL(), i), fmt.Sprintf("%s/report/%d/2", spec.BaseURL(), i))
		}
		for _, u := range urls {
			if page, err := web.Fetch(u); err == nil {
				pages = append(pages, string(page.Body))
			}
		}
	}
	if len(pages) < 100 {
		t.Fatalf("only %d synthetic pages fetched", len(pages))
	}
	return pages
}

// checkAgainstReference holds Parse to referenceParse on html, and
// FindAll to referenceFindAll below every node of the tree, for every
// selector in findSelectors.
func checkAgainstReference(t *testing.T, html string) {
	t.Helper()
	doc := Parse(html)
	if path := treeDiff(doc, referenceParse(html), "#document"); path != "" {
		t.Fatalf("Parse and referenceParse differ at %s", path)
	}
	var check func(n *Node)
	check = func(n *Node) {
		for _, sel := range findSelectors {
			if got, want := n.FindAll(sel), referenceFindAll(n, sel); !slices.Equal(got, want) {
				t.Fatalf("FindAll(%q) below <%s>: %d nodes, the reference %d", sel, n.Tag, len(got), len(want))
			}
		}
		for _, c := range n.Children {
			check(c)
		}
	}
	check(doc)
}

// treeDiff returns the path to the first node where trees a and b differ
// in type, tag, text, attributes, children or parent links, or "".
func treeDiff(a, b *Node, path string) string {
	if a.Type != b.Type || a.Tag != b.Tag || a.Text != b.Text || !maps.Equal(a.Attrs, b.Attrs) || len(a.Children) != len(b.Children) {
		return path
	}
	for i := range a.Children {
		if a.Children[i].Parent != a || b.Children[i].Parent != b {
			return path + " (parent link)"
		}
		if d := treeDiff(a.Children[i], b.Children[i], fmt.Sprintf("%s/%d:%s", path, i, a.Children[i].Tag)); d != "" {
			return d
		}
	}
	return ""
}

func TestMatchesReferenceOnSyntheticWeb(t *testing.T) {
	checkAgainstReference(t, samplePage)
	for _, page := range syntheticPages(t) {
		checkAgainstReference(t, page)
	}
}

// The shapes behind the linear rewrite: nested matches of every step,
// stray and interleaved end tags before and after the first stray one,
// and auto-closed elements that a later end tag names.
func TestMatchesReferenceOnNestingShapes(t *testing.T) {
	for _, html := range []string{
		strings.Repeat(`<table class="meta"><tr><td class="key">k<div>`, 20),
		strings.Repeat("<div>", 30) + strings.Repeat("</x>", 30) + strings.Repeat("</div>", 10) + "<p>after",
		"<div><p>a<div><p>b</div></p></div>c</div>",
		"<ul><li>a<li>b<ul><li>c</li></ul></li></ul><li>d</ul>",
		"<tr><td>a<td>b</tr></td><th>c</td>",
		"<dl><dt>a<dd>b<dt>c</dl></dd>",
		"<div><p>a</div><span>b</p></span>c",
		"</x><ul><li>a<li>b</li></ul></li><p>c</p></p>",
		`<div class="report malware-report"><div><table><tr><td class="key">x</td></tr></table></div></div>`,
	} {
		checkAgainstReference(t, html)
	}
}
