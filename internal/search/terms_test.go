package search

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"securitykg/internal/sources"
	"securitykg/internal/textproc"
)

// tokenTerms is the term pass as it was over textproc.Tokenize's token
// slice; eachTerm must give exactly its terms, in its order.
func tokenTerms(text string) []string {
	toks := textproc.Tokenize(text)
	out := make([]string, 0, len(toks))
	for _, t := range toks {
		if t.IsPunct() {
			continue
		}
		w := strings.ToLower(t.Text)
		if textproc.Stopwords[w] || len(w) == 0 {
			continue
		}
		lem := textproc.Lemma(w, "")
		if lem == "" {
			lem = w
		}
		out = append(out, lem)
	}
	return out
}

func streamedTerms(text string) []string {
	out := []string{}
	eachTerm(text, func(term string) { out = append(out, term) })
	return out
}

// syntheticTexts returns the title and body of every report the
// synthetic web serves at reportsPerSource reports a source.
func syntheticTexts(reportsPerSource int) []string {
	specs := sources.DefaultSources(reportsPerSource)
	web := sources.NewWeb(1, specs)
	var texts []string
	for _, spec := range specs {
		for i := 0; i < spec.Reports; i++ {
			tr := web.GenerateTruth(spec, i)
			texts = append(texts, tr.Title, strings.Join(tr.Paragraphs, "\n"))
		}
	}
	return texts
}

func TestStreamedTermsMatchTokenLoop(t *testing.T) {
	texts := append(syntheticTexts(30),
		"", "...", "don't use command-and-control servers", "U.S. 120,000 e.g. Übernahme ÄÖÜ",
		"IOCPROTECTED_0007 wrote files; the worms were running!!", "\xe9\xe9 caf\xc3\xa9 -- ---",
		"Families of vulnerabilities: binaries, proxies & utilities (2021)")
	for _, text := range texts {
		if got, want := streamedTerms(text), tokenTerms(text); !reflect.DeepEqual(got, want) {
			t.Fatalf("terms of %q:\n got %q\nwant %q", text, got, want)
		}
	}
}

// Add, Search and Remove from several goroutines on one index (run under
// -race): every document a writer keeps is found and counted at the end.
func TestConcurrentAddSearchRemove(t *testing.T) {
	ix := NewIndex(map[string]float64{"title": 2.0})
	texts := syntheticTexts(2)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i+1 < len(texts); i += 2 {
				id := fmt.Sprintf("w%d-%d", w, i)
				ix.Add(doc(id, texts[i], texts[i+1]))
				ix.Search(texts[i], 5)
				if i%4 == 0 {
					ix.Remove(id)
				}
			}
		}(w)
	}
	wg.Wait()
	kept := 0
	for i := 0; i+1 < len(texts); i += 2 {
		if i%4 != 0 {
			kept++
		}
	}
	if got := ix.Len(); got != 4*kept {
		t.Errorf("Len() = %d, want %d", got, 4*kept)
	}
	if hits := ix.Search(texts[2], 0); len(hits) == 0 {
		t.Errorf("no hit for a kept title %q", texts[2])
	}
}

// No key the index keeps points into an added document's text. Terms are
// analyzed as substrings of the text, and one kept as a key would keep
// the whole text alive; a term shared by many documents, and a document
// added again, must not bring a substring back.
func TestKeysDoNotPinText(t *testing.T) {
	texts := syntheticTexts(5)
	ix := NewIndex(map[string]float64{"title": 2.0})
	type span struct{ lo, hi uintptr }
	var spans []span
	// The texts stay reachable to the end, so no later allocation reuses
	// their memory and only a real pin lands in a span.
	var kept []string
	add := func(id, title, body string) {
		// Copies, so each document's text is memory of its own.
		title, body = strings.Clone(title), strings.Clone(body)
		kept = append(kept, title, body)
		for _, s := range []string{title, body} {
			if s != "" {
				p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
				spans = append(spans, span{p, p + uintptr(len(s))})
			}
		}
		ix.Add(doc(id, title, body))
	}
	for i := 0; i+1 < len(texts); i += 2 {
		add(fmt.Sprintf("r%d", i), texts[i], texts[i+1])
	}
	for i := 0; i+3 < len(texts); i += 8 {
		add(fmt.Sprintf("r%d", i), texts[i+2], texts[i+3])
	}
	pinned := func(s string) bool {
		if s == "" {
			return false
		}
		p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		for _, sp := range spans {
			if p >= sp.lo && p < sp.hi {
				return true
			}
		}
		return false
	}
	if len(ix.terms) < 100 {
		t.Fatalf("%d terms indexed, want a corpus's worth", len(ix.terms))
	}
	for k, tm := range ix.terms {
		if pinned(k) || pinned(tm.text) {
			t.Errorf("term %q points into an added document's text", k)
		}
	}
	for id, ts := range ix.docTerms {
		if pinned(id) {
			t.Errorf("document key %q points into an added document's text", id)
		}
		for _, tm := range ts {
			if pinned(tm.text) {
				t.Errorf("term %q of %s points into an added document's text", tm.text, id)
			}
		}
	}
	runtime.KeepAlive(kept)
}
