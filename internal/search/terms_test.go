package search

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

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
