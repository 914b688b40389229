package ner

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"slices"
	"strings"
	"testing"

	"securitykg/internal/ioc"
	"securitykg/internal/sources"
	"securitykg/internal/textproc"
)

var updateOracle = flag.Bool("update-oracle", false, "rewrite testdata/extract_parent.txt from this build")

// oracleReports draws reports as the E4 and E7 experiments draw them:
// report indexes fromIdx onward of every source of a seeded web, n in all.
func oracleReports(seed int64, n, fromIdx int) []*sources.Truth {
	web := sources.NewWeb(seed, sources.DefaultSources(fromIdx+n/40+2))
	var out []*sources.Truth
	for _, spec := range web.Sources() {
		for i := fromIdx; len(out) < n && i < spec.Reports; i++ {
			out = append(out, web.GenerateTruth(spec, i))
		}
	}
	return out
}

// hashClusters gives every lowercased word of the protected texts an
// embedding cluster by hash, so that emb= features take part without
// training embeddings.
func hashClusters(texts []string) map[string]int {
	out := map[string]int{}
	for _, text := range texts {
		for _, s := range textproc.SplitSentences(ioc.Protect(text).Protected) {
			for _, tok := range textproc.Tokenize(s.Text) {
				w := strings.ToLower(tok.Text)
				h := fnv.New32a()
				h.Write([]byte(w))
				out[w] = int(h.Sum32() % 16)
			}
		}
	}
	return out
}

// oracleSetup trains an extractor with hash clusters on 40 reports and
// returns it with the clusters and 48 held-out reports, whose words the
// clusters cover too.
func oracleSetup(t testing.TB) (*Extractor, map[string]int, []*sources.Truth) {
	t.Helper()
	train := oracleReports(3, 40, 0)
	test := oracleReports(3, 48, 40/40+3)
	var texts []string
	for _, d := range append(append([]*sources.Truth(nil), train...), test...) {
		texts = append(texts, strings.Join(d.Paragraphs, "\n"))
	}
	clusters := hashClusters(texts)
	ext, err := Train(texts[:len(train)], TrainOptions{Epochs: 3, Seed: 3, Clusters: clusters})
	if err != nil {
		t.Fatal(err)
	}
	return ext, clusters, test
}

// extractLines prints, one line each, what Extract, ExtractRelations and
// Analyze return on every report.
func extractLines(t testing.TB, ext *Extractor, docs []*sources.Truth) []string {
	var out []string
	line := func(i int, fn string, v any) {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, fmt.Sprintf("%d %s %s", i, fn, b))
	}
	for i, d := range docs {
		text := strings.Join(d.Paragraphs, "\n")
		line(i, "Extract", ext.Extract(text))
		line(i, "ExtractRelations", ext.ExtractRelations(text))
		a := ext.Analyze(d.Title, text)
		line(i, "Analyze.Entities", a.Entities())
		line(i, "Analyze.Relations", a.Relations())
	}
	return out
}

// TestExtractMatchesParent holds training and extraction to
// testdata/extract_parent.txt, which the commit before the extractor
// decoded from feature IDs wrote: the entities and relations of 48
// held-out reports, by an extractor trained with embedding clusters.
// Regenerate (-update-oracle) only when a change means to alter what the
// extractor finds.
func TestExtractMatchesParent(t *testing.T) {
	const path = "testdata/extract_parent.txt"
	ext, _, docs := oracleSetup(t)
	got := extractLines(t, ext, docs)
	if *updateOracle {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	var want []string
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d lines, the parent's file has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("line %d:\n got %s\nwant %s", i+1, got[i], want[i])
		}
	}
}

// TestFeatureIDsMatchFeatureStrings holds the ids a sentence is decoded
// from to the ids of the feature strings it is trained on, token by token,
// on documents of a web neither extractor was trained on: with embedding
// clusters and without.
func TestFeatureIDsMatchFeatureStrings(t *testing.T) {
	withClusters, hashed, _ := oracleSetup(t)
	extractors := map[string]*Extractor{"clusters": withClusters, "plain": webExtractor(t)}
	clusters := map[string]map[string]int{"clusters": hashed, "plain": nil}
	web := sources.NewWeb(99, sources.DefaultSources(4))
	for name, ext := range extractors {
		sentences, withEmb := 0, 0
		for _, spec := range web.Sources() {
			for i := 0; i < spec.Reports; i++ {
				prot := ioc.Protect(strings.Join(web.GenerateTruth(spec, i).Paragraphs, "\n"))
				for _, s := range textproc.SplitSentences(prot.Protected) {
					st := prepareSentence(s.Text, prot, ext.lookup)
					sink := idSink{fi: ext.feats, tokens: ext.feats.resolve(&st, nil)}
					for i := range st.toks {
						fs := featureStrings{st: &st, clusters: clusters[name]}
						st.emit(i, &fs)
						var want []int32
						for _, f := range fs.out {
							if id, ok := ext.model.FeatureID(f); ok {
								want = append(want, id)
							}
							if strings.HasPrefix(f, "emb=") {
								withEmb++
							}
						}
						sink.ids = sink.ids[:0]
						st.emit(i, &sink)
						if !slices.Equal(sink.ids, want) {
							t.Fatalf("%s: sentence %q token %d: ids %v, feature strings %v give %v",
								name, s.Text, i, sink.ids, fs.out, want)
						}
					}
					sentences++
				}
			}
		}
		t.Logf("%s: %d sentences, %d emb= features", name, sentences, withEmb)
		if (withEmb > 0) != (name == "clusters") {
			t.Errorf("%s: %d emb= features", name, withEmb)
		}
	}
}
