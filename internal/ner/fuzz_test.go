package ner

import (
	"sync"
	"testing"
)

var (
	fuzzOnce sync.Once
	fuzzExt  *Extractor
)

// fuzzExtractor wraps a model trained once, on a fixed seed, in a fresh
// extractor through NewFromModel, with a few embedding clusters so the
// emb= features resolve too.
func fuzzExtractor(f *testing.F) *Extractor {
	fuzzOnce.Do(func() {
		ext, err := Train(texts(makeCorpus(60, false, 1)), TrainOptions{Epochs: 4, Seed: 1})
		if err != nil {
			f.Fatal(err)
		}
		fuzzExt = NewFromModel(ext.Model(), map[string]int{"ransomware": 0, "group": 1, "the": 2, "tool": 3})
	})
	return fuzzExt
}

// FuzzExtract feeds arbitrary text to Extract and ExtractRelations,
// seeded with corpus documents and text that stresses the IOC scanner and
// the tokenizer. Property: neither panics — a report's text comes from a
// page fetched from outside the program.
func FuzzExtract(f *testing.F) {
	ext := fuzzExtractor(f)
	for _, d := range makeCorpus(4, false, 2) {
		f.Add(d.text)
	}
	for _, s := range []string{
		"",
		"The WannaCry ransomware connects to 10.1.2.3 and evil[.]example[.]com. The Lazarus Group group used the tool Mimikatz.",
		"hxxp://198.51.100.7:8080/a.exe CVE-2017-0144 44d88612fea8a8f36de82e1278abb02f T1059.001 HKLM\\Software\\Run",
		"Émotet \xe9\xe9\xff dropped İnfostealer Ⱥ. . .\n\n(\"quoted\") ... -- !!",
		"a.b.c.d.e 1.2.3 999.999.999.999 ::1 fe80::1 x@y.z",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		ext.Extract(text)
		ext.ExtractRelations(text)
	})
}
