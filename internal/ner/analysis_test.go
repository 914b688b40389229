package ner

import (
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"securitykg/internal/sources"
)

var (
	webOnce sync.Once
	webExt  *Extractor
)

// webExtractor is trained on synthetic-web reports, whose IOCs give the
// placeholder words weights of their own.
func webExtractor(t testing.TB) *Extractor {
	t.Helper()
	webOnce.Do(func() {
		web := sources.NewWeb(7, sources.DefaultSources(4))
		var texts []string
		for _, spec := range web.Sources()[:14] {
			for i := 0; i < 4; i++ {
				texts = append(texts, strings.Join(web.GenerateTruth(spec, i).Paragraphs, "\n"))
			}
		}
		ext, err := Train(texts, TrainOptions{Epochs: 4, Seed: 1})
		if err != nil {
			panic(err)
		}
		webExt = ext
	})
	return webExt
}

// checkAnalyze holds Analyze to its contract: the shared pass gives what
// the two entry points give when each analyzes its own text.
func checkAnalyze(t *testing.T, ext *Extractor, title, text string) {
	t.Helper()
	a := ext.Analyze(title, text)
	if got, want := a.Entities(), ext.Extract(title+".\n"+text); !reflect.DeepEqual(got, want) {
		t.Fatalf("Analyze(%q, %q).Entities():\n got %+v\nwant %+v", title, text, got, want)
	}
	if got, want := a.Relations(), ext.ExtractRelations(text); !reflect.DeepEqual(got, want) {
		t.Fatalf("Analyze(%q, %q).Relations():\n got %+v\nwant %+v", title, text, got, want)
	}
	if !a.Of(ext, text) || a.Of(ext, text+" ") || a.Of(NewFromModel(ext.Model(), nil), text) {
		t.Fatal("Of does not tell the analysis's extractor and text from others")
	}
}

// What makes the body's sentences differ between the two texts, one case
// each, on texts where the difference decides an output.
func TestAnalyzeHazards(t *testing.T) {
	ext := webExtractor(t)
	body := "The Emotet trojan connects to 10.1.2.3 and downloads http://bad.example.com/a.bin. " +
		"It drops C:\\Users\\Public\\x.exe on the host. Operators of Emotet exploit CVE-2019-0708 against Windows."
	for _, c := range []struct{ name, title, text string }{
		{"plain title", "Emotet returns with a new loader", body},
		// One IOC in the title: every ordinal of the body moves up by one.
		{"IOC in title", "CVE-2019-0708 exploited in the wild by Emotet", body},
		{"IOCs in title", "CVE-2019-0708 and 10.9.9.9: Emotet at evil.example.com", body},
		// The title's period does not end a sentence: after an abbreviation,
		// before a lowercase word, before a placeholder (lowercase too).
		{"title ends in abbreviation", "Emotet analysis by Acme Inc", body},
		{"body starts lowercase", "Emotet", "emotet connects to 10.1.2.3. " + body},
		{"body starts with an IOC", "Emotet and CVE-2019-0708", "10.1.2.3 serves Emotet. " + body},
		// A title entity must not reach the body's consistency pass.
		{"entity only in title", "Duskbot ransomware hits banks",
			"The Duskbot ransomware spread. Later Duskbot contacted 10.1.2.3. " + body},
		// Placeholder-shaped words in the source.
		{"literal placeholder words", "iocterm_0000 explained",
			"iocterm_0001 is not an IOC but 10.1.2.3 is. iocterm_0000 used Mimikatz. " + body},
		// The same protected sentence, a placeholder under the title's count
		// of IOCs and a plain word under the body's.
		{"placeholder word under one count only", "CVE-2019-0708 explained",
			"Emotet connects to iocterm_0001 daily. Emotet downloads from 10.1.2.3."},
		{"repeated sentences", "Emotet", "Emotet connects to 10.1.2.3. Emotet connects to 10.1.2.3. Emotet connects to 10.1.2.4."},
		{"defanged", "hxxp://bad[.]example[.]com/a serves Emotet", "Emotet beacons to 10[.]1[.]2[.]3 daily. " + body},
		{"empty body", "Emotet", ""},
		{"empty title", "", body},
		{"both empty", "", ""},
		{"blank lines", "Emotet\n\n", "\n\nEmotet connects to 10.1.2.3.\n\nIt stops.\n"},
	} {
		t.Run(c.name, func(t *testing.T) { checkAnalyze(t, ext, c.title, c.text) })
	}
}

func TestAnalyzeMatchesTwoCallsOnSyntheticWeb(t *testing.T) {
	ext := webExtractor(t)
	specs := sources.DefaultSources(2)
	for seed := int64(1); seed <= 3; seed++ {
		web := sources.NewWeb(seed, specs)
		for _, spec := range specs {
			for i := 0; i < spec.Reports; i++ {
				tr := web.GenerateTruth(spec, i)
				checkAnalyze(t, ext, tr.Title, strings.Join(tr.Paragraphs, "\n"))
			}
		}
	}
}

// Titles and bodies assembled at random from pieces that end and start in
// every way the hazards above do.
func TestAnalyzeMatchesTwoCallsOnRandomReports(t *testing.T) {
	ext := webExtractor(t)
	pieces := []string{
		"Emotet connects to 10.1.2.3", "the Lazarus Group deployed Mimikatz", "CVE-2019-0708 is exploited by Emotet",
		"10.4.4.4 hosts the payload", "it drops C:\\Temp\\a b\\x.exe", "Researchers at Acme Inc", "see e.g",
		"iocterm_0000 and iocterm_0002", "Duskbot ransomware spread via phishing", "Duskbot contacted evil.example.com",
		"http://bad.example.com:123456", "HKLM\\Software\\Run was modified by Emotet", "mail admin@evil.example.com",
		"APT28 used PowerShell", "The U.S", "hxxp://bad[.]site/x", "a", "",
	}
	seps := []string{". ", ".\n", "\n", "\n\n", " ", "! ", "? ", ", ", "; ", ".", ": "}
	rng := rand.New(rand.NewSource(11))
	build := func(n int) string {
		var sb strings.Builder
		for i := 0; i < n; i++ {
			sb.WriteString(pieces[rng.Intn(len(pieces))])
			sb.WriteString(seps[rng.Intn(len(seps))])
		}
		return sb.String()
	}
	for trial := 0; trial < 400; trial++ {
		checkAnalyze(t, ext, strings.TrimRight(build(rng.Intn(3)), ". \n"), build(rng.Intn(9)))
	}
}
