package textproc

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func tokenTexts(toks []Token) []string {
	out := make([]string, len(toks))
	for i, t := range toks {
		out[i] = t.Text
	}
	return out
}

func TestTokenizeBasic(t *testing.T) {
	toks := Tokenize("The malware dropped a file.")
	want := []string{"The", "malware", "dropped", "a", "file", "."}
	got := tokenTexts(toks)
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestTokenizeOffsetsRoundTrip(t *testing.T) {
	src := "WannaCry encrypts files, then demands $300 in bitcoin!"
	for _, tok := range Tokenize(src) {
		if src[tok.Start:tok.End] != tok.Text {
			t.Errorf("offset mismatch: %q vs src[%d:%d]=%q",
				tok.Text, tok.Start, tok.End, src[tok.Start:tok.End])
		}
	}
}

func TestTokenizeKeepsContractionsAndHyphens(t *testing.T) {
	toks := tokenTexts(Tokenize("don't use command-and-control servers"))
	want := []string{"don't", "use", "command-and-control", "servers"}
	if strings.Join(toks, "|") != strings.Join(want, "|") {
		t.Errorf("got %v, want %v", toks, want)
	}
}

func TestTokenizeKeepsUnderscoreWordsWhole(t *testing.T) {
	// IOC protection replaces IOCs with placeholder words that can contain
	// underscores; the tokenizer must not split them.
	toks := tokenTexts(Tokenize("process accessed IOCPROTECTED_0007 yesterday"))
	found := false
	for _, tk := range toks {
		if tk == "IOCPROTECTED_0007" {
			found = true
		}
	}
	if !found {
		t.Errorf("placeholder token was split: %v", toks)
	}
}

func TestTokenizeInternalDots(t *testing.T) {
	toks := tokenTexts(Tokenize("Version 2.1.7 was observed. Next sentence."))
	joined := strings.Join(toks, "|")
	if !strings.Contains(joined, "2.1.7") {
		t.Errorf("version number split apart: %v", toks)
	}
}

func TestTokenizePunctuationRuns(t *testing.T) {
	toks := tokenTexts(Tokenize("Wait... what?!"))
	want := []string{"Wait", "...", "what", "?", "!"}
	if strings.Join(toks, "|") != strings.Join(want, "|") {
		t.Errorf("got %v, want %v", toks, want)
	}
}

func TestTokenizeEmptyAndWhitespace(t *testing.T) {
	if got := Tokenize(""); len(got) != 0 {
		t.Errorf("empty input produced tokens: %v", got)
	}
	if got := Tokenize("   \n\t  "); len(got) != 0 {
		t.Errorf("whitespace produced tokens: %v", got)
	}
}

func TestSplitSentencesBasic(t *testing.T) {
	text := "The trojan connects to its server. It then downloads a payload. Analysts observed this in March."
	sents := SplitSentences(text)
	if len(sents) != 3 {
		t.Fatalf("expected 3 sentences, got %d: %+v", len(sents), sents)
	}
	if !strings.HasPrefix(sents[1].Text, "It then") {
		t.Errorf("second sentence wrong: %q", sents[1].Text)
	}
}

func TestSplitSentencesAbbreviations(t *testing.T) {
	text := "Tools e.g. scanners were used. A second attack followed."
	sents := SplitSentences(text)
	if len(sents) != 2 {
		t.Fatalf("abbreviation split wrongly: %d sentences %+v", len(sents), sents)
	}
}

func TestSplitSentencesOffsets(t *testing.T) {
	text := "First sentence here. Second one there!"
	for _, s := range SplitSentences(text) {
		if text[s.Start:s.End] != s.Text {
			t.Errorf("offset mismatch: %q vs %q", s.Text, text[s.Start:s.End])
		}
	}
}

func TestSplitSentencesParagraphBreak(t *testing.T) {
	text := "Heading without period\n\nBody sentence follows here"
	sents := SplitSentences(text)
	if len(sents) != 2 {
		t.Fatalf("paragraph break not honored: %d sentences: %+v", len(sents), sents)
	}
}

func TestShape(t *testing.T) {
	cases := map[string]string{
		"WannaCry": "XxxxxXxx",
		"malware":  "xxxx",
		"CVE":      "XXX",
		"12345678": "dddd",
		"Ab3":      "Xxd",
		"a.b":      "x.x",
	}
	for in, want := range cases {
		if got := Shape(in); got != want {
			t.Errorf("Shape(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestTagClosedClass(t *testing.T) {
	toks := Annotate("The malware will connect to the server")
	byText := map[string]string{}
	for _, tk := range toks {
		byText[tk.Text] = tk.POS
	}
	if byText["The"] != TagDT {
		t.Errorf("The tagged %s", byText["The"])
	}
	if byText["will"] != TagMD {
		t.Errorf("will tagged %s", byText["will"])
	}
	if byText["connect"] != TagVB {
		t.Errorf("connect after modal tagged %s, want VB", byText["connect"])
	}
	if byText["to"] != TagTO {
		t.Errorf("to tagged %s", byText["to"])
	}
}

func TestTagVerbMorphology(t *testing.T) {
	toks := Annotate("The malware dropped files and encrypts documents while spreading quickly")
	byText := map[string]string{}
	for _, tk := range toks {
		byText[tk.Text] = tk.POS
	}
	if byText["dropped"] != TagVBD {
		t.Errorf("dropped tagged %s, want VBD", byText["dropped"])
	}
	if byText["encrypts"] != TagVBZ {
		t.Errorf("encrypts tagged %s, want VBZ", byText["encrypts"])
	}
	if byText["spreading"] != TagVBG {
		t.Errorf("spreading tagged %s, want VBG", byText["spreading"])
	}
	if byText["quickly"] != TagRB {
		t.Errorf("quickly tagged %s, want RB", byText["quickly"])
	}
}

func TestTagProperNounMidSentence(t *testing.T) {
	toks := Annotate("Researchers attributed Emotet to the group")
	var emotet string
	for _, tk := range toks {
		if tk.Text == "Emotet" {
			emotet = tk.POS
		}
	}
	if emotet != TagNNP {
		t.Errorf("Emotet tagged %s, want NNP", emotet)
	}
}

func TestTagNumbers(t *testing.T) {
	toks := Annotate("Over 120,000 reports and 3.5 million samples")
	count := 0
	for _, tk := range toks {
		if tk.POS == TagCD {
			count++
		}
	}
	if count != 2 {
		t.Errorf("expected 2 CD tokens, got %d: %+v", count, toks)
	}
}

func TestLemmaIrregulars(t *testing.T) {
	cases := []struct{ word, pos, want string }{
		{"sent", TagVBD, "send"},
		{"was", TagVBD, "be"},
		{"written", TagVBN, "write"},
		{"stole", TagVBD, "steal"},
		{"vulnerabilities", TagNNS, "vulnerability"},
		{"families", TagNNS, "family"},
	}
	for _, c := range cases {
		if got := Lemma(c.word, c.pos); got != c.want {
			t.Errorf("Lemma(%q,%s) = %q, want %q", c.word, c.pos, got, c.want)
		}
	}
}

func TestLemmaRegularMorphology(t *testing.T) {
	cases := []struct{ word, pos, want string }{
		{"drops", TagVBZ, "drop"},
		{"dropped", TagVBD, "drop"},
		{"dropping", TagVBG, "drop"},
		{"uses", TagVBZ, "use"},
		{"using", TagVBG, "use"},
		{"encrypted", TagVBN, "encrypt"},
		{"connects", TagVBZ, "connect"},
		{"files", TagNNS, "file"},
		{"servers", TagNNS, "server"},
		{"patches", TagVBZ, "patch"},
	}
	for _, c := range cases {
		if got := Lemma(c.word, c.pos); got != c.want {
			t.Errorf("Lemma(%q,%s) = %q, want %q", c.word, c.pos, got, c.want)
		}
	}
}

func TestAnnotatePipelineFillsAllFields(t *testing.T) {
	toks := Annotate("The worm spreads rapidly.")
	for _, tk := range toks {
		if tk.POS == "" {
			t.Errorf("token %q missing POS", tk.Text)
		}
		if tk.Lemma == "" {
			t.Errorf("token %q missing lemma", tk.Text)
		}
		if tk.Shape == "" {
			t.Errorf("token %q missing shape", tk.Text)
		}
	}
}

func TestIsVerbIsNounTag(t *testing.T) {
	for _, v := range []string{TagVB, TagVBD, TagVBG, TagVBN, TagVBZ, TagVBP} {
		if !IsVerbTag(v) {
			t.Errorf("%s should be a verb tag", v)
		}
	}
	for _, n := range []string{TagNN, TagNNS, TagNNP} {
		if IsVerbTag(n) {
			t.Errorf("%s should not be a verb tag", n)
		}
		if !IsNounTag(n) {
			t.Errorf("%s should be a noun tag", n)
		}
	}
}

// Property: tokenization never loses non-whitespace bytes — concatenating
// token texts yields the input with whitespace removed (ASCII inputs).
func TestTokenizeLosslessQuick(t *testing.T) {
	f := func(words []uint16) bool {
		var sb strings.Builder
		for _, w := range words {
			// Build printable ASCII strings from fuzz input.
			sb.WriteByte(byte('a' + w%26))
			if w%7 == 0 {
				sb.WriteByte(' ')
			}
			if w%11 == 0 {
				sb.WriteByte('.')
			}
		}
		src := sb.String()
		var joined strings.Builder
		for _, tok := range Tokenize(src) {
			joined.WriteString(tok.Text)
		}
		stripped := strings.Map(func(r rune) rune {
			if r == ' ' {
				return -1
			}
			return r
		}, src)
		return joined.String() == stripped
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: token spans are non-overlapping and strictly increasing.
func TestTokenizeSpansMonotonicQuick(t *testing.T) {
	f := func(s string) bool {
		prevEnd := -1
		for _, tok := range Tokenize(s) {
			if tok.Start < prevEnd || tok.End <= tok.Start {
				return false
			}
			prevEnd = tok.End
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestShapeASCIIMatchesRunes holds Shape's byte-wise ASCII path to the
// rune path on random and edge strings: empty, runs longer than four,
// longer than the 64-byte buffer, non-ASCII anywhere, punctuation and
// control bytes.
func TestShapeASCIIMatchesRunes(t *testing.T) {
	cases := []string{"", "a", "A", "0", ".", "\x00", "\x00\x00\x00\x00\x00\x00",
		"Mimikatz", "POWERSHELL", "1234567890", "-----", "U.S.", "CVE-2017-0144",
		"x_y_z", "don't", strings.Repeat("a", 64), strings.Repeat("a", 65),
		strings.Repeat("aB3.", 16), strings.Repeat("aB3.", 16) + "x",
		"café", "Ünïcode", "İstanbul", "Ⱥx", "\xe9\xe9", "日本語", strings.Repeat("z", 63) + "é"}
	const alphabet = "aAzZ09_.-'/\\ \t\x00\x7f!~Xxd"
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 3000; i++ {
		b := make([]byte, rng.Intn(80))
		for j := range b {
			b[j] = alphabet[rng.Intn(len(alphabet))]
		}
		if rng.Intn(8) == 0 && len(b) > 0 {
			b[rng.Intn(len(b))] = byte(128 + rng.Intn(128))
		}
		cases = append(cases, string(b))
	}
	for _, s := range cases {
		if got, want := Shape(s), shapeRunes(s); got != want {
			t.Fatalf("Shape(%q) = %q, rune path %q", s, got, want)
		}
	}
}
