// Package textproc implements the natural-language preprocessing substrate
// SecurityKG's extractors depend on: tokenization, sentence segmentation,
// part-of-speech tagging, lemmatization, and word-shape features.
//
// The paper notes that security text is full of nuances (dots, underscores
// and other special characters inside IOCs) that break generic NLP modules.
// SecurityKG solves that with "IOC protection" (package ioc): IOCs are
// replaced with plain placeholder words before this package runs and
// restored afterwards, so everything here may assume mostly well-formed
// English tokens.
package textproc

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Token is one tokenized unit of text with its byte span in the original
// string and the linguistic annotations filled in by the tagging passes.
type Token struct {
	Text  string // surface form
	Start int    // byte offset of first byte in the source text
	End   int    // byte offset one past the last byte
	POS   string // Penn-style part-of-speech tag (after Tag)
	Lemma string // lemmatized form (after Lemmatize)
	Shape string // word shape, e.g. "Xxxx", "dd.dd" (after Shapes)
}

// IsPunct reports whether the token is pure punctuation.
func (t Token) IsPunct() bool {
	for _, r := range t.Text {
		if !unicode.IsPunct(r) && !unicode.IsSymbol(r) {
			return false
		}
	}
	return len(t.Text) > 0
}

// Tokenize splits text into word, number, and punctuation tokens with byte
// offsets. Contractions are kept whole ("don't"), hyphenated compounds are
// kept whole ("command-and-control"), and runs of identical punctuation
// ("..." or "--") form a single token. Underscore is treated as a word
// character so protected placeholders and identifiers survive intact.
func Tokenize(text string) []Token {
	// Report prose runs about six bytes a token with its space, and rarely
	// under four: one allocation almost always holds every token.
	toks := make([]Token, 0, len(text)/4+1)
	i := 0
	n := len(text)
	for i < n {
		r := rune(text[i])
		switch {
		case r < 128 && (unicode.IsSpace(r)):
			i++
		case isWordByte(text[i]):
			j := i + 1
			for j < n {
				if isWordByte(text[j]) {
					j++
					continue
				}
				// Keep internal apostrophes, hyphens and periods between
				// word characters: "don't", "anti-virus", "U.S." — but a
				// period followed by space/end is sentence punctuation.
				if (text[j] == '\'' || text[j] == '-' || text[j] == '.') &&
					j+1 < n && isWordByte(text[j+1]) {
					j += 2
					continue
				}
				// Keep thousands separators inside numbers: "120,000".
				if text[j] == ',' && j+1 < n && isDigitByte(text[j-1]) && isDigitByte(text[j+1]) {
					j += 2
					continue
				}
				break
			}
			toks = append(toks, Token{Text: text[i:j], Start: i, End: j})
			i = j
		case r >= 128:
			// Non-ASCII: take the full rune sequence of letters.
			j := i
			for j < n && text[j] >= 128 {
				j++
			}
			toks = append(toks, Token{Text: text[i:j], Start: i, End: j})
			i = j
		default:
			// Punctuation: group runs of the same character.
			j := i + 1
			for j < n && text[j] == text[i] {
				j++
			}
			toks = append(toks, Token{Text: text[i:j], Start: i, End: j})
			i = j
		}
	}
	return toks
}

func isWordByte(b byte) bool {
	return b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z' ||
		b >= '0' && b <= '9' || b == '_'
}

func isDigitByte(b byte) bool { return b >= '0' && b <= '9' }

// abbreviations that should not terminate a sentence even though they end
// with a period.
var abbreviations = map[string]bool{
	"e.g": true, "i.e": true, "etc": true, "vs": true, "cf": true,
	"dr": true, "mr": true, "mrs": true, "ms": true, "prof": true,
	"inc": true, "ltd": true, "co": true, "corp": true, "fig": true,
	"no": true, "vol": true, "ver": true, "approx": true, "dept": true,
	"est": true, "jan": true, "feb": true, "mar": true, "apr": true,
	"jun": true, "jul": true, "aug": true, "sep": true, "sept": true,
	"oct": true, "nov": true, "dec": true, "u.s": true, "u.k": true,
}

// Sentence is a span of text (byte offsets into the source).
type Sentence struct {
	Start int
	End   int
	Text  string
}

// SplitSentences segments text into sentences. A sentence ends at '.', '!',
// or '?' when followed by whitespace and an uppercase letter, digit or end
// of text, unless the preceding word is a known abbreviation or a single
// capital initial. Newpara breaks (blank lines) always end a sentence.
func SplitSentences(text string) []Sentence {
	var out []Sentence
	start := 0
	n := len(text)
	flush := func(end int) {
		seg := strings.TrimSpace(text[start:end])
		if seg != "" {
			// Recompute trimmed offsets.
			s := start
			for s < end && unicode.IsSpace(rune(text[s])) {
				s++
			}
			e := end
			for e > s && unicode.IsSpace(rune(text[e-1])) {
				e--
			}
			out = append(out, Sentence{Start: s, End: e, Text: text[s:e]})
		}
		start = end
	}
	for i := 0; i < n; i++ {
		c := text[i]
		if c == '\n' {
			// Paragraph break: blank line.
			j := i + 1
			sawBlank := false
			for j < n && (text[j] == ' ' || text[j] == '\t' || text[j] == '\r') {
				j++
			}
			if j < n && text[j] == '\n' {
				sawBlank = true
			}
			if sawBlank || j >= n {
				flush(i)
			}
			continue
		}
		if c != '.' && c != '!' && c != '?' {
			continue
		}
		// Consume a run of terminal punctuation.
		j := i
		for j+1 < n && (text[j+1] == '.' || text[j+1] == '!' || text[j+1] == '?' || text[j+1] == '"' || text[j+1] == ')') {
			j++
		}
		if j+1 >= n {
			flush(n)
			i = j
			continue
		}
		if text[j+1] != ' ' && text[j+1] != '\t' && text[j+1] != '\n' {
			continue // mid-token period (version numbers, filenames)
		}
		if c == '.' {
			w := precedingWord(text, i)
			lw := strings.ToLower(w)
			if abbreviations[lw] || (len(w) == 1 && w[0] >= 'A' && w[0] <= 'Z') {
				continue
			}
		}
		// Peek the next non-space character.
		k := j + 1
		for k < n && (text[k] == ' ' || text[k] == '\t' || text[k] == '\n' || text[k] == '\r') {
			k++
		}
		if k >= n {
			flush(n)
			i = n
			break
		}
		nr := rune(text[k])
		if unicode.IsUpper(nr) || unicode.IsDigit(nr) || nr == '"' || nr == '\'' {
			flush(j + 1)
			i = j
		}
	}
	flush(n)
	return out
}

func precedingWord(text string, i int) string {
	j := i
	for j > 0 {
		b := text[j-1]
		if isWordByte(b) || b == '.' && j >= 2 && isWordByte(text[j-2]) {
			j--
			continue
		}
		break
	}
	return text[j:i]
}

// Shapes fills the Shape field of every token. The shape maps uppercase
// letters to 'X', lowercase to 'x', digits to 'd', and keeps other
// characters; runs longer than 4 are truncated so "Mimikatz" and
// "Powershell" share the shape "Xxxxx" -> "Xxxx+"-style generalization.
func Shapes(toks []Token) {
	for i := range toks {
		toks[i].Shape = Shape(toks[i].Text)
	}
}

// Shape computes the word shape of a single string.
func Shape(s string) string {
	// An ASCII string shapes byte for byte into at most as many bytes.
	var buf [64]byte
	if len(s) > len(buf) {
		return shapeRunes(s)
	}
	n, run := 0, 0
	var last byte
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= utf8.RuneSelf:
			return shapeRunes(s)
		case 'A' <= c && c <= 'Z':
			c = 'X'
		case 'a' <= c && c <= 'z':
			c = 'x'
		case '0' <= c && c <= '9':
			c = 'd'
		}
		if c == last {
			run++
			if run > 4 {
				continue
			}
		} else {
			run = 1
			last = c
		}
		buf[n] = c
		n++
	}
	return string(buf[:n])
}

// shapeRunes is Shape over any string, rune by rune.
func shapeRunes(s string) string {
	var b strings.Builder
	var last rune
	run := 0
	for _, r := range s {
		var c rune
		switch {
		case unicode.IsUpper(r):
			c = 'X'
		case unicode.IsLower(r):
			c = 'x'
		case unicode.IsDigit(r):
			c = 'd'
		default:
			c = r
		}
		if c == last {
			run++
			if run > 4 {
				continue
			}
		} else {
			run = 1
			last = c
		}
		b.WriteRune(c)
	}
	return b.String()
}
