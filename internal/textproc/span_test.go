package textproc

import (
	"math/rand"
	"reflect"
	"testing"
	"unicode"
)

// referenceTokenize is Tokenize as it was before NextSpan: one loop that
// appends each token as it finds it. Tokenize must still give its output.
func referenceTokenize(text string) []Token {
	var toks []Token
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
				if (text[j] == '\'' || text[j] == '-' || text[j] == '.') &&
					j+1 < n && isWordByte(text[j+1]) {
					j += 2
					continue
				}
				if text[j] == ',' && j+1 < n && isDigitByte(text[j-1]) && isDigitByte(text[j+1]) {
					j += 2
					continue
				}
				break
			}
			toks = append(toks, Token{Text: text[i:j], Start: i, End: j})
			i = j
		case r >= 128:
			j := i
			for j < n && text[j] >= 128 {
				j++
			}
			toks = append(toks, Token{Text: text[i:j], Start: i, End: j})
			i = j
		default:
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

// Random texts over the bytes the span rules look at: word bytes, the
// joiners ' - . ,, digits, whitespace, punctuation runs and UTF-8 and
// invalid high bytes.
func TestTokenizeMatchesReference(t *testing.T) {
	alphabet := []string{"a", "Z", "_", "7", "0", "'", "-", ".", ",", " ", "\t", "\n", "\r", "\v",
		"!", "!", "(", ")", "$", "é", "\xe9", "\xc3", "Ü", "IOCPROTECTED_0001", "U.S.", "120,000"}
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 20000; k++ {
		var b []byte
		for n := rng.Intn(24); n > 0; n-- {
			b = append(b, alphabet[rng.Intn(len(alphabet))]...)
		}
		text := string(b)
		got, want := Tokenize(text), referenceTokenize(text)
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Tokenize(%q):\n got %+v\nwant %+v", text, got, want)
		}
	}
}
