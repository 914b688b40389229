// Package htmlparse implements the HTML substrate SecurityKG's
// source-dependent parsers need: a tokenizer, a lenient DOM tree builder,
// a small CSS-like selector engine, and text extraction. The paper's
// parsers "take advantage of prior knowledge of the source website
// structure and extract keys and values from report files" — that requires
// structured access to tags, attributes, and text.
package htmlparse

import "strings"

// TokenType classifies a lexical HTML token.
type TokenType int

const (
	TokenText TokenType = iota
	TokenStartTag
	TokenEndTag
	TokenSelfClosing
	TokenComment
	TokenDoctype
)

// Token is one lexical token from the HTML input.
type Token struct {
	Type  TokenType
	Data  string            // tag name (lowercased) or text content
	Attrs map[string]string // attributes for start/self-closing tags
}

// rawTextTags are elements whose content is raw text until the matching
// close tag (no nested markup).
var rawTextTags = map[string]bool{"script": true, "style": true, "textarea": true, "title": true}

// voidTags never have closing tags in HTML.
var voidTags = map[string]bool{
	"area": true, "base": true, "br": true, "col": true, "embed": true,
	"hr": true, "img": true, "input": true, "link": true, "meta": true,
	"param": true, "source": true, "track": true, "wbr": true,
}

// Tokenize lexes HTML into a token stream. It is deliberately lenient:
// malformed constructs degrade to text rather than failing, because real
// OSCTI pages are messy.
func Tokenize(html string) []Token {
	var toks []Token
	i, n := 0, len(html)
	emitText := func(s string) {
		if s != "" {
			toks = append(toks, Token{Type: TokenText, Data: DecodeEntities(s)})
		}
	}
	for i < n {
		lt := strings.IndexByte(html[i:], '<')
		if lt < 0 {
			emitText(html[i:])
			break
		}
		emitText(html[i : i+lt])
		i += lt
		if i+1 >= n {
			emitText(html[i:])
			break
		}
		switch {
		case strings.HasPrefix(html[i:], "<!--"):
			end := strings.Index(html[i+4:], "-->")
			if end < 0 {
				toks = append(toks, Token{Type: TokenComment, Data: html[i+4:]})
				i = n
			} else {
				toks = append(toks, Token{Type: TokenComment, Data: html[i+4 : i+4+end]})
				i += 4 + end + 3
			}
		case html[i+1] == '!' || html[i+1] == '?':
			end := strings.IndexByte(html[i:], '>')
			if end < 0 {
				i = n
			} else {
				toks = append(toks, Token{Type: TokenDoctype, Data: html[i+2 : i+end]})
				i += end + 1
			}
		case html[i+1] == '/':
			end := strings.IndexByte(html[i:], '>')
			if end < 0 {
				emitText(html[i:])
				i = n
			} else {
				name := strings.ToLower(strings.TrimSpace(html[i+2 : i+end]))
				toks = append(toks, Token{Type: TokenEndTag, Data: name})
				i += end + 1
			}
		case isTagNameStart(html[i+1]):
			tok, next := lexStartTag(html, i)
			toks = append(toks, tok)
			i = next
			if tok.Type == TokenStartTag && rawTextTags[tok.Data] {
				// Consume raw text until the matching close tag.
				idx := indexCloseTag(html[i:], tok.Data)
				if idx < 0 {
					emitText(html[i:])
					i = n
					break
				}
				if idx > 0 {
					toks = append(toks, Token{Type: TokenText, Data: html[i : i+idx]})
				}
				gt := strings.IndexByte(html[i+idx:], '>')
				toks = append(toks, Token{Type: TokenEndTag, Data: tok.Data})
				if gt < 0 {
					i = n
				} else {
					i += idx + gt + 1
				}
			}
		default:
			// A lone '<' that starts no tag: literal text.
			emitText("<")
			i++
		}
	}
	return toks
}

func isTagNameStart(b byte) bool {
	return b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z'
}

// lexStartTag parses "<name attr=val ...>" starting at i (html[i]=='<').
func lexStartTag(html string, i int) (Token, int) {
	n := len(html)
	j := i + 1
	for j < n && (isTagNameStart(html[j]) || html[j] >= '0' && html[j] <= '9') {
		j++
	}
	name := strings.ToLower(html[i+1 : j])
	attrs := map[string]string{}
	selfClose := false
	for j < n {
		for j < n && (html[j] == ' ' || html[j] == '\t' || html[j] == '\n' || html[j] == '\r') {
			j++
		}
		if j >= n {
			break
		}
		if html[j] == '>' {
			j++
			break
		}
		if html[j] == '/' {
			selfClose = true
			j++
			continue
		}
		// Attribute name.
		as := j
		for j < n && html[j] != '=' && html[j] != '>' && html[j] != ' ' &&
			html[j] != '\t' && html[j] != '\n' && html[j] != '/' {
			j++
		}
		aname := strings.ToLower(html[as:j])
		aval := ""
		if j < n && html[j] == '=' {
			j++
			if j < n && (html[j] == '"' || html[j] == '\'') {
				q := html[j]
				j++
				vs := j
				for j < n && html[j] != q {
					j++
				}
				aval = html[vs:j]
				if j < n {
					j++
				}
			} else {
				vs := j
				for j < n && html[j] != ' ' && html[j] != '>' && html[j] != '\t' && html[j] != '\n' {
					j++
				}
				aval = html[vs:j]
			}
		}
		if aname != "" {
			attrs[aname] = DecodeEntities(aval)
		}
	}
	tt := TokenStartTag
	if selfClose || voidTags[name] {
		tt = TokenSelfClosing
	}
	return Token{Type: tt, Data: name, Attrs: attrs}, j
}

// indexCloseTag returns the index in s of the first "</" followed by the
// ASCII tag name in any case, or -1. It searches s itself: a lowered copy
// would not keep s's byte offsets, since lowering changes the length of
// invalid bytes and of some runes.
func indexCloseTag(s, name string) int {
	for i := 0; ; i++ {
		j := strings.Index(s[i:], "</")
		if j < 0 {
			return -1
		}
		i += j
		if end := i + 2 + len(name); end <= len(s) && strings.EqualFold(s[i+2:end], name) {
			return i
		}
	}
}

var entityTable = map[string]string{
	"amp": "&", "lt": "<", "gt": ">", "quot": `"`, "apos": "'",
	"nbsp": " ", "copy": "©", "reg": "®", "trade": "™", "hellip": "…",
	"mdash": "—", "ndash": "–", "lsquo": "'", "rsquo": "'",
	"ldquo": "“", "rdquo": "”", "bull": "•", "middot": "·",
}

// DecodeEntities resolves named and numeric character references.
func DecodeEntities(s string) string {
	if !strings.ContainsRune(s, '&') {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); {
		if s[i] != '&' {
			b.WriteByte(s[i])
			i++
			continue
		}
		semi := strings.IndexByte(s[i:], ';')
		if semi < 0 || semi > 10 {
			b.WriteByte('&')
			i++
			continue
		}
		ent := s[i+1 : i+semi]
		if strings.HasPrefix(ent, "#") {
			var code int
			ok := true
			if len(ent) > 1 && (ent[1] == 'x' || ent[1] == 'X') {
				for _, c := range ent[2:] {
					switch {
					case c >= '0' && c <= '9':
						code = code*16 + int(c-'0')
					case c >= 'a' && c <= 'f':
						code = code*16 + int(c-'a'+10)
					case c >= 'A' && c <= 'F':
						code = code*16 + int(c-'A'+10)
					default:
						ok = false
					}
				}
			} else {
				for _, c := range ent[1:] {
					if c < '0' || c > '9' {
						ok = false
						break
					}
					code = code*10 + int(c-'0')
				}
			}
			if ok && code > 0 && code <= 0x10FFFF {
				b.WriteRune(rune(code))
				i += semi + 1
				continue
			}
		}
		if rep, ok := entityTable[ent]; ok {
			b.WriteString(rep)
			i += semi + 1
			continue
		}
		b.WriteByte('&')
		i++
	}
	return b.String()
}
