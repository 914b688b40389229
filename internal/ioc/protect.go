package ioc

import (
	"strconv"
	"strings"
)

// Protection records the IOC spans replaced by placeholder words so the
// original values can be restored after tokenization-based processing —
// the "IOC protection" method of the paper (Section 2.4).
type Protection struct {
	// Protected is the text with every IOC replaced by a placeholder word.
	Protected string
	// text is the refanged text Protected was built from.
	text string
	// matches are the replaced IOCs in text order; the placeholder with
	// ordinal i stands for matches[i].
	matches []Match
}

// A placeholder word is PlaceholderPrefix followed by the IOC's ordinal,
// zero-padded to four digits. Underscore keeps it a single token through
// tokenization, and the stable prefix makes restored lookup exact.
const PlaceholderPrefix = "iocterm_"

func appendPlaceholder(b []byte, i int) []byte {
	b = append(b, PlaceholderPrefix...)
	for pad := 1000; pad > 1 && i < pad; pad /= 10 {
		b = append(b, '0')
	}
	return strconv.AppendInt(b, int64(i), 10)
}

// placeholderAt parses the placeholder word at the start of s, one of the
// count words appendPlaceholder spells. Where one word is a prefix of
// another (iocterm_1000, iocterm_10000) it reads the longest. It returns
// the ordinal and the word's length.
func placeholderAt(s string, count int) (ord, n int, ok bool) {
	if !strings.HasPrefix(s, PlaceholderPrefix) {
		return 0, 0, false
	}
	digits := s[len(PlaceholderPrefix):]
	v := 0
	for i := 0; i < len(digits) && digits[i] >= '0' && digits[i] <= '9'; i++ {
		if v = v*10 + int(digits[i]-'0'); v >= count || i >= 4 && digits[0] == '0' {
			break
		}
		if i >= 3 {
			ord, n, ok = v, len(PlaceholderPrefix)+i+1, true
		}
	}
	return ord, n, ok
}

// Protect scans text for IOCs and replaces each with a placeholder word.
// It returns the protection record; the original (refanged) text is
// recoverable via Restore.
func Protect(text string) *Protection {
	matches, rf := Scan(text)
	return protect(rf, matches)
}

func protect(rf string, matches []Match) *Protection {
	p := &Protection{Protected: rf, text: rf, matches: matches}
	if len(matches) == 0 {
		return p
	}
	b := make([]byte, 0, len(rf))
	prev := 0
	for i, m := range matches {
		b = append(b, rf[prev:m.Start]...)
		b = appendPlaceholder(b, i)
		prev = m.End
	}
	b = append(b, rf[prev:]...)
	p.Protected = string(b)
	return p
}

// From returns the protection of the text from byte off of the refanged
// text on, which must follow a newline. No IOC pattern matches or looks
// across a newline, so the result is what Protect gives for that text
// alone: the IOCs at or after off, their ordinals counted from zero.
func (p *Protection) From(off int) *Protection {
	i := 0
	for i < len(p.matches) && p.matches[i].Start < off {
		i++
	}
	matches := make([]Match, len(p.matches)-i)
	for j, m := range p.matches[i:] {
		m.Start -= off
		m.End -= off
		matches[j] = m
	}
	return protect(p.text[off:], matches)
}

// Len returns the number of protected IOCs.
func (p *Protection) Len() int { return len(p.matches) }

// IsPlaceholder reports whether the token is one of this protection's
// placeholder words, returning the underlying IOC match if so.
func (p *Protection) IsPlaceholder(token string) (Match, bool) {
	ord, n, ok := placeholderAt(token, len(p.matches))
	if !ok || n != len(token) {
		return Match{}, false
	}
	return p.matches[ord], true
}

// Matches returns the protected IOC matches in text order.
func (p *Protection) Matches() []Match {
	return append([]Match(nil), p.matches...)
}

// Restore replaces placeholder words in s with their original IOC values.
// s may be any text derived from Protected (for example a detokenized
// sentence); every placeholder occurrence is substituted, the longest word
// that fits at each.
func (p *Protection) Restore(s string) string {
	if m, ok := p.IsPlaceholder(s); ok {
		return m.Value
	}
	i := strings.Index(s, PlaceholderPrefix)
	if i < 0 || len(p.matches) == 0 {
		return s
	}
	var b strings.Builder
	for {
		b.WriteString(s[:i])
		if ord, n, ok := placeholderAt(s[i:], len(p.matches)); ok {
			b.WriteString(p.matches[ord].Value)
			s = s[i+n:]
		} else {
			b.WriteString(PlaceholderPrefix)
			s = s[i+len(PlaceholderPrefix):]
		}
		if i = strings.Index(s, PlaceholderPrefix); i < 0 {
			b.WriteString(s)
			return b.String()
		}
	}
}
