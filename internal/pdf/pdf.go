// Package pdf implements the minimal PDF substrate the pipeline needs:
// a writer that renders plain text into valid single- or multi-page PDF
// 1.4 files (used by the synthetic OSCTI web for PDF report sources) and
// a text extractor that recovers the text from such files (used by the
// PDF porter). Content streams are uncompressed; the extractor handles
// BT/ET text objects with Tj and TJ operators and escape sequences.
package pdf

import (
	"fmt"
	"strings"
)

// Generate renders lines of text into a PDF document. Lines are wrapped
// naively at maxLineLen characters; pages break every linesPerPage lines.
func Generate(title string, paragraphs []string) []byte {
	const (
		maxLineLen   = 90
		linesPerPage = 48
	)
	var lines []string
	if title != "" {
		lines = append(lines, title, "")
	}
	for _, p := range paragraphs {
		lines = append(lines, wrap(p, maxLineLen)...)
		lines = append(lines, "")
	}
	var pages [][]string
	for i := 0; i < len(lines); i += linesPerPage {
		end := i + linesPerPage
		if end > len(lines) {
			end = len(lines)
		}
		pages = append(pages, lines[i:end])
	}
	if len(pages) == 0 {
		pages = [][]string{{""}}
	}
	return build(pages)
}

func wrap(s string, width int) []string {
	words := strings.Fields(s)
	var out []string
	var cur strings.Builder
	for _, w := range words {
		if cur.Len() > 0 && cur.Len()+1+len(w) > width {
			out = append(out, cur.String())
			cur.Reset()
		}
		if cur.Len() > 0 {
			cur.WriteByte(' ')
		}
		cur.WriteString(w)
	}
	if cur.Len() > 0 {
		out = append(out, cur.String())
	}
	if len(out) == 0 {
		out = []string{""}
	}
	return out
}

// build assembles the PDF object graph: catalog(1) -> pages(2) -> page(i)
// with font(3) and one content stream per page.
func build(pages [][]string) []byte {
	var objs []string // 1-indexed object bodies

	nPages := len(pages)
	pageFirst := 4 // object ids: 1 catalog, 2 pages, 3 font, then page+content pairs
	var kids []string
	for i := 0; i < nPages; i++ {
		kids = append(kids, fmt.Sprintf("%d 0 R", pageFirst+2*i))
	}
	objs = append(objs, "<< /Type /Catalog /Pages 2 0 R >>")
	objs = append(objs, fmt.Sprintf("<< /Type /Pages /Kids [%s] /Count %d >>",
		strings.Join(kids, " "), nPages))
	objs = append(objs, "<< /Type /Font /Subtype /Type1 /BaseFont /Helvetica >>")

	for i, lines := range pages {
		pageID := pageFirst + 2*i
		contentID := pageID + 1
		objs = append(objs, fmt.Sprintf(
			"<< /Type /Page /Parent 2 0 R /MediaBox [0 0 612 792] /Contents %d 0 R /Resources << /Font << /F1 3 0 R >> >> >>",
			contentID))
		stream := contentStream(lines)
		objs = append(objs, fmt.Sprintf("<< /Length %d >>\nstream\n%s\nendstream", len(stream), stream))
	}

	var b strings.Builder
	b.WriteString("%PDF-1.4\n")
	offsets := make([]int, len(objs)+1)
	for i, body := range objs {
		offsets[i+1] = b.Len()
		fmt.Fprintf(&b, "%d 0 obj\n%s\nendobj\n", i+1, body)
	}
	xref := b.Len()
	fmt.Fprintf(&b, "xref\n0 %d\n", len(objs)+1)
	b.WriteString("0000000000 65535 f \n")
	for i := 1; i <= len(objs); i++ {
		fmt.Fprintf(&b, "%010d 00000 n \n", offsets[i])
	}
	fmt.Fprintf(&b, "trailer\n<< /Size %d /Root 1 0 R >>\nstartxref\n%d\n%%%%EOF\n",
		len(objs)+1, xref)
	return []byte(b.String())
}

func contentStream(lines []string) string {
	var b strings.Builder
	b.WriteString("BT\n/F1 11 Tf\n72 740 Td\n14 TL\n")
	for i, line := range lines {
		if i > 0 {
			b.WriteString("T*\n")
		}
		fmt.Fprintf(&b, "(%s) Tj\n", escape(line))
	}
	b.WriteString("ET")
	return b.String()
}

// escaper is built once: a strings.Replacer is safe for concurrent use.
var escaper = strings.NewReplacer(`\`, `\\`, `(`, `\(`, `)`, `\)`)

func escape(s string) string { return escaper.Replace(s) }

// IsPDF reports whether the bytes look like a PDF document.
func IsPDF(b []byte) bool {
	return len(b) >= 5 && string(b[:5]) == "%PDF-"
}

// ExtractText recovers the text content of a PDF produced with
// uncompressed content streams. Text strings inside BT/ET blocks are
// joined; line operators (T*, Td, TD) become newlines.
func ExtractText(data []byte) (string, error) {
	if !IsPDF(data) {
		return "", fmt.Errorf("pdf: not a PDF document")
	}
	s := string(data)
	var out strings.Builder
	for {
		i := strings.Index(s, "stream")
		if i < 0 {
			break
		}
		rest := s[i+len("stream"):]
		rest = strings.TrimPrefix(rest, "\r\n")
		rest = strings.TrimPrefix(rest, "\n")
		j := strings.Index(rest, "endstream")
		if j < 0 {
			break
		}
		extractFromStream(rest[:j], &out)
		s = rest[j+len("endstream"):]
	}
	return strings.TrimSpace(out.String()), nil
}

// extractFromStream walks one content stream, appending text.
func extractFromStream(stream string, out *strings.Builder) {
	inText := false
	i := 0
	n := len(stream)
	lastWasText := false
	for i < n {
		switch {
		case !inText:
			if strings.HasPrefix(stream[i:], "BT") {
				inText = true
				i += 2
			} else {
				i++
			}
		case strings.HasPrefix(stream[i:], "ET"):
			inText = false
			if lastWasText {
				out.WriteByte('\n')
			}
			i += 2
		case stream[i] == '(':
			str, next := parseString(stream, i)
			out.WriteString(str)
			lastWasText = true
			i = next
		case strings.HasPrefix(stream[i:], "T*"),
			strings.HasPrefix(stream[i:], "Td"),
			strings.HasPrefix(stream[i:], "TD"):
			if lastWasText {
				out.WriteByte('\n')
				lastWasText = false
			}
			i += 2
		case strings.HasPrefix(stream[i:], "TJ"):
			// Array form already emitted its strings; treat as spacing.
			i += 2
		default:
			i++
		}
	}
}

// parseString reads a PDF literal string starting at '(' and returns the
// unescaped content and the index after the closing ')'.
func parseString(s string, start int) (string, int) {
	var b strings.Builder
	depth := 0
	i := start
	for i < len(s) {
		c := s[i]
		switch c {
		case '\\':
			if i+1 < len(s) {
				next := s[i+1]
				switch next {
				case 'n':
					b.WriteByte('\n')
				case 't':
					b.WriteByte('\t')
				case 'r':
					b.WriteByte('\r')
				case '(', ')', '\\':
					b.WriteByte(next)
				default:
					b.WriteByte(next)
				}
				i += 2
				continue
			}
			i++
		case '(':
			depth++
			if depth > 1 {
				b.WriteByte('(')
			}
			i++
		case ')':
			depth--
			if depth == 0 {
				return b.String(), i + 1
			}
			b.WriteByte(')')
			i++
		default:
			b.WriteByte(c)
			i++
		}
	}
	return b.String(), i
}
