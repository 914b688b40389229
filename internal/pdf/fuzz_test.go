package pdf

import "testing"

// FuzzExtractText feeds arbitrary bytes to ExtractText, seeded with the
// documents Generate writes and cuts of them. Property: it never panics —
// a crawled PDF is input from outside the program.
func FuzzExtractText(f *testing.F) {
	for _, doc := range [][]byte{
		Generate("WannaCry Report", []string{"The WannaCry ransomware encrypts files.", "It connects to 10.1.2.3."}),
		Generate("", []string{`Path (quoted) with \backslash and (nested (parens))`}),
	} {
		f.Add(doc)
		f.Add(doc[:len(doc)/2])
	}
	f.Add([]byte("%PDF-1.4\nstream\nBT (unclosed \\"))
	f.Add([]byte("%PDF-"))
	f.Add([]byte("not a pdf"))
	f.Fuzz(func(t *testing.T, data []byte) {
		ExtractText(data)
	})
}
