//go:build !race

// Allocation regression guard for the extraction pass. AllocsPerRun is
// meaningless under the race detector, so this runs in the plain pass
// `make test` adds alongside the -race suite.

package ner

import (
	"strings"
	"testing"

	"securitykg/internal/sources"
)

// TestExtractAllocs pins what one warm Extract plus one warm
// ExtractRelations allocate on a fixed report. Before features were
// interned and the gazetteer matched by token, the pair allocated 3 769 +
// 4 021 times on this report (3 770 + 4 119 on the two reports the root
// benchmarks use): a string per feature per token, a joined and
// normalized phrase per gazetteer probe, three lattice rows per token, a
// Replacer per span. What is left is the tokens' own annotations, the
// sentences' slices and the results. A per-feature or per-probe allocation
// coming back overshoots the ceiling several times over.
func TestExtractAllocs(t *testing.T) {
	ext := webExtractor(t)
	web := sources.NewWeb(1, sources.DefaultSources(10))
	text := strings.Join(web.GenerateTruth(web.Sources()[0], 1).Paragraphs, "\n")
	if len(ext.Extract(text)) == 0 || len(ext.ExtractRelations(text)) == 0 {
		t.Fatal("report yields nothing to extract")
	}
	const ceiling = 1300 // 6× below the 7 790 before
	got := testing.AllocsPerRun(20, func() {
		ext.Extract(text)
		ext.ExtractRelations(text)
	})
	t.Logf("Extract + ExtractRelations: %.0f allocs", got)
	if got > ceiling {
		t.Errorf("Extract + ExtractRelations allocate %.0f times, ceiling %d", got, ceiling)
	}
}
