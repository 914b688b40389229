//go:build !race

// Allocation regression guard for indexing. AllocsPerRun is meaningless
// under the race detector, so this runs in the plain pass `make test` adds
// alongside the -race suite.

package search

import (
	"runtime"
	"strings"
	"testing"
)

// TestAddAllocs pins what indexing one ≈800-byte report costs. The term
// pass walks token spans and builds no token or term slice, so what is
// left is the document's term map, the lowered and lemmatized terms that
// differ from their text, and the growth of the postings lists.
func TestAddAllocs(t *testing.T) {
	title := "WannaCry Ransomware Spreads Through SMB Exploits"
	body := strings.Repeat("The WannaCry worm encrypts files on infected hosts and spreads through "+
		"the EternalBlue exploit. Operators demanded ransom payments in Bitcoin. ", 5)
	if n := len(title) + len(body); n < 700 || n > 900 {
		t.Fatalf("document is %d bytes, want about 800", n)
	}
	ix := NewIndex(map[string]float64{"title": 2.0})
	d := doc("r1", title, body)
	ix.Add(d) // every term has a postings list from here on
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got := testing.AllocsPerRun(100, func() { ix.Add(d) })
	runtime.ReadMemStats(&after)
	// AllocsPerRun makes one warm-up call besides its 100 runs.
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / 101
	t.Logf("Add of a %d-byte document: %.0f allocations, %.0f B", len(title)+len(body), got, bytes)
	// 55 allocations and ≈2.4 kB; the []Token and []string passes made
	// 59 and ≈19.8 kB, the token slice alone len/4+1 80-byte entries.
	const ceiling, bytesCeiling = 56, 3072
	if got > ceiling {
		t.Errorf("Add allocates %.0f times, ceiling %d", got, ceiling)
	}
	if bytes > bytesCeiling {
		t.Errorf("Add allocates %.0f B, ceiling %d", bytes, bytesCeiling)
	}
}
