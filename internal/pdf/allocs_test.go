//go:build !race

// Allocation regression guard for the PDF writer. AllocsPerRun is
// meaningless under the race detector, so this runs in the plain pass
// `make test` adds alongside the -race suite.

package pdf

import "testing"

// TestEscapeAllocs pins escape, which Generate calls once per wrapped
// line, to the replacer's output buffer and the string made from it, and
// a line with nothing to escape to none: the replacer is built once, not
// per call (it was 9 and 7).
func TestEscapeAllocs(t *testing.T) {
	line := `C:\Users\victim (see figure 3) dropped (stage two)`
	if got, want := escape(line), `C:\\Users\\victim \(see figure 3\) dropped \(stage two\)`; got != want {
		t.Fatalf("escape(%q) = %q, want %q", line, got, want)
	}
	if got := testing.AllocsPerRun(100, func() { escape(line) }); got > 2 {
		t.Errorf("escape allocates %.0f times a line, want at most 2", got)
	}
	if got := testing.AllocsPerRun(100, func() { escape("plain words only") }); got != 0 {
		t.Errorf("escape of a line with nothing to escape allocates %.0f times, want 0", got)
	}
}
