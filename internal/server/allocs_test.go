//go:build !race

// Allocation pin for the NDJSON row encoder. AllocsPerRun is meaningless
// under the race detector, so it runs in the plain `Allocs` pass of
// `make test`.

package server

import (
	"io"
	"testing"

	"securitykg/internal/cypher"
)

type discardWriter struct{ io.Writer }

// TestStreamEncodeAllocs: a warm row of string cells is escaped into the
// writer's reused buffer and handed on — no cell slice, no map, no
// reflection, no allocation.
func TestStreamEncodeAllocs(t *testing.T) {
	nw := &ndjsonWriter{w: discardWriter{io.Discard}}
	row := []cypher.Value{cypher.StringValue("c2-1234.example"), cypher.StringValue(`2021 "q" <&>`), cypher.NullValue()}
	if err := nw.row(row); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		if err := nw.row(row); err != nil {
			t.Fatal(err)
		}
	}); allocs > 0 {
		t.Errorf("encoding a warm row allocates %.1f/op, want 0", allocs)
	}
}
