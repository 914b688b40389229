//go:build !race

// Allocation pins for the NDJSON row encoder and the laid-out view.
// AllocsPerRun is meaningless under the race detector, so they run in the
// plain `Allocs` pass of `make test`.

package server

import (
	"fmt"
	"io"
	"testing"

	"securitykg/internal/cypher"
	"securitykg/internal/graph"
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

// TestLayoutViewAllocs: a 9-node Layout (the size of a typical
// /api/expand view) costs the engine's setup, the index map and the view
// slices, and no more.
func TestLayoutViewAllocs(t *testing.T) {
	sg := &graph.Subgraph{}
	for i := 0; i < 9; i++ {
		sg.Nodes = append(sg.Nodes, &graph.Node{ID: graph.NodeID(i + 1), Type: "IP", Name: fmt.Sprintf("10.0.0.%d", i)})
		if i > 0 {
			sg.Edges = append(sg.Edges, &graph.Edge{ID: graph.EdgeID(i), From: 1, To: graph.NodeID(i + 1), Type: "CONNECT"})
		}
	}
	const maxLayoutAllocs = 19 // 21 while every view built a quadtree
	if allocs := testing.AllocsPerRun(100, func() { Layout(sg, 1) }); allocs > maxLayoutAllocs {
		t.Errorf("9-node Layout allocates %.0f/op, want <= %d", allocs, maxLayoutAllocs)
	}
}
