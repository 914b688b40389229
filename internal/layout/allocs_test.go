//go:build !race

// Allocation pin for the layout engine. AllocsPerRun is meaningless under
// the race detector, so it runs in the plain `Allocs` pass of `make test`.

package layout

import "testing"

// TestLayoutAllocs: a warm Step reuses its force buffer and, on the
// Barnes-Hut kernel, its quadtree cell arena, so it allocates nothing.
func TestLayoutAllocs(t *testing.T) {
	g := Graph{N: 100}
	for i := 1; i < g.N; i++ {
		g.Edges = append(g.Edges, [2]int{i / 2, i})
	}
	for _, k := range []struct {
		name string
		cfg  Config
	}{{"exact", Config{Exact: true}}, {"bh", Config{Theta: 0.5}}} {
		e := NewEngine(g, k.cfg, 1)
		for i := 0; i < 50; i++ {
			e.Step()
		}
		if allocs := testing.AllocsPerRun(100, func() { e.Step() }); allocs != 0 {
			t.Errorf("warm %s Step allocates %.2f/op, want 0", k.name, allocs)
		}
	}
}
