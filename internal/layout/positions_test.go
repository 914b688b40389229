//go:build !race

// The position oracle runs in the plain pass of `make test`: one
// goroutine gives the race detector nothing to find, and under it the
// run takes ≈12× the plain build's ≈10 s.

package layout

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
)

var updatePositions = flag.Bool("update-positions", false, "rewrite testdata/positions_parent.txt from this build")

// star builds a star: node 0 joined to every other node.
func star(n int) Graph {
	g := Graph{N: n}
	for i := 1; i < n; i++ {
		g.Edges = append(g.Edges, [2]int{0, i})
	}
	return g
}

type positionCase struct {
	name string
	g    Graph
	seed int64
}

// positionCases are stars, rings and random trees on both sides of
// exactBelow and far from it, three seeds each, plus the view
// server.Layout builds for the test server's /api/expand of "wannacry".
func positionCases() []positionCase {
	var cs []positionCase
	for _, n := range []int{1, 2, 3, 9, 26, 101, 255, 256, 257, 400, 1000} {
		for seed := int64(1); seed <= 3; seed++ {
			cs = append(cs,
				positionCase{fmt.Sprintf("star n=%d seed=%d", n, seed), star(n), seed},
				positionCase{fmt.Sprintf("ring n=%d seed=%d", n, seed), ring(n), seed},
				positionCase{fmt.Sprintf("tree n=%d seed=%d", n, seed), randomGraph(n, seed), seed})
		}
	}
	expand := Graph{N: 4, Edges: [][2]int{{0, 1}, {0, 2}, {3, 0}}}
	return append(cs, positionCase{"expand n=4 seed=1", expand, 1})
}

// positionsLine lays c out as server.Layout does (Run(300, 0.01)) and
// prints the case, the engine label, the iterations used and the float64
// bits of every coordinate.
func positionsLine(c positionCase, engine string, cfg Config) string {
	e := NewEngine(c.g, cfg, c.seed)
	iters := e.Run(300, 0.01)
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s iters=%d", c.name, engine, iters)
	for _, p := range e.Pos {
		fmt.Fprintf(&b, " %016x:%016x", math.Float64bits(p.X), math.Float64bits(p.Y))
	}
	return b.String()
}

// TestPositionsMatchParent holds the default engine to
// testdata/positions_parent.txt, which the last commit whose default was
// Barnes-Hut at every size wrote: an "exact" row is that commit's
// Config{Exact: true} engine, a "bh" row its default (θ = 0.5). Below
// exactBelow the default must reproduce the exact row bit for bit, from
// exactBelow up the bh row; a positive θ must still reproduce the bh row
// below exactBelow. Regenerate (-update-positions) only when a change
// means to move a layout.
func TestPositionsMatchParent(t *testing.T) {
	const path = "testdata/positions_parent.txt"
	if *updatePositions {
		var out strings.Builder
		for _, c := range positionCases() {
			out.WriteString(positionsLine(c, "exact", Config{Exact: true}) + "\n")
			out.WriteString(positionsLine(c, "bh", Config{Theta: 0.5}) + "\n")
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{} // "<case> <engine>" -> line
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		key, _, _ := strings.Cut(line, " iters=")
		want[key] = line
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	check := func(c positionCase, engine string, cfg Config) {
		t.Helper()
		w, ok := want[c.name+" "+engine]
		if !ok {
			t.Fatalf("%s: no %s row in %s", c.name, engine, path)
		}
		if got := positionsLine(c, engine, cfg); got != w {
			t.Errorf("%s: Config%+v does not reproduce the parent's %s row", c.name, cfg, engine)
		}
	}
	for _, c := range positionCases() {
		if c.g.N < exactBelow {
			check(c, "exact", Config{})
			check(c, "bh", Config{Theta: 0.5})
		} else {
			check(c, "bh", Config{})
		}
	}
}
