package layout

import (
	"math"
	"math/rand"
	"testing"
)

// ring builds a ring graph of n nodes.
func ring(n int) Graph {
	g := Graph{N: n}
	for i := 0; i < n; i++ {
		g.Edges = append(g.Edges, [2]int{i, (i + 1) % n})
	}
	return g
}

// randomGraph builds a sparse random graph.
func randomGraph(n int, seed int64) Graph {
	rng := rand.New(rand.NewSource(seed))
	g := Graph{N: n}
	for i := 1; i < n; i++ {
		g.Edges = append(g.Edges, [2]int{rng.Intn(i), i})
	}
	return g
}

func TestBarnesHutApproximatesExactForces(t *testing.T) {
	for _, n := range []int{50, 300} {
		e := NewEngine(randomGraph(n, 1), Config{Theta: 0.5}, 1)
		err := e.ForceError()
		if err > 0.08 {
			t.Errorf("n=%d: mean relative force error %.4f, want <= 0.08", n, err)
		}
		if err == 0 {
			t.Errorf("n=%d: zero error is suspicious (BH should approximate)", n)
		}
	}
}

func TestThetaTradeoff(t *testing.T) {
	g := randomGraph(400, 2)
	tight := NewEngine(g, Config{Theta: 0.2}, 3)
	loose := NewEngine(g, Config{Theta: 1.2}, 3)
	if te, le := tight.ForceError(), loose.ForceError(); te >= le {
		t.Errorf("smaller theta should be more accurate: θ=0.2 err %.4f vs θ=1.2 err %.4f", te, le)
	}
}

func TestStepSeparatesCoincidentCluster(t *testing.T) {
	g := Graph{N: 10}
	// Config{} is the exact sum at this size; Theta 0.5 keeps Barnes-Hut
	// covered. A spacing of 0 makes every pair coincident, so only the
	// kernels' jitter directions can pull the nodes apart.
	for _, cfg := range []Config{{}, {Theta: 0.5}} {
		for _, spacing := range []float64{0.001, 0} {
			e := NewEngine(g, cfg, 5)
			for i := range e.Pos {
				e.Pos[i] = Point{X: spacing * float64(i), Y: 0}
			}
			for i := 0; i < 50; i++ {
				e.Step()
			}
			// Repulsion must spread the nodes out.
			minDist := math.Inf(1)
			for i := 0; i < g.N; i++ {
				for j := i + 1; j < g.N; j++ {
					d := math.Hypot(e.Pos[i].X-e.Pos[j].X, e.Pos[i].Y-e.Pos[j].Y)
					minDist = math.Min(minDist, d)
				}
			}
			if minDist < 5 {
				t.Errorf("Config%+v, spacing %g: nodes did not separate: min distance %.3f", cfg, spacing, minDist)
			}
		}
	}
}

func TestSpringsPullConnectedNodesToRestLength(t *testing.T) {
	g := Graph{N: 2, Edges: [][2]int{{0, 1}}}
	e := NewEngine(g, Config{}, 7)
	e.Pos[0] = Point{X: -500, Y: 0}
	e.Pos[1] = Point{X: 500, Y: 0}
	e.Run(500, 1e-4)
	d := math.Hypot(e.Pos[0].X-e.Pos[1].X, e.Pos[0].Y-e.Pos[1].Y)
	if d < 40 || d > 400 {
		t.Errorf("edge length after layout: %.1f, expected near rest length", d)
	}
}

func TestRunConverges(t *testing.T) {
	e := NewEngine(ring(30), Config{}, 11)
	iters := e.Run(2000, 1e-3)
	if iters >= 2000 {
		t.Errorf("layout did not converge in %d iterations", iters)
	}
}

func TestDeterministicForSeed(t *testing.T) {
	g := ring(20)
	a := NewEngine(g, Config{}, 42)
	b := NewEngine(g, Config{}, 42)
	for i := 0; i < 10; i++ {
		a.Step()
		b.Step()
	}
	for i := range a.Pos {
		if a.Pos[i] != b.Pos[i] {
			t.Fatal("same seed diverged")
		}
	}
}

func TestEmptyAndSingleNodeGraphs(t *testing.T) {
	e := NewEngine(Graph{N: 0}, Config{}, 1)
	if got := e.Step(); got != 0 {
		t.Errorf("empty graph step moved %f", got)
	}
	e1 := NewEngine(Graph{N: 1}, Config{}, 1)
	e1.Step() // must not panic; single body has no repulsion partner
}

func TestExactMatchesBruteForceSymmetry(t *testing.T) {
	// Newton's third law: exact forces sum to ~zero.
	e := NewEngine(randomGraph(60, 13), Config{Exact: true}, 13)
	forces := e.RepulsiveForces(nil)
	var sx, sy float64
	for _, f := range forces {
		sx += f.X
		sy += f.Y
	}
	if math.Abs(sx) > 1e-6 || math.Abs(sy) > 1e-6 {
		t.Errorf("force sum (%g, %g) should vanish", sx, sy)
	}
}

func TestCoincidentPointsDoNotPanicBarnesHut(t *testing.T) {
	g := Graph{N: 5}
	e := NewEngine(g, Config{Theta: 0.5}, 1)
	for i := range e.Pos {
		e.Pos[i] = Point{X: 1, Y: 1} // identical positions: deep split guard
	}
	e.RepulsiveForces(nil) // must not stack-overflow
}
