// Package layout implements the force-directed graph layout behind the
// exploration UI: repulsive forces computed either exactly (O(N²)) or with
// the Barnes-Hut quadtree approximation the paper cites (O(N log N)),
// plus spring attraction along edges and per-iteration cooling. Left to
// choose, the engine sums exactly below exactBelow bodies, where the sum
// is both faster and exact, and uses Barnes-Hut from there up.
package layout

import (
	"math"
	"math/rand"
)

// Point is a 2-D position or force vector.
type Point struct {
	X, Y float64
}

// Graph is the minimal view the engine needs: node count and edge list
// (indices into the node range).
type Graph struct {
	N     int
	Edges [][2]int
}

// Config chooses the repulsion kernel; the forces are constants (below).
type Config struct {
	// Theta is the Barnes-Hut opening angle: a cell of width w at distance
	// d is treated as one body when w/d < Theta. A positive Theta means
	// Barnes-Hut at every size. 0 lets the engine choose: the exact sum
	// below exactBelow bodies, Barnes-Hut at the classic 0.5 from there up.
	Theta float64
	// Exact forces the O(N²) repulsion path at every size.
	Exact bool
}

// The simulation's force constants.
const (
	repulsion    float64 = 5000 // scales the pairwise repulsive force
	spring       float64 = 0.02 // scales edge attraction
	springLength float64 = 80   // rest length of edges
	damping      float64 = 0.85 // multiplies displacement per iteration
	maxStep      float64 = 30   // caps per-iteration displacement
	// cooling multiplies the force temperature each step; as the
	// temperature decays the simulation settles, guaranteeing convergence.
	cooling float64 = 0.995
)

// exactBelow is the body count from which an engine left to choose its
// kernel (Theta 0) uses Barnes-Hut; below it the exact pairwise sum is
// used. Set from BenchmarkLayoutRun (one Run(300, 0.01) per op): the
// exact arm beats the Barnes-Hut arm on every run up to n=256 (≈3× at
// n=9, ≈1.2× at n=256), the two overlap at n=400, and Barnes-Hut wins
// from there up (≈1.7× at n=1000). 256 is the largest measured size the
// sum always won, so it is the last one given the sum.
const exactBelow = 257

// Engine runs the simulation over mutable positions.
type Engine struct {
	cfg    Config
	g      Graph
	Pos    []Point
	vel    []Point
	temp   float64
	cells  cellArena // the Barnes-Hut quadtree's cells, rebuilt every Step
	forces []Point   // Step's force accumulator, reused
}

// NewEngine seeds positions deterministically on a disk and, when
// cfg.Theta is 0, picks the repulsion kernel by g.N (see exactBelow).
func NewEngine(g Graph, cfg Config, seed int64) *Engine {
	// The kernel choice; BenchmarkLayoutRun's exact and bh arms set it.
	if cfg.Theta <= 0 && g.N < exactBelow {
		cfg.Exact = true
	}
	if cfg.Theta <= 0 {
		cfg.Theta = 0.5
	}
	rng := rand.New(rand.NewSource(seed))
	e := &Engine{
		cfg:  cfg,
		g:    g,
		Pos:  make([]Point, g.N),
		vel:  make([]Point, g.N),
		temp: 1,
	}
	// Seed on a disk whose radius grows with sqrt(N): constant initial
	// density regardless of graph size, so force magnitudes and the
	// Barnes-Hut approximation error are comparable across scales.
	radius := 20 * math.Sqrt(float64(g.N)+1)
	for i := range e.Pos {
		r := radius * math.Sqrt(rng.Float64())
		a := 2 * math.Pi * rng.Float64()
		e.Pos[i] = Point{X: r * math.Cos(a), Y: r * math.Sin(a)}
	}
	return e
}

// Step advances the simulation one iteration and returns the total
// displacement (a convergence signal).
func (e *Engine) Step() float64 {
	e.forces = e.RepulsiveForces(e.forces)
	forces := e.forces
	// Spring attraction along edges.
	for _, ed := range e.g.Edges {
		a, b := ed[0], ed[1]
		dx := e.Pos[b].X - e.Pos[a].X
		dy := e.Pos[b].Y - e.Pos[a].Y
		dist := math.Hypot(dx, dy)
		if dist < 1e-9 {
			continue
		}
		f := spring * (dist - springLength)
		fx := f * dx / dist
		fy := f * dy / dist
		forces[a].X += fx
		forces[a].Y += fy
		forces[b].X -= fx
		forces[b].Y -= fy
	}
	var moved float64
	for i := range e.Pos {
		e.vel[i].X = (e.vel[i].X + forces[i].X*e.temp) * damping
		e.vel[i].Y = (e.vel[i].Y + forces[i].Y*e.temp) * damping
		step := math.Hypot(e.vel[i].X, e.vel[i].Y)
		scale := 1.0
		if step > maxStep {
			scale = maxStep / step
		}
		dx := e.vel[i].X * scale
		dy := e.vel[i].Y * scale
		e.Pos[i].X += dx
		e.Pos[i].Y += dy
		moved += math.Hypot(dx, dy)
	}
	e.temp *= cooling
	return moved
}

// Run iterates until the total displacement per node falls below eps or
// maxIter is reached, returning the iterations used.
func (e *Engine) Run(maxIter int, eps float64) int {
	for it := 1; it <= maxIter; it++ {
		if e.Step()/float64(e.g.N+1) < eps {
			return it
		}
	}
	return maxIter
}

// RepulsiveForces computes the repulsion component for every node, using
// Barnes-Hut unless cfg.Exact is set. If out is non-nil it is reused.
func (e *Engine) RepulsiveForces(out []Point) []Point {
	if out == nil || len(out) != e.g.N {
		out = make([]Point, e.g.N)
	} else {
		for i := range out {
			out[i] = Point{}
		}
	}
	if e.cfg.Exact {
		e.exactRepulsion(out)
		return out
	}
	e.barnesHutRepulsion(out)
	return out
}

// jitterDir gives node i a deterministic unit direction (golden-angle
// spiral) used to break ties between (near-)coincident nodes: without it,
// coincident clusters saturate the step cap in one shared direction and
// translate together instead of separating.
func jitterDir(i int) (float64, float64) {
	a := float64(i) * 2.39996322972865332 // golden angle
	return math.Cos(a), math.Sin(a)
}

func (e *Engine) exactRepulsion(out []Point) {
	for i := 0; i < e.g.N; i++ {
		for j := i + 1; j < e.g.N; j++ {
			dx := e.Pos[i].X - e.Pos[j].X
			dy := e.Pos[i].Y - e.Pos[j].Y
			d2 := dx*dx + dy*dy
			if d2 < 1 {
				d2 = 1
				jx, jy := jitterDir(i*31 + j)
				dx, dy = jx, jy
			}
			f := repulsion / d2
			d := math.Sqrt(d2)
			fx := f * dx / d
			fy := f * dy / d
			out[i].X += fx
			out[i].Y += fy
			out[j].X -= fx
			out[j].Y -= fy
		}
	}
}

// --- Barnes-Hut quadtree ---

type bhNode struct {
	// Cell bounds.
	x0, y0, x1, y1 float64
	// Aggregate mass (node count) and center of mass.
	mass   float64
	cx, cy float64
	// Leaf payload: index of the single body (-1 when internal/empty).
	body   int
	bx, by float64 // leaf body's exact position
	kids   [4]*bhNode
	leaf   bool
}

// cellArena hands out quadtree cells from blocks it keeps: a tree is
// built and dropped every iteration, and reset makes the next one reuse
// the same memory. Blocks never move, so cell pointers stay valid.
type cellArena struct {
	blocks [][]bhNode
	used   int
}

const cellBlock = 64

func (a *cellArena) reset() { a.used = 0 }

func (a *cellArena) newCell(x0, y0, x1, y1 float64) *bhNode {
	if a.used == len(a.blocks)*cellBlock {
		a.blocks = append(a.blocks, make([]bhNode, cellBlock))
	}
	c := &a.blocks[a.used/cellBlock][a.used%cellBlock]
	a.used++
	*c = bhNode{x0: x0, y0: y0, x1: x1, y1: y1, body: -1, leaf: true}
	return c
}

func (n *bhNode) quadrant(x, y float64) int {
	mx := (n.x0 + n.x1) / 2
	my := (n.y0 + n.y1) / 2
	q := 0
	if x > mx {
		q |= 1
	}
	if y > my {
		q |= 2
	}
	return q
}

func (n *bhNode) child(a *cellArena, q int) *bhNode {
	if n.kids[q] == nil {
		mx := (n.x0 + n.x1) / 2
		my := (n.y0 + n.y1) / 2
		switch q {
		case 0:
			n.kids[q] = a.newCell(n.x0, n.y0, mx, my)
		case 1:
			n.kids[q] = a.newCell(mx, n.y0, n.x1, my)
		case 2:
			n.kids[q] = a.newCell(n.x0, my, mx, n.y1)
		case 3:
			n.kids[q] = a.newCell(mx, my, n.x1, n.y1)
		}
	}
	return n.kids[q]
}

func (n *bhNode) insert(a *cellArena, i int, x, y float64, depth int) {
	n.mass++
	n.cx += (x - n.cx) / n.mass
	n.cy += (y - n.cy) / n.mass
	if n.leaf {
		if n.body < 0 {
			n.body = i
			n.bx, n.by = x, y
			return
		}
		if depth > 48 {
			// Coincident points: keep aggregated in this cell.
			return
		}
		// Split: push the existing body down.
		old := n.body
		ox, oy := n.bx, n.by
		n.body = -1
		n.leaf = false
		n.child(a, n.quadrant(ox, oy)).insert(a, old, ox, oy, depth+1)
		n.child(a, n.quadrant(x, y)).insert(a, i, x, y, depth+1)
		return
	}
	n.child(a, n.quadrant(x, y)).insert(a, i, x, y, depth+1)
}

func (e *Engine) barnesHutRepulsion(out []Point) {
	if e.g.N == 0 {
		return
	}
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for _, p := range e.Pos {
		minX = math.Min(minX, p.X)
		minY = math.Min(minY, p.Y)
		maxX = math.Max(maxX, p.X)
		maxY = math.Max(maxY, p.Y)
	}
	size := math.Max(maxX-minX, maxY-minY) + 1
	e.cells.reset()
	root := e.cells.newCell(minX, minY, minX+size, minY+size)
	for i, p := range e.Pos {
		root.insert(&e.cells, i, p.X, p.Y, 0)
	}
	for i := range e.Pos {
		e.applyCell(root, i, out)
	}
}

// applyCell adds to out[i] the repulsion cell n exerts on body i: as one
// mass at its center when the cell is a leaf or far enough away for its
// width (the theta criterion), cell by cell otherwise.
func (e *Engine) applyCell(n *bhNode, i int, out []Point) {
	if n == nil || n.mass == 0 {
		return
	}
	px, py := e.Pos[i].X, e.Pos[i].Y
	dx := px - n.cx
	dy := py - n.cy
	d2 := dx*dx + dy*dy
	w := n.x1 - n.x0
	if n.leaf || w*w < e.cfg.Theta*e.cfg.Theta*d2 {
		mass := n.mass
		if n.leaf && n.body == i {
			// Exclude self from a leaf that only holds this body.
			mass--
			if mass <= 0 {
				return
			}
		}
		if d2 < 1 {
			d2 = 1
			dx, dy = jitterDir(i)
		}
		d := math.Sqrt(d2)
		f := repulsion * mass / d2
		out[i].X += f * dx / d
		out[i].Y += f * dy / d
		return
	}
	for _, kid := range n.kids {
		e.applyCell(kid, i, out)
	}
}

// ForceError measures the mean relative error of Barnes-Hut forces against
// the exact computation on the current positions (the accuracy side of the
// E12 trade-off).
func (e *Engine) ForceError() float64 {
	exactCfg := e.cfg
	exactCfg.Exact = true
	exactEng := &Engine{cfg: exactCfg, g: e.g, Pos: e.Pos}
	exact := exactEng.RepulsiveForces(nil)
	approx := e.RepulsiveForces(nil)
	var errSum float64
	n := 0
	for i := range exact {
		em := math.Hypot(exact[i].X, exact[i].Y)
		if em < 1e-12 {
			continue
		}
		diff := math.Hypot(exact[i].X-approx[i].X, exact[i].Y-approx[i].Y)
		errSum += diff / em
		n++
	}
	if n == 0 {
		return 0
	}
	return errSum / float64(n)
}
