package cypher

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"securitykg/internal/graph"
)

// The planner turns a parsed query into a Plan in three steps:
//
//  1. Predicate pushdown: each run of required MATCH clauses has its
//     WHERE split into AND-conjuncts; equality conjuncts against string
//     literals become index hints, and every conjunct is attached to the
//     earliest pipeline stage at which all of its variables are bound, so
//     rows are discarded as soon as they can be. A WITH's WHERE is split
//     too, and a conjunct is planned below the bridge when the part has
//     no writing clause, the conjunct calls no aggregate, every variable
//     it names is an item the WITH passes through unchanged, and the
//     earliest outer stage binding them takes filters (pushWithWhere);
//     otherwise it stays on the bridge.
//  2. Greedy ordering (the "greedy beats optimal" strategy from the
//     janus-datalog line of work): among all pattern chains and all
//     possible entry nodes, repeatedly start at the node with the
//     smallest estimated candidate count — a bound variable is free, an
//     exact (label, name) seek is ~1, a label scan costs the label
//     cardinality, a full scan costs the node count — then grow the
//     chain in whichever direction has the smaller estimated fan-out
//     (average edge-type degree × target selectivity). Variable-length
//     expansions cost the geometric sum of the per-hop fan-out over the
//     hop range. OPTIONAL MATCH clauses plan in place (after the
//     required stages that bind their anchors) as nested sub-pipelines,
//     preserving clause order across null-padding boundaries.
//  3. The resulting stages execute as lazy pull iterators (iter.go), so
//     downstream LIMIT/MaxRows stop matching instead of truncating a
//     materialized result. WITH boundaries become segment bridges that
//     re-root the binding namespace.
//
// Statistics come from the graph store's selectivity layer (CountByType,
// CountByName, CountByTypeAttr, AvgDegree, ...): counts the store keeps
// live as records come and go, so planning is O(pattern size) with O(1)
// stat lookups and never walks nodes or edges.

// planQuery builds the plan for q against the engine's store and options.
// $parameter predicates are costed with stats defaults (average index
// bucket sizes) so one plan serves every binding; the chosen access
// path's key is resolved per execution by the scan iterator.
func (e *Engine) planQuery(q *Query) (*Plan, error) {
	if len(q.Parts) == 0 {
		return nil, fmt.Errorf("cypher: empty query")
	}
	pl := &Plan{Params: q.Params, HasWrites: q.HasWrites()}
	var carried []string
	synth := 0
	for pi := range q.Parts {
		part := &q.Parts[pi]
		final := pi == len(q.Parts)-1
		seg, err := e.planPart(part, final, carried, &synth)
		if err != nil {
			return nil, err
		}
		if pi > 0 {
			// The bridge from the previous segment writes into this
			// segment's frames and filters on them.
			prev := pl.Segments[pi-1]
			prev.outSlots = slotsOf(seg.tab, carried)
			if prev.Filter != nil {
				prev.Filter = stampExpr(prev.Filter, seg.tab)
			}
		}
		pl.Segments = append(pl.Segments, seg)
		if part.Unwind != nil && part.HasWrites() {
			pl.Batch = true
		}
		// The next segment sees only the projected aliases.
		carried = make([]string, len(part.Items))
		for i, it := range part.Items {
			carried[i] = it.Alias
		}
	}
	return pl, nil
}

// unwindEstFanout is the planner's assumed element count of an UNWIND
// list whose length is unknown at plan time (a $parameter batch).
const unwindEstFanout = 64

// planPart plans one WITH-delimited segment. carried names the
// variables the previous segment's projection hands over, in item order;
// they take the first slots of this segment's frames.
func (e *Engine) planPart(part *QueryPart, final bool, carried []string, synth *int) (*PlanSegment, error) {
	if len(part.Items) == 0 && !(final && part.HasWrites()) {
		return nil, fmt.Errorf("cypher: empty RETURN")
	}
	seg := &PlanSegment{
		Items:    part.Items,
		Distinct: part.Distinct,
		OrderBy:  part.OrderBy,
		Skip:     part.Skip,
		Limit:    part.Limit,
	}
	for _, it := range part.Items {
		if isAggregate(it.Expr) {
			seg.HasAggregate = true
		}
	}
	seg.cols = make([]string, len(seg.Items))
	for i, it := range seg.Items {
		seg.cols[i] = it.Alias
	}
	if final {
		op, err := resolveOrderKeys(part.OrderBy, part.Items, seg.Distinct, seg.HasAggregate)
		if err != nil {
			return nil, err
		}
		seg.op = op
	}

	bound := make(map[string]bool, len(carried))
	for _, a := range carried {
		bound[a] = true
	}
	cur := 1.0
	if part.Unwind != nil {
		if bound[part.Unwind.Alias] {
			return nil, fmt.Errorf("cypher: UNWIND alias %q is already bound", part.Unwind.Alias)
		}
		// The list length is unknown at plan time (it is typically a
		// $parameter); cost it at a nominal batch fan-out so downstream
		// estimates scale with "many rows" rather than one.
		cur *= unwindEstFanout
		seg.Stages = append(seg.Stages, &UnwindStage{
			Expr: part.Unwind.Expr, Alias: part.Unwind.Alias, Est: cur,
		})
		bound[part.Unwind.Alias] = true
	}
	for _, run := range requiredRuns(part.Matches) {
		if run.optional != nil {
			st, err := e.planOptional(*run.optional, bound, synth, cur)
			if err != nil {
				return nil, err
			}
			seg.Stages = append(seg.Stages, st)
			cur = st.Est
			continue
		}
		pats := withSyntheticVars(run.pats, synth)
		var conjs []Expr
		splitConjuncts(run.where, &conjs)
		eq := equalityHints(conjs)
		runStart := len(seg.Stages)
		preRun := copyBound(bound)
		cur = e.planPatterns(&seg.Stages, pats, bound, eq, conjs, true, cur)
		assignPredicates(seg.Stages[runStart:], conjs, run.where, preRun)
	}
	if !final {
		seg.Filter = pushWithWhere(part, seg.Stages, carried, bound)
	}
	if wc := writeClausesOf(part); wc != nil {
		// Writes run after every read of the part has materialized
		// (the stage is an eager barrier) and bind their created
		// variables for the projection.
		seg.Stages = append(seg.Stages, &MutationStage{Writes: wc, Est: cur})
	}

	seg.tab = &slotTable{}
	slotsOf(seg.tab, carried)
	assignStageSlots(seg.Stages, seg.tab)
	for _, cc := range part.Creates {
		patternVarsInto(seg.tab, cc.Patterns)
	}
	stampStages(seg.Stages, seg.tab)
	seg.Items = make([]ReturnItem, len(part.Items))
	for i, it := range part.Items {
		seg.Items[i] = ReturnItem{Expr: stampExpr(it.Expr, seg.tab), Alias: it.Alias}
	}
	if seg.op != nil {
		seg.op.hidden = stampExprs(seg.op.hidden, seg.tab)
	}
	return seg, nil
}

// planOptional plans one OPTIONAL MATCH clause as a nested sub-pipeline
// anchored on the variables bound so far, recording which variables it
// introduces so the executor can null-pad them on no-match.
func (e *Engine) planOptional(mc MatchClause, bound map[string]bool, synth *int, cur float64) (*OptionalStage, error) {
	pats := withSyntheticVars(mc.Patterns, synth)
	var conjs []Expr
	splitConjuncts(mc.Where, &conjs)
	eq := equalityHints(conjs)
	pre := copyBound(bound)
	innerBound := copyBound(bound)
	var inner []Stage
	// Optional sub-pipelines rebuild their iterators per input row, so a
	// hash join there would re-run its build side per row: joins stay
	// disabled inside OPTIONAL MATCH.
	est := e.planPatterns(&inner, pats, innerBound, eq, conjs, false, cur)
	assignPredicates(inner, conjs, mc.Where, pre)
	var vars []string
	for v := range innerBound {
		if !pre[v] {
			vars = append(vars, v)
		}
	}
	sort.Strings(vars)
	// The introduced variables stay in scope (possibly null) downstream.
	for _, v := range vars {
		bound[v] = true
	}
	if est < cur {
		est = cur // null-padding means optional stages never shrink the stream
	}
	return &OptionalStage{Inner: inner, Vars: vars, Est: est}, nil
}

// planPatterns greedily orders a group of pattern chains: repeatedly pick
// the unplanned chain with the cheapest entry node (bound variables are
// free, enabling join-connected chains to piggyback on earlier ones),
// then plan it outward from there — or, when the chain is linked to the
// rows planned so far only through equality (a cross-chain predicate or
// a shared variable) and the estimates say hashing one side is cheaper
// than re-expanding per row, as a HashJoinStage. Mutates bound; returns
// the updated cumulative cardinality estimate.
func (e *Engine) planPatterns(stages *[]Stage, pats []Pattern, bound map[string]bool,
	eq map[string]map[string]hintVal, conjs []Expr, allowJoin bool, cur float64) float64 {
	planned := make([]bool, len(pats))
	for {
		best, bestNode := -1, 0
		bestCost := math.Inf(1)
		for pi, p := range pats {
			if planned[pi] {
				continue
			}
			ni, cost := e.bestEntry(p, bound, eq)
			if cost < bestCost {
				best, bestNode, bestCost = pi, ni, cost
			}
		}
		if best < 0 {
			return cur
		}
		if allowJoin {
			if st, est, ok := e.planHashJoin(pats[best], bound, eq, conjs, cur); ok {
				*stages = append(*stages, st)
				for v := range patternVars(pats[best]) {
					bound[v] = true
				}
				cur = est
				planned[best] = true
				continue
			}
		}
		cur = e.planChain(stages, pats[best], bestNode, bound, eq, cur)
		planned[best] = true
	}
}

// bestEntry returns the cheapest entry node of a chain and its estimated
// candidate count (bound variables are free).
func (e *Engine) bestEntry(p Pattern, bound map[string]bool, eq map[string]map[string]hintVal) (int, float64) {
	best, bestCost := 0, math.Inf(1)
	for ni, np := range p.Nodes {
		cost := math.Inf(1)
		if bound[np.Var] {
			cost = 0
		} else {
			cost = e.accessFor(np, eq[np.Var]).est
		}
		if cost < bestCost {
			best, bestCost = ni, cost
		}
	}
	return best, bestCost
}

// planChain emits the stages for one pattern chain entered at node index
// start, returning the updated cumulative cardinality estimate. Long
// runs of anonymous single-hop edges collapse into a BiExpandStage when
// the hops' average degrees put path enumeration deep into walk-explosion
// territory (tryBiExpand).
func (e *Engine) planChain(stages *[]Stage, p Pattern, start int, bound map[string]bool,
	eq map[string]map[string]hintVal, cur float64) float64 {
	np := p.Nodes[start]
	if bound[np.Var] {
		*stages = append(*stages, &ScanStage{Node: np, Access: AccessBound, Est: cur})
	} else {
		ap := e.accessFor(np, eq[np.Var])
		cur *= ap.est
		*stages = append(*stages, &ScanStage{
			Node: np, Access: ap.kind, Label: ap.label,
			Name: ap.name, NameParam: ap.nameParam,
			AttrKey: ap.attrKey, AttrVal: ap.attrVal, AttrParam: ap.attrParam,
			Est: cur,
		})
		bound[np.Var] = true
	}

	lo, hi := start, start
	for lo > 0 || hi < len(p.Nodes)-1 {
		right := math.Inf(1)
		if hi < len(p.Nodes)-1 {
			right = e.expandFactor(p.Nodes[hi], p.Edges[hi], p.Nodes[hi+1], false, bound, eq)
		}
		left := math.Inf(1)
		if lo > 0 {
			left = e.expandFactor(p.Nodes[lo], p.Edges[lo-1], p.Nodes[lo-1], true, bound, eq)
		}
		if right <= left {
			if hops, est, ok := e.tryBiExpand(stages, p, hi, false, bound, eq, cur); ok {
				hi += hops
				cur = est
				continue
			}
			cur = e.emitExpand(stages, p.Nodes[hi], p.Edges[hi], p.Nodes[hi+1], false, bound, cur*right)
			hi++
		} else {
			if hops, est, ok := e.tryBiExpand(stages, p, lo, true, bound, eq, cur); ok {
				lo -= hops
				cur = est
				continue
			}
			cur = e.emitExpand(stages, p.Nodes[lo], p.Edges[lo-1], p.Nodes[lo-1], true, bound, cur*left)
			lo--
		}
	}
	return cur
}

// biExpandMinHops is the shortest collapsible run worth counted
// expansion: below it the per-level map bookkeeping costs more than the
// walks it collapses.
const biExpandMinHops = 3

// tryBiExpand collapses the maximal run of single-hop, anonymous-interior
// edges starting at chain position idx (walking leftward or rightward)
// into one BiExpandStage — if the run is long enough and the per-hop
// degree product says enumeration would explode: past ~32 walks per row
// when the far endpoint is already bound (meet-in-the-middle pays
// immediately), or past 4× the node count when it is free (counts only
// collapse work once walks outnumber distinct nodes). Returns the number
// of hops consumed and the updated cumulative estimate. The arm that keeps
// it: BenchmarkCypherBiExpand, 0.49 ms against 52.3 ms enumerating.
func (e *Engine) tryBiExpand(stages *[]Stage, p Pattern, idx int, leftward bool,
	bound map[string]bool, eq map[string]map[string]hintVal, cur float64) (int, float64, bool) {
	var hops []BiHop
	prodDeg, est := 1.0, cur
	node := p.Nodes[idx]
	j := idx
	for {
		var edge EdgePattern
		var next NodePattern
		if leftward {
			if j == 0 {
				break
			}
			edge, next = p.Edges[j-1], p.Nodes[j-1]
		} else {
			if j == len(p.Nodes)-1 {
				break
			}
			edge, next = p.Edges[j], p.Nodes[j+1]
		}
		// Interior edges must be anonymous single hops (synthetic "$"
		// names cannot be referenced, so collapsing them is invisible).
		if edge.VarLength() || !strings.HasPrefix(edge.Var, "$") {
			break
		}
		hops = append(hops, BiHop{Edge: edge, To: next, Reverse: leftward})
		prodDeg *= e.hopDegree(nodeLabelFor(node, eq), edge, leftward)
		est *= e.expandFactor(node, edge, next, leftward, bound, eq)
		node = next
		if leftward {
			j--
		} else {
			j++
		}
		// The run ends at the first named (bindable) node.
		if !strings.HasPrefix(next.Var, "$") {
			break
		}
	}
	if len(hops) < biExpandMinHops {
		return 0, 0, false
	}
	to := hops[len(hops)-1].To
	if bound[to.Var] {
		if prodDeg <= 32 {
			return 0, 0, false
		}
	} else if prodDeg <= 4*math.Max(1, float64(e.store.CountNodes())) {
		return 0, 0, false
	}
	if est < 1 {
		est = 1
	}
	*stages = append(*stages, &BiExpandStage{From: p.Nodes[idx].Var, Hops: hops, Est: est})
	bound[to.Var] = true
	return len(hops), est, true
}

func (e *Engine) emitExpand(stages *[]Stage, src NodePattern, ep EdgePattern, to NodePattern,
	reverse bool, bound map[string]bool, est float64) float64 {
	if est < 1 {
		est = 1 // keep running products from collapsing to zero
	}
	// Whether Edge.Var/To.Var are already bound is re-derived from the
	// runtime binding by the executor, which handles both cases.
	if ep.VarLength() {
		*stages = append(*stages, &VarExpandStage{
			From: src.Var, Edge: ep, To: to, Reverse: reverse, Est: est,
		})
	} else {
		*stages = append(*stages, &ExpandStage{
			From: src.Var, Edge: ep, To: to, Reverse: reverse, Est: est,
		})
		bound[ep.Var] = true
	}
	bound[to.Var] = true
	return est
}

// nodeLabelFor resolves the label the planner may assume for a node
// pattern: its own, or one pinned by a literal type-equality hint.
func nodeLabelFor(np NodePattern, eq map[string]map[string]hintVal) string {
	if np.Label != "" {
		return np.Label
	}
	if h := eq[np.Var]; h != nil {
		if t, ok := h["type"]; ok && t.param == "" {
			return t.lit
		}
		if t, ok := h["label"]; ok && t.param == "" {
			return t.lit
		}
	}
	return ""
}

// dirFor maps an edge pattern direction (and chain walk orientation)
// onto the side of the source node the hop leaves from.
func dirFor(d EdgeDir, reverse bool) graph.Direction {
	switch {
	case d == DirAny:
		return graph.Both
	case (d == DirRight) != reverse:
		return graph.Out
	}
	return graph.In
}

// hopDegree is the average fan-out of one hop: edges of the pattern's
// type, in the traversal direction, per node with the source's label, so
// a hub label costs what the hub label fans out.
func (e *Engine) hopDegree(fromLabel string, ep EdgePattern, reverse bool) float64 {
	return e.store.AvgDegree(fromLabel, ep.Type, dirFor(ep.Dir, reverse))
}

// expandFactor estimates the per-row multiplier of expanding one edge
// pattern onto a target node pattern: the average fan-out of the (source
// label, edge type, direction) times the target's selectivity.
// Variable-length patterns cost the geometric sum of the per-hop fan-out
// over the hop range — the first hop at the source label's degree, later
// hops at the label-blind degree (unbounded ranges are capped at a
// costing horizon; execution is exact).
func (e *Engine) expandFactor(from NodePattern, ep EdgePattern, to NodePattern, reverse bool,
	bound map[string]bool, eq map[string]map[string]hintVal) float64 {
	deg := e.hopDegree(nodeLabelFor(from, eq), ep, reverse)
	if ep.VarLength() {
		tail := e.hopDegree("", ep, reverse)
		deg = varExpandFanout(deg, tail, ep.MinHops, ep.MaxHops)
	}
	total := e.store.CountNodes()
	if total == 0 {
		return 0
	}
	var sel float64
	if bound[to.Var] {
		sel = 1 / float64(total) // join check: at most one node qualifies
	} else {
		sel = e.accessFor(to, eq[to.Var]).est / float64(total)
	}
	return deg * sel
}

// varExpandFanout sums the expected frontier over hops in [min, max]:
// the first hop fans out at the source label's measured degree, later
// hops at the tail degree. max < 0 (unbounded) is capped at min+8 for
// costing only.
func varExpandFanout(first, tail float64, min, max int) float64 {
	if max < 0 || max > min+8 {
		max = min + 8
	}
	fan := 0.0
	if min == 0 {
		fan = 1 // the start node itself
	}
	pow := 1.0
	for h := 1; h <= max; h++ {
		if h == 1 {
			pow *= first
		} else {
			pow *= tail
		}
		if h >= min {
			fan += pow
		}
		if pow > 1e12 {
			break
		}
	}
	return fan
}

// --- hash-join planning ---

// joinMode is the planner's decision for one equality-linked chain.
type joinMode int

const (
	joinNested    joinMode = iota // keep the nested-loop re-expand / cartesian
	joinHashChain                 // hash the standalone chain, probe with input rows
	joinHashInput                 // hash the input rows, probe with the chain
)

// hashJoinMaxBuild caps the estimated row count of the hashed side: past
// it the build table's memory dominates whatever work the join saves, so
// the planner keeps the pipelined nested loop.
const hashJoinMaxBuild = 1 << 17

// chooseJoin is the pure cost decision between a nested-loop plan and a
// hash join, from the planner's estimates: the incoming row count, the
// standalone chain's output rows and enumeration work, the nested plan's
// work, and the join's estimated output. The chain is fully enumerated
// under either hash mode (as build or as probe), so hash work is
// chainWork + one pass over the input + the output itself; nested work
// must beat that by 1.5× before the hash table is worth building, and
// the hashed (cheaper) side must fit under hashJoinMaxBuild.
func chooseJoin(inputRows, chainRows, chainWork, nestedWork, outRows float64) joinMode {
	hashWork := chainWork + inputRows + outRows
	if hashWork*1.5 >= nestedWork {
		return joinNested
	}
	if math.Min(inputRows, chainRows) > hashJoinMaxBuild {
		return joinNested
	}
	if chainRows <= inputRows {
		return joinHashChain
	}
	return joinHashInput
}

// patternVars collects the bindable variables of a chain: node variables
// plus single-hop edge variables (variable-length edges never bind).
func patternVars(p Pattern) map[string]bool {
	vs := map[string]bool{}
	for _, np := range p.Nodes {
		if np.Var != "" {
			vs[np.Var] = true
		}
	}
	for _, ep := range p.Edges {
		if ep.Var != "" && !ep.VarLength() {
			vs[ep.Var] = true
		}
	}
	return vs
}

func sumEst(stages []Stage) float64 {
	t := 0.0
	for _, st := range stages {
		t += st.estRows()
	}
	return t
}

// planHashJoin decides whether the next chain should join the rows
// planned so far through a hash table instead of a nested re-expand.
// Join keys are the chain's shared bound node variables plus every
// cross-chain equality conjunct with one side evaluable on each scope;
// without at least one key there is nothing to hash on (a pure cartesian
// stays nested). The chain is scratch-planned twice — once anchored on
// the bound variables (the nested alternative) and once standalone (the
// build side) — and chooseJoin picks from the resulting estimates. The
// arms that keep it: the ledger's hunt-scan `join` class runs through a
// HashJoin, and BenchmarkCypherHashJoinVsNestedLoop prices it at 0.45 ms
// against 138.9 ms nested.
func (e *Engine) planHashJoin(p Pattern, bound map[string]bool,
	eq map[string]map[string]hintVal, conjs []Expr, cur float64) (*HashJoinStage, float64, bool) {
	if cur <= 1 {
		return nil, 0, false // single-row probe side: nested is at least as good
	}
	pv := patternVars(p)
	var probeKeys, buildKeys []Expr
	var shared []string
	for v := range pv {
		if bound[v] {
			shared = append(shared, v)
		}
	}
	sort.Strings(shared)
	for _, v := range shared {
		probeKeys = append(probeKeys, VarExpr{Name: v})
		buildKeys = append(buildKeys, VarExpr{Name: v})
	}
	crossKeys := 0
	for _, c := range conjs {
		cmp, ok := c.(CmpExpr)
		if !ok || cmp.Op != "=" || hasAggCall(c) {
			continue
		}
		lv, rv := map[string]bool{}, map[string]bool{}
		exprVars(cmp.Left, lv)
		exprVars(cmp.Right, rv)
		if len(lv) == 0 || len(rv) == 0 {
			continue
		}
		lB, rB := subsetOf(lv, bound), subsetOf(rv, bound)
		lP, rP := subsetOf(lv, pv), subsetOf(rv, pv)
		switch {
		case lB && rP && !rB:
			probeKeys = append(probeKeys, cmp.Left)
			buildKeys = append(buildKeys, cmp.Right)
		case rB && lP && !lB:
			probeKeys = append(probeKeys, cmp.Right)
			buildKeys = append(buildKeys, cmp.Left)
		default:
			continue
		}
		crossKeys++
	}
	if len(probeKeys) == 0 {
		return nil, 0, false
	}
	buildVars := make([]string, 0, len(pv))
	for v := range pv {
		// Synthetic "$" names are unreferencable (users cannot type them):
		// storing them in the hash table would charge the byte budget for
		// values no expression can read. Row multiplicity is preserved
		// regardless — each build match is its own bucket entry.
		if !bound[v] && !strings.HasPrefix(v, "$") {
			buildVars = append(buildVars, v)
		}
	}
	if len(buildVars) == 0 {
		return nil, 0, false // nothing referencable to bind: keep the nested plan
	}
	sort.Strings(buildVars)

	// Scratch-plan both alternatives.
	nb := copyBound(bound)
	var nested []Stage
	entry, _ := e.bestEntry(p, nb, eq)
	nestedEst := e.planChain(&nested, p, entry, nb, eq, cur)
	sb := map[string]bool{}
	var build []Stage
	sEntry, _ := e.bestEntry(p, sb, eq)
	buildEst := e.planChain(&build, p, sEntry, sb, eq, 1)
	// Push chain-local conjuncts into the build sub-pipeline so the hash
	// table holds filtered rows only. The caller's assignPredicates will
	// also attach them at the join stage (belt and braces, like scan
	// hints); aggregate calls and conjuncts referencing outer variables
	// must stay outside — they cannot evaluate in the build's namespace.
	var local []Expr
	for _, c := range conjs {
		if hasAggCall(c) {
			continue
		}
		vs := map[string]bool{}
		exprVars(c, vs)
		if len(vs) > 0 && subsetOf(vs, pv) {
			local = append(local, c)
		}
	}
	assignPredicates(build, local, andAll(local), map[string]bool{})

	outEst := nestedEst
	if crossKeys > 0 {
		// Classic equality-join selectivity with unknown distinct counts:
		// |R ⋈ S| ≈ |R|·|S| / max(|R|, |S|).
		outEst = math.Max(1, nestedEst/math.Max(1, math.Max(cur, buildEst)))
	}
	mode := chooseJoin(cur, buildEst, sumEst(build), sumEst(nested), outEst)
	if mode == joinNested {
		return nil, 0, false
	}
	return &HashJoinStage{
		Build:      build,
		BuildVars:  buildVars,
		ProbeKeys:  probeKeys,
		BuildKeys:  buildKeys,
		BuildInput: mode == joinHashInput,
		Est:        outEst,
	}, outEst, true
}

// subsetOf reports whether every variable in vs is present in set.
func subsetOf(vs map[string]bool, set map[string]bool) bool {
	for v := range vs {
		if !set[v] {
			return false
		}
	}
	return true
}

// accessPath is the planner's chosen way to locate a node pattern's
// candidates plus its estimated candidate count. Exactly one of
// name/nameParam (or attrVal/attrParam) is set for seek paths: params
// defer the key to bind time.
type accessPath struct {
	kind      AccessKind
	label     string
	name      string
	nameParam string
	attrKey   string
	attrVal   string
	attrParam string
	est       float64
}

// accessFor selects the cheapest access path for a node pattern given its
// equality hints (inline props and $params merged with pushed-down WHERE
// equalities) and returns the estimated candidate count. The returned
// label is the one the access path must use: the pattern's own, or one
// inferred from a literal type-equality predicate (n.type = "Malware"
// scans like (:Malware)). Parameter-valued hints select the same index
// kinds as literals but are costed with stats defaults — the average
// name/attribute bucket size — since the bound value is unknown at plan
// time. The index *kind* never depends on the bound value, so the plan
// is reusable across bindings without re-costing.
func (e *Engine) accessFor(np NodePattern, hints map[string]hintVal) accessPath {
	st := e.store
	total := float64(st.CountNodes())
	if !e.opts.UseIndexes {
		return accessPath{kind: AccessAll, est: total}
	}

	merged := map[string]hintVal{}
	for k, v := range np.Props {
		if v.Kind == KindString {
			merged[k] = hintVal{lit: v.Str}
		}
	}
	for k, pn := range np.ParamProps {
		if _, ok := merged[k]; !ok {
			merged[k] = hintVal{param: pn}
		}
	}
	for k, v := range hints {
		if _, ok := merged[k]; !ok {
			merged[k] = v
		}
	}
	label := np.Label
	if label == "" {
		// Only literal type predicates can pin the scan label: a
		// $param-valued one would change the access path per binding.
		if t, ok := merged["type"]; ok && t.param == "" {
			label = t.lit
		} else if t, ok := merged["label"]; ok && t.param == "" {
			label = t.lit
		}
	}

	if n, hasName := merged["name"]; hasName {
		if n.param != "" {
			est := st.AvgNameBucket()
			if label != "" {
				// (label, name) pairs are unique in the store.
				if est > 1 {
					est = 1
				}
				return accessPath{kind: AccessLabelName, label: label, nameParam: n.param, est: est}
			}
			return accessPath{kind: AccessName, nameParam: n.param, est: est}
		}
		if label != "" {
			return accessPath{kind: AccessLabelName, label: label, name: n.lit,
				est: float64(st.CountByTypeName(label, n.lit))}
		}
		return accessPath{kind: AccessName, name: n.lit, est: float64(st.CountByName(n.lit))}
	}

	// Best indexed attribute equality, composite with the label when known.
	ap := accessPath{kind: AccessAll, label: label, est: total}
	if label != "" {
		ap.kind, ap.est = AccessLabel, float64(st.CountByType(label))
	}
	for k, v := range merged {
		if k == "name" || k == "type" || k == "label" || k == "id" || !st.HasAttrIndex(k) {
			continue
		}
		var n float64
		var ok bool
		if v.param != "" {
			n, ok = st.AvgAttrBucket(k)
		} else if label != "" {
			var c int
			c, ok = st.CountByTypeAttr(label, k, v.lit)
			n = float64(c)
		} else {
			var c int
			c, ok = st.CountByAttr(k, v.lit)
			n = float64(c)
		}
		if !ok || n >= ap.est {
			continue
		}
		if label != "" {
			ap.kind = AccessLabelAttr
		} else {
			ap.kind = AccessAttr
		}
		ap.attrKey, ap.attrVal, ap.attrParam, ap.est = k, v.lit, v.param, n
		if v.param != "" {
			ap.attrVal = ""
		}
	}
	if ap.kind == AccessAll {
		ap.label = ""
	}
	return ap
}

// withSyntheticVars copies the patterns, naming every anonymous node and
// single-hop edge ($n0, $e1, ...) so the executor can address them in
// bindings. Variable-length edges never bind, so they stay anonymous.
// "$" cannot appear in user identifiers, so the names never collide.
func withSyntheticVars(pats []Pattern, counter *int) []Pattern {
	out := make([]Pattern, len(pats))
	for pi, p := range pats {
		cp := Pattern{Nodes: append([]NodePattern{}, p.Nodes...), Edges: append([]EdgePattern{}, p.Edges...)}
		for i := range cp.Nodes {
			if cp.Nodes[i].Var == "" {
				cp.Nodes[i].Var = fmt.Sprintf("$n%d", *counter)
				*counter++
			}
		}
		for i := range cp.Edges {
			if cp.Edges[i].Var == "" && !cp.Edges[i].VarLength() {
				cp.Edges[i].Var = fmt.Sprintf("$e%d", *counter)
				*counter++
			}
		}
		out[pi] = cp
	}
	return out
}

func copyBound(m map[string]bool) map[string]bool {
	out := make(map[string]bool, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// matchRun is one maximal group of consecutive clauses within a part:
// either a single OPTIONAL MATCH, or a run of required MATCHes merged
// into one joint pattern set with their WHEREs AND-folded. The planner
// and the reference evaluator the tests check it against group clauses
// through this one function, so the grouping cannot drift between them.
type matchRun struct {
	optional *MatchClause // set for an optional run
	pats     []Pattern    // required run: merged patterns
	where    Expr         // required run: AND-fold of the clauses' WHEREs
}

// requiredRuns splits a part's clauses into ordered runs: consecutive
// required MATCHes join as one group (joins are commutative), optional
// clauses stand alone so clause order is preserved across null-padding
// boundaries.
func requiredRuns(matches []MatchClause) []matchRun {
	var runs []matchRun
	i := 0
	for i < len(matches) {
		if matches[i].Optional {
			runs = append(runs, matchRun{optional: &matches[i]})
			i++
			continue
		}
		var run matchRun
		var wheres []Expr
		for i < len(matches) && !matches[i].Optional {
			run.pats = append(run.pats, matches[i].Patterns...)
			if matches[i].Where != nil {
				wheres = append(wheres, matches[i].Where)
			}
			i++
		}
		run.where = andAll(wheres)
		runs = append(runs, run)
	}
	return runs
}

// andAll folds expressions left-to-right into one AND conjunction, so
// the clauses' WHEREs are evaluated in the order they were written and
// an earlier false conjunct short-circuits a later one that would error.
func andAll(exprs []Expr) Expr {
	var out Expr
	for _, ex := range exprs {
		if out == nil {
			out = ex
		} else {
			out = BoolExpr{Op: "and", Left: out, Right: ex}
		}
	}
	return out
}

// splitConjuncts flattens top-level ANDs into a conjunct list.
func splitConjuncts(e Expr, out *[]Expr) {
	if e == nil {
		return
	}
	if b, ok := e.(BoolExpr); ok && b.Op == "and" {
		splitConjuncts(b.Left, out)
		splitConjuncts(b.Right, out)
		return
	}
	*out = append(*out, e)
}

// hintVal is one equality hint's value: a string literal known at plan
// time, or a $parameter resolved at bind time.
type hintVal struct {
	lit   string
	param string // non-empty when the hint is $param-valued
}

// equalityHints extracts var.prop = "literal" and var.prop = $param
// conjuncts usable as index hints, keyed by variable.
func equalityHints(conjs []Expr) map[string]map[string]hintVal {
	out := map[string]map[string]hintVal{}
	for _, c := range conjs {
		cmp, ok := c.(CmpExpr)
		if !ok || cmp.Op != "=" {
			continue
		}
		pe, okL := cmp.Left.(PropExpr)
		rhs := cmp.Right
		if !okL {
			pe, okL = cmp.Right.(PropExpr)
			rhs = cmp.Left
		}
		if !okL {
			continue
		}
		var hv hintVal
		switch r := rhs.(type) {
		case LitExpr:
			if r.Val.Kind != KindString {
				continue
			}
			hv = hintVal{lit: r.Val.Str}
		case ParamExpr:
			hv = hintVal{param: r.Name}
		default:
			continue
		}
		if out[pe.Var] == nil {
			out[pe.Var] = map[string]hintVal{}
		}
		out[pe.Var][pe.Prop] = hv
	}
	return out
}

// exprVars collects the variables an expression references.
func exprVars(e Expr, set map[string]bool) {
	switch v := e.(type) {
	case VarExpr:
		set[v.Name] = true
	case PropExpr:
		set[v.Var] = true
	case CmpExpr:
		exprVars(v.Left, set)
		exprVars(v.Right, set)
	case BoolExpr:
		exprVars(v.Left, set)
		exprVars(v.Right, set)
	case NotExpr:
		exprVars(v.Inner, set)
	case FuncExpr:
		if v.Arg != nil {
			exprVars(v.Arg, set)
		}
	case ListExpr:
		for _, ee := range v.Elems {
			exprVars(ee, set)
		}
	}
}

// hasAggCall reports whether the expression contains an aggregate call
// (count/min/max/sum/collect), which always errors when evaluated
// outside a projection.
func hasAggCall(e Expr) bool {
	switch v := e.(type) {
	case CmpExpr:
		return hasAggCall(v.Left) || hasAggCall(v.Right)
	case BoolExpr:
		return hasAggCall(v.Left) || hasAggCall(v.Right)
	case NotExpr:
		return hasAggCall(v.Inner)
	case FuncExpr:
		if isAggName(v.Name) {
			return true
		}
		if v.Arg != nil {
			return hasAggCall(v.Arg)
		}
	case ListExpr:
		for _, ee := range v.Elems {
			if hasAggCall(ee) {
				return true
			}
		}
	}
	return false
}

// stageBinds records the variables a stage makes available.
func stageBinds(st Stage, acc map[string]bool) {
	switch s := st.(type) {
	case *UnwindStage:
		acc[s.Alias] = true
	case *ScanStage:
		acc[s.Node.Var] = true
	case *ExpandStage:
		acc[s.From] = true
		acc[s.Edge.Var] = true
		acc[s.To.Var] = true
	case *VarExpandStage:
		acc[s.From] = true
		acc[s.To.Var] = true
	case *HashJoinStage:
		for _, v := range s.BuildVars {
			acc[v] = true
		}
	case *BiExpandStage:
		acc[s.From] = true
		acc[s.toPattern().Var] = true
	case *OptionalStage:
		for _, v := range s.Vars {
			acc[v] = true
		}
	}
}

// attach appends c to a stage's pushed-down filters and reports whether
// the stage takes filters at all: scans, expansions, hash joins and
// bidirectional expansions do; unwind, optional and mutation stages do
// not, and a conjunct they refuse stays with the caller.
func attach(st Stage, c Expr) bool {
	switch s := st.(type) {
	case *ScanStage:
		s.Filters = append(s.Filters, c)
	case *ExpandStage:
		s.Filters = append(s.Filters, c)
	case *VarExpandStage:
		s.Filters = append(s.Filters, c)
	case *HashJoinStage:
		s.Filters = append(s.Filters, c)
	case *BiExpandStage:
		s.Filters = append(s.Filters, c)
	default:
		return false
	}
	return true
}

// pushConjuncts attaches each conjunct to the earliest stage after which
// all of its variables are bound (preBound names the variables bound
// before the first stage runs) and returns, in order, the conjuncts it
// could not place: no stage binds all their variables, or the earliest
// one that does takes no filters. It is the one placement path of
// MATCH ... WHERE and WITH ... WHERE.
func pushConjuncts(stages []Stage, conjs []Expr, preBound map[string]bool) []Expr {
	boundAfter := make([]map[string]bool, len(stages))
	acc := copyBound(preBound)
	for i, st := range stages {
		stageBinds(st, acc)
		boundAfter[i] = copyBound(acc)
	}
	var refused []Expr
	for _, c := range conjs {
		vars := map[string]bool{}
		exprVars(c, vars)
		i := slices.IndexFunc(boundAfter, func(b map[string]bool) bool { return subsetOf(vars, b) })
		if i < 0 || !attach(stages[i], c) {
			refused = append(refused, c)
		}
	}
	return refused
}

// assignPredicates places a MATCH run's WHERE conjuncts with
// pushConjuncts (preBound names variables already bound before the run).
// Conjuncts that can error when evaluated — aggregate calls, or
// references to variables no pattern binds — force a fallback: the whole
// original WHERE runs at the last stage, preserving the tree-walking
// engine's left-to-right short-circuit semantics (a false left conjunct
// hides an erroring right one). Every stage of a run is a pattern stage,
// and every pattern stage takes filters, so nothing is ever refused; a
// refusal would silently drop a predicate, and panics instead.
func assignPredicates(stages []Stage, conjs []Expr, whole Expr, preBound map[string]bool) {
	if len(conjs) == 0 || len(stages) == 0 {
		return
	}
	all := copyBound(preBound)
	for _, st := range stages {
		stageBinds(st, all)
	}
	placed := true
	for _, c := range conjs {
		vars := map[string]bool{}
		exprVars(c, vars)
		if hasAggCall(c) || !subsetOf(vars, all) {
			placed = attach(stages[len(stages)-1], whole)
			conjs = nil
			break
		}
	}
	if !placed || len(pushConjuncts(stages, conjs, preBound)) > 0 {
		panic("cypher: a MATCH run's stage refused a WHERE conjunct")
	}
}

// pushWithWhere plans a WITH's WHERE conjuncts below the bridge where
// that cannot change the result, and returns what stays on the bridge
// (nil when nothing does). A conjunct goes down when all of these hold:
// the part has no writing clause; the conjunct calls no aggregate; every
// variable it references is an item the WITH passes through unchanged
// (`WITH host, ...`); and pushConjuncts finds a filterable stage of the
// outer pipeline that binds them all — it never enters an OPTIONAL
// sub-pipeline, and a conjunct it refuses stays on the bridge. Every row
// of a group carries that group's key, so dropping the rows whose key
// fails the conjunct drops exactly the groups the bridge would have
// dropped, and first-seen group order is kept (Postgres applies the same
// rule to HAVING clauses without aggregates). ORDER BY, SKIP and LIMIT
// only exist on the final part, so no WITH pages rows before its WHERE.
//
// Nothing moves when it could change which error a statement raises: a
// WHERE that calls an aggregate or names a non-item (both error on the
// first group that reaches them), or items that name a variable the
// segment never binds or sum() (which errors on a non-number) — errors
// the groups the WHERE discards would have raised while being built.
//
// The arm that justifies the rule: BenchmarkCypherScanClasses/varlen and
// the ledger's hunt-scan `varlen` class, whose aggregating WITH otherwise
// builds, collects and sorts ~15× the groups its WHERE keeps on a top hub.
func pushWithWhere(part *QueryPart, stages []Stage, carried []string, bound map[string]bool) Expr {
	if part.Where == nil || part.HasWrites() {
		return part.Where
	}
	aliases, passed := map[string]bool{}, map[string]bool{}
	for _, it := range part.Items {
		vars := map[string]bool{}
		exprVars(it.Expr, vars)
		if aggOpOf(it.Expr) == aggSum || !subsetOf(vars, bound) {
			return part.Where
		}
		aliases[it.Alias] = true
		if v, ok := it.Expr.(VarExpr); ok && v.Name == it.Alias {
			passed[it.Alias] = true
		}
	}
	var conjs, kept []Expr
	splitConjuncts(part.Where, &conjs)
	pushable := make([]bool, len(conjs))
	for i, c := range conjs {
		vars := map[string]bool{}
		exprVars(c, vars)
		if hasAggCall(c) || !subsetOf(vars, aliases) {
			return part.Where
		}
		pushable[i] = subsetOf(vars, passed)
	}
	preBound := map[string]bool{}
	for _, v := range carried {
		preBound[v] = true
	}
	for i, c := range conjs {
		if !pushable[i] || len(pushConjuncts(stages, []Expr{c}, preBound)) > 0 {
			kept = append(kept, c)
		}
	}
	if len(kept) == len(conjs) {
		return part.Where // nothing moved: keep the WHERE exactly as written
	}
	return andAll(kept)
}
