package cypher

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"strings"
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
//     smallest candidate count — a bound variable is free, an exact
//     (label, name) seek and any $param seek are ~1, a label scan costs
//     the label cardinality, a full scan costs the node count. That is
//     the only decision counts make. Everything after the entry follows
//     from the pattern: the chain grows toward the neighbour with the
//     smaller count (a bound neighbour first, ties to the right); a
//     chain linked to the rows so far only by equality conjuncts becomes
//     a hash join unless those rows come from seeks alone, hashing the
//     side with the smaller entry count; and a run of ≥3 anonymous hops
//     becomes a BiExpand exactly when its far end is bound or carries a
//     seek hint. OPTIONAL MATCH clauses plan in place (after the required
//     stages that bind their anchors) as nested sub-pipelines, preserving
//     clause order across null-padding boundaries.
//  3. The resulting stages execute as lazy pull iterators (iter.go), so
//     a downstream LIMIT or a closed cursor stops matching instead of
//     truncating a materialized result. WITH boundaries become segment
//     bridges that re-root the binding namespace.
//
// Counts come from the graph store's selectivity layer (CountNodes,
// CountByType, CountByName, CountByTypeAttr, ...): the index posting
// lengths and node counts the store keeps for its own use, so planning is
// O(pattern size) with O(1) count lookups, never walks nodes or edges,
// and no write maintains anything for the planner alone. Edge counts play
// no part.

// planQuery builds the plan for q against the engine's store and options.
// $parameter predicates are costed by structure (a seek is ~1) so one
// plan serves every binding; the chosen access path's key is resolved per
// execution by the scan iterator.
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
		// The next segment sees only the projected aliases.
		carried = make([]string, len(part.Items))
		for i, it := range part.Items {
			carried[i] = it.Alias
		}
	}
	return pl, nil
}

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
	if part.Unwind != nil {
		if bound[part.Unwind.Alias] {
			return nil, fmt.Errorf("cypher: UNWIND alias %q is already bound", part.Unwind.Alias)
		}
		seg.Stages = append(seg.Stages, &UnwindStage{Expr: part.Unwind.Expr, Alias: part.Unwind.Alias})
		bound[part.Unwind.Alias] = true
	}
	for _, run := range requiredRuns(part.Matches) {
		if run.optional != nil {
			seg.Stages = append(seg.Stages, e.planOptional(*run.optional, bound, synth))
			continue
		}
		pats := withSyntheticVars(run.pats, synth)
		var conjs []Expr
		splitConjuncts(run.where, &conjs)
		eq := equalityHints(conjs)
		runStart := len(seg.Stages)
		preRun := copyBound(bound)
		e.planPatterns(&seg.Stages, pats, bound, eq, conjs, true)
		assignPredicates(seg.Stages[runStart:], conjs, run.where, preRun)
	}
	if !final {
		seg.Filter = pushWithWhere(part, seg.Stages, carried, bound)
	}
	if wc := writeClausesOf(part); wc != nil {
		// Writes run after every read of the part has materialized
		// (the stage is an eager barrier) and bind their created
		// variables for the projection.
		seg.Stages = append(seg.Stages, &MutationStage{Writes: wc})
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
func (e *Engine) planOptional(mc MatchClause, bound map[string]bool, synth *int) *OptionalStage {
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
	e.planPatterns(&inner, pats, innerBound, eq, conjs, false)
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
	return &OptionalStage{Inner: inner, Vars: vars}
}

// planPatterns greedily orders a group of pattern chains: repeatedly pick
// the unplanned chain with the cheapest entry node (bound variables are
// free, enabling join-connected chains to piggyback on earlier ones),
// then plan it outward from there — or, when the chain is linked to the
// rows planned so far only through equality conjuncts, as a
// HashJoinStage (planHashJoin). Mutates bound.
func (e *Engine) planPatterns(stages *[]Stage, pats []Pattern, bound map[string]bool,
	eq map[string]map[string]hintVal, conjs []Expr, allowJoin bool) {
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
			return
		}
		planned[best] = true
		if allowJoin {
			if st, ok := e.planHashJoin(pats[best], *stages, bound, eq, conjs); ok {
				*stages = append(*stages, st)
				for v := range patternVars(pats[best]) {
					bound[v] = true
				}
				continue
			}
		}
		e.planChain(stages, pats[best], bestNode, bound, eq)
	}
}

// nodeCount ranks a node pattern for entering or growing a chain: a
// bound variable is free, any other node costs its access path's
// candidate count.
func (e *Engine) nodeCount(np NodePattern, bound map[string]bool, eq map[string]map[string]hintVal) float64 {
	if bound[np.Var] {
		return 0
	}
	return e.accessFor(np, eq[np.Var]).est
}

// bestEntry returns the cheapest entry node of a chain and its candidate
// count (the first of equally cheap nodes).
func (e *Engine) bestEntry(p Pattern, bound map[string]bool, eq map[string]map[string]hintVal) (int, float64) {
	best, bestCost := 0, math.Inf(1)
	for ni, np := range p.Nodes {
		if cost := e.nodeCount(np, bound, eq); cost < bestCost {
			best, bestCost = ni, cost
		}
	}
	return best, bestCost
}

// planChain emits the stages for one pattern chain entered at node index
// start. The chain then grows one step at a time toward the neighbour
// with the smaller nodeCount — a bound neighbour first, ties to the
// right — so the plan follows from the pattern and the access paths
// alone, never from edge counts.
func (e *Engine) planChain(stages *[]Stage, p Pattern, start int, bound map[string]bool,
	eq map[string]map[string]hintVal) {
	np := p.Nodes[start]
	if bound[np.Var] {
		*stages = append(*stages, &ScanStage{Node: np, Access: AccessBound})
	} else {
		ap := e.accessFor(np, eq[np.Var])
		*stages = append(*stages, &ScanStage{
			Node: np, Access: ap.kind, Label: ap.label,
			Name: ap.name, NameParam: ap.nameParam,
			AttrKey: ap.attrKey, AttrVal: ap.attrVal, AttrParam: ap.attrParam,
			Est: ap.est,
		})
		bound[np.Var] = true
	}

	lo, hi := start, start
	for lo > 0 || hi < len(p.Nodes)-1 {
		right, left := math.Inf(1), math.Inf(1)
		if hi < len(p.Nodes)-1 {
			right = e.nodeCount(p.Nodes[hi+1], bound, eq)
		}
		if lo > 0 {
			left = e.nodeCount(p.Nodes[lo-1], bound, eq)
		}
		if right <= left {
			hi += e.grow(stages, p, hi, false, bound, eq)
		} else {
			lo -= e.grow(stages, p, lo, true, bound, eq)
		}
	}
}

// grow extends a chain from node index idx (leftward or rightward) and
// returns the hops consumed: a whole run as one BiExpandStage when
// tryBiExpand takes it, else one Expand or VarExpand.
func (e *Engine) grow(stages *[]Stage, p Pattern, idx int, leftward bool,
	bound map[string]bool, eq map[string]map[string]hintVal) int {
	if hops := e.tryBiExpand(stages, p, idx, leftward, bound, eq); hops > 0 {
		return hops
	}
	from := p.Nodes[idx].Var
	var ep EdgePattern
	var to NodePattern
	if leftward {
		ep, to = p.Edges[idx-1], p.Nodes[idx-1]
	} else {
		ep, to = p.Edges[idx], p.Nodes[idx+1]
	}
	// Whether Edge.Var/To.Var are already bound is re-derived from the
	// runtime binding by the executor, which handles both cases.
	if ep.VarLength() {
		*stages = append(*stages, &VarExpandStage{From: from, Edge: ep, To: to, Reverse: leftward})
	} else {
		*stages = append(*stages, &ExpandStage{From: from, Edge: ep, To: to, Reverse: leftward})
		bound[ep.Var] = true
	}
	bound[to.Var] = true
	return 1
}

// biExpandMinHops is the shortest collapsible run worth counted
// expansion: below it the per-level map bookkeeping costs more than the
// walks it collapses.
const biExpandMinHops = 3

// tryBiExpand collapses the maximal run of single-hop, anonymous-interior
// edges starting at chain position idx (walking leftward or rightward)
// into one BiExpandStage when the run has at least biExpandMinHops hops
// and its far end is bound or carries a seek hint: then the walks meet a
// known endpoint, and counting them level by level beats enumerating
// them. Returns the number of hops consumed, 0 when the run stays plain
// expansions. What keeps it: BenchmarkCypherBiExpand, 0.49 ms against
// 52.3 ms enumerating, and a pinned 4-hop CONNECT chain between two IPs
// of kg-100k, 5.6–15.5 ms against 93 ms – 5.9 s as plain Expands
// (ARCHITECTURE.md, "Bidirectional (counted) expand").
func (e *Engine) tryBiExpand(stages *[]Stage, p Pattern, idx int, leftward bool,
	bound map[string]bool, eq map[string]map[string]hintVal) int {
	var hops []BiHop
	j := idx
	for {
		var edge EdgePattern
		var next NodePattern
		if leftward {
			if j == 0 {
				break
			}
			edge, next = p.Edges[j-1], p.Nodes[j-1]
			j--
		} else {
			if j == len(p.Nodes)-1 {
				break
			}
			edge, next = p.Edges[j], p.Nodes[j+1]
			j++
		}
		// Interior edges must be anonymous single hops (synthetic "$"
		// names cannot be referenced, so collapsing them is invisible).
		if edge.VarLength() || !strings.HasPrefix(edge.Var, "$") {
			break
		}
		hops = append(hops, BiHop{Edge: edge, To: next, Reverse: leftward})
		// The run ends at the first named (bindable) node.
		if !strings.HasPrefix(next.Var, "$") {
			break
		}
	}
	if len(hops) < biExpandMinHops {
		return 0
	}
	to := hops[len(hops)-1].To
	if !bound[to.Var] && !e.accessFor(to, eq[to.Var]).kind.isSeek() {
		return 0
	}
	*stages = append(*stages, &BiExpandStage{From: p.Nodes[idx].Var, Hops: hops})
	bound[to.Var] = true
	return len(hops)
}

// --- hash-join planning ---

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

// seeksOnly reports whether the rows planned so far come from seeks and
// re-checks of bound variables alone, so that they are few and the next
// chain is better re-expanded per row than hashed.
func seeksOnly(input []Stage) bool {
	for _, st := range input {
		sc, ok := st.(*ScanStage)
		if !ok || !(sc.Access.isSeek() || sc.Access == AccessBound) {
			return false
		}
	}
	return true
}

// inputEntry is the entry count of the rows planned so far: their first
// scan's candidate count, or 0 when an UNWIND comes first or no scan
// does, so that a batch, like a WITH's carried rows, counts as the
// smaller side of a join.
func inputEntry(input []Stage) float64 {
	for _, st := range input {
		switch s := st.(type) {
		case *UnwindStage:
			return 0
		case *ScanStage:
			if s.Access != AccessBound {
				return s.Est
			}
		}
	}
	return 0
}

// planHashJoin plans the next chain as a hash join against the rows
// planned so far (input) when the chain is linked to them only through
// equality conjuncts — at least one with one side evaluable on each
// scope, and no variable shared with the input — and the input is not
// seeks only. The chain is planned standalone as the build
// sub-pipeline; the side whose entry count is smaller is hashed (ties
// hash the chain). A shared variable keeps the nested re-expand from it,
// and a pure cartesian has no key to hash on. The arms that keep it: the
// ledger's hunt-scan `join` class runs through a HashJoin, and
// BenchmarkCypherHashJoinVsNestedLoop prices it at 0.45 ms against
// 138.9 ms nested.
func (e *Engine) planHashJoin(p Pattern, input []Stage, bound map[string]bool,
	eq map[string]map[string]hintVal, conjs []Expr) (*HashJoinStage, bool) {
	pv := patternVars(p)
	for v := range pv {
		if bound[v] {
			return nil, false
		}
	}
	if seeksOnly(input) {
		return nil, false
	}
	var probeKeys, buildKeys []Expr
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
		switch {
		case subsetOf(lv, bound) && subsetOf(rv, pv):
			probeKeys = append(probeKeys, cmp.Left)
			buildKeys = append(buildKeys, cmp.Right)
		case subsetOf(rv, bound) && subsetOf(lv, pv):
			probeKeys = append(probeKeys, cmp.Right)
			buildKeys = append(buildKeys, cmp.Left)
		}
	}
	if len(probeKeys) == 0 {
		return nil, false
	}
	buildVars := make([]string, 0, len(pv))
	for v := range pv {
		// Synthetic "$" names are unreferencable (users cannot type them):
		// storing them in the hash table would charge the byte budget for
		// values no expression can read. Row multiplicity is preserved
		// regardless — each build match is its own bucket entry.
		if !strings.HasPrefix(v, "$") {
			buildVars = append(buildVars, v)
		}
	}
	sort.Strings(buildVars)

	sb := map[string]bool{}
	var build []Stage
	entry, _ := e.bestEntry(p, sb, eq)
	e.planChain(&build, p, entry, sb, eq)
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

	return &HashJoinStage{
		Build:      build,
		BuildVars:  buildVars,
		ProbeKeys:  probeKeys,
		BuildKeys:  buildKeys,
		BuildInput: inputEntry(input) < build[0].(*ScanStage).Est,
	}, true
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
// kinds as literals but, their value unknown at plan time, are costed by
// structure: a name or indexed-attribute seek at one node, like a literal
// (label, name) seek, so a seek ranks before a label scan and a label
// scan before a full scan. The index *kind* never depends on the bound
// value, so the plan is reusable across bindings without re-costing.
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
			if label != "" {
				return accessPath{kind: AccessLabelName, label: label, nameParam: n.param, est: 1}
			}
			return accessPath{kind: AccessName, nameParam: n.param, est: 1}
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
	// Sorted, so that of two equally cheap keys the plan always takes the
	// same one.
	for _, k := range slices.Sorted(maps.Keys(merged)) {
		v := merged[k]
		if k == "name" || k == "type" || k == "label" || k == "id" || !st.HasAttrIndex(k) {
			continue
		}
		n := 1.0 // a $param seek, costed by structure
		if v.param == "" {
			// The key is indexed (checked above), so the count is exact.
			var c int
			if label != "" {
				c, _ = st.CountByTypeAttr(label, k, v.lit)
			} else {
				c, _ = st.CountByAttr(k, v.lit)
			}
			n = float64(c)
		}
		if n >= ap.est {
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
