package cypher

import (
	"slices"
	"strings"

	"securitykg/internal/graph"
)

// The executor runs plans as lazy pull-based iterators (Volcano style,
// but with a single shared slot frame per segment (frame.go) mutated in
// place and undone on backtrack instead of cloned per level). Each stage's
// iterator pulls from its input only when it needs another row, so
// LIMIT, MaxRows and aggregate early exits stop pattern matching
// upstream instead of truncating a materialized match set. Each
// segment ends in a projection (rows.go); at a WITH boundary a bridge
// (withIter) makes the upstream segment's projected row the downstream
// segment's entire binding namespace.

// iter advances the shared binding to the next complete extension.
type iter interface {
	next() (bool, error)
}

// execCtx is the shared execution state of one pipeline segment: the
// engine and the one binding all of the segment's stage iterators extend
// and unwind, plus the execution's parameter bindings and byte budget
// (both shared across every segment of the query).
type execCtx struct {
	e      *Engine
	b      binding
	ps     params
	bud    *byteBudget
	writes *WriteStats // shared across segments; nil for read-only plans
	// prof, non-nil only under EXPLAIN ANALYZE, makes buildStageChain wrap
	// every stage iterator in a profiling decorator (analyze.go). The nil
	// check happens at pipeline construction, so un-analyzed executions
	// run the exact pre-existing iterator chain.
	prof *planProf
}

func (s *ScanStage) newIter(ec *execCtx, input iter) iter {
	return &scanIter{ec: ec, st: s, input: input}
}

func (s *ExpandStage) newIter(ec *execCtx, input iter) iter {
	return &expandIter{ec: ec, st: s, input: input}
}

func (s *VarExpandStage) newIter(ec *execCtx, input iter) iter {
	return &varExpandIter{ec: ec, st: s, input: input}
}

func (s *HashJoinStage) newIter(ec *execCtx, input iter) iter {
	if input == nil {
		input = &onceIter{}
	}
	return &hashJoinIter{ec: ec, st: s, input: input}
}

func (s *BiExpandStage) newIter(ec *execCtx, input iter) iter {
	return &biExpandIter{ec: ec, st: s, input: input}
}

func (s *OptionalStage) newIter(ec *execCtx, input iter) iter {
	if input == nil {
		input = &onceIter{}
	}
	// The planner roots every optional sub-pipeline at a scan (planChain),
	// which is the one iterator that latches exhaustion and so the one
	// the optional iterator must re-arm per input row.
	head := &scanIter{ec: ec, st: s.Inner[0].(*ScanStage)}
	var root iter = head
	if ec.prof != nil {
		root = ec.prof.wrap(s.Inner[0], head, nil)
	}
	return &optionalIter{ec: ec, st: s, input: input,
		head: head, inner: buildStageChain(ec, s.Inner[1:], root)}
}

func (s *MutationStage) newIter(ec *execCtx, input iter) iter {
	return &mutationIter{ec: ec, st: s, input: input}
}

func (s *UnwindStage) newIter(ec *execCtx, input iter) iter {
	if input == nil {
		input = &onceIter{}
	}
	return &unwindIter{ec: ec, st: s, input: input}
}

// buildStageChain wires a stage list into a pull pipeline. input is nil
// for a pipeline rooted at the virtual single input row.
func buildStageChain(ec *execCtx, stages []Stage, input iter) iter {
	root := input
	for _, st := range stages {
		it := st.newIter(ec, root)
		if ec.prof != nil {
			it = ec.prof.wrap(st, it, root)
		}
		root = it
	}
	return root
}

// onceIter emits the single virtual input row.
type onceIter struct{ done bool }

func (o *onceIter) next() (bool, error) {
	if o.done {
		return false, nil
	}
	o.done = true
	return true, nil
}

func evalPreds(preds []Expr, b *binding, ps params) (bool, error) {
	for _, p := range preds {
		v, err := evalExpr(p, b, ps)
		if err != nil {
			return false, err
		}
		if !v.Truthy() {
			return false, nil
		}
	}
	return true, nil
}

// --- chunked node reads ---

// nodeWindow walks a list of node IDs, resolving them through the view a
// chunk at a time (graph.View.Nodes: one hold of the store's read lock
// per chunk rather than per node). The lock is only ever held inside a
// refill, so never across a next() — a paused cursor or a stalled
// client holds nothing. The first chunk is small, so a LIMIT or an
// abandoned cursor resolves few nodes it never reads.
type nodeWindow struct {
	ids   []graph.NodeID
	nodes []*graph.Node // ids[lo : lo+len(nodes)], resolved
	lo    int
	i     int // next position in ids
}

// Window sizes. The store bounds its own lock holds (graph.View.Nodes);
// these only decide how far ahead of the consumer a window resolves.
const (
	firstWindow = 16
	nextWindow  = 256
)

func (w *nodeWindow) reset(ids []graph.NodeID) {
	w.ids, w.nodes, w.lo, w.i = ids, w.nodes[:0], 0, 0
}

// next returns the next listed node the view can see (its position in
// the list is then w.i-1), or nil when the list is exhausted.
func (w *nodeWindow) next(view graph.View) *graph.Node {
	for w.i < len(w.ids) {
		if w.i == w.lo+len(w.nodes) {
			n := nextWindow
			if w.i == 0 {
				n = firstWindow
			}
			w.lo = w.i
			w.nodes = view.Nodes(w.nodes[:0], w.ids[w.i:min(w.i+n, len(w.ids))])
		}
		n := w.nodes[w.i-w.lo]
		w.i++
		if n != nil {
			return n
		}
	}
	return nil
}

// --- scan ---

type scanIter struct {
	ec        *execCtx
	st        *ScanStage
	input     iter // nil for the first stage (single virtual input row)
	started   bool
	active    bool
	fetched   bool // ids loaded once; the access path is constant per query
	ids       []graph.NodeID
	win       nodeWindow
	boundCand *graph.Node // AccessBound: the single candidate
	set       bool        // we bound Node.Var on the last emitted row
}

func (s *scanIter) fetchIDs() []graph.NodeID {
	st := s.ec.e.view
	// Parameter-valued seeks resolve their key at execution time; the
	// access path itself was chosen at plan time and is shared by every
	// binding. A non-string value can never equal a node name or
	// attribute, so the seek is empty.
	name := s.st.Name
	if s.st.NameParam != "" {
		v, ok := s.ec.ps.get(s.st.NameParam)
		if !ok || v.Kind != KindString {
			return nil
		}
		name = v.Str
	}
	attrVal := s.st.AttrVal
	if s.st.AttrParam != "" {
		v, ok := s.ec.ps.get(s.st.AttrParam)
		if !ok || v.Kind != KindString {
			return nil
		}
		attrVal = v.Str
	}
	switch s.st.Access {
	case AccessLabel:
		return st.NodeIDsByType(s.st.Label)
	case AccessName:
		return st.NodeIDsByName(name)
	case AccessLabelName:
		if n := st.FindNode(s.st.Label, name); n != nil {
			return []graph.NodeID{n.ID}
		}
		return nil
	case AccessAttr:
		return st.NodeIDsByAttr(s.st.AttrKey, attrVal)
	case AccessLabelAttr:
		return st.NodeIDsByTypeAttr(s.st.Label, s.st.AttrKey, attrVal)
	}
	return st.AllNodeIDs()
}

func (s *scanIter) next() (bool, error) {
	ec := s.ec
	st := s.st
	for {
		if !s.active {
			if s.input == nil {
				if s.started {
					return false, nil
				}
				s.started = true
			} else {
				ok, err := s.input.next()
				if err != nil || !ok {
					return false, err
				}
			}
			s.active = true
			s.boundCand = nil
			if st.Access == AccessBound {
				if v := &ec.b.vals[st.slot]; v.Kind == KindNode {
					s.boundCand = v.Node
				}
			} else {
				if !s.fetched {
					s.ids = s.fetchIDs()
					s.fetched = true
				}
				s.win.reset(s.ids)
			}
		}
		if s.set {
			ec.b.unset(st.slot)
			s.set = false
		}
		for {
			var n *graph.Node
			if st.Access == AccessBound {
				if s.boundCand == nil {
					break
				}
				n, s.boundCand = s.boundCand, nil
			} else if n = s.win.next(ec.e.view); n == nil {
				break
			}
			if !nodeMatches(&st.Node, n, ec.ps) {
				continue
			}
			if st.Access != AccessBound {
				if prev := &ec.b.vals[st.slot]; prev.Kind != kindUnbound {
					if prev.Kind != KindNode || prev.Node.ID != n.ID {
						continue
					}
				} else {
					*prev = NodeValue(n)
					s.set = true
				}
			}
			ok, err := evalPreds(st.Filters, &ec.b, ec.ps)
			if err != nil {
				return false, err
			}
			if !ok {
				if s.set {
					ec.b.unset(st.slot)
					s.set = false
				}
				continue
			}
			return true, nil
		}
		s.active = false
	}
}

// --- expand ---

type expandIter struct {
	ec     *execCtx
	st     *ExpandStage
	input  iter
	active bool
	// inc is the reusable incidence buffer: one IncidentEdges call per
	// input row, no per-edge record fetches; others lists its far
	// endpoints for the chunked node reads. The edge record itself is
	// only materialized (store.Edge) when a user-named edge variable
	// must be bound; synthetic "$" variables (edgeSlot < 0) skip binding
	// entirely — nothing can reference them.
	inc     []graph.IncidentEdge
	others  []graph.NodeID
	win     nodeWindow
	setEdge bool
	setNode bool
}

// expandDir maps an edge pattern direction onto the store traversal
// direction from the expansion's starting endpoint, as the one value
// IncidentEdges traverses natively (Both: the out block, then the in
// block). Reverse means the chain is being walked right-to-left,
// flipping the arrow.
func expandDir(d EdgeDir, reverse bool) graph.Direction {
	switch d {
	case DirRight:
		if reverse {
			return graph.In
		}
		return graph.Out
	case DirLeft:
		if reverse {
			return graph.Out
		}
		return graph.In
	}
	return graph.Both
}

func (x *expandIter) undo() {
	if x.setEdge {
		x.ec.b.unset(x.st.edgeSlot)
		x.setEdge = false
	}
	if x.setNode {
		x.ec.b.unset(x.st.toSlot)
		x.setNode = false
	}
}

func (x *expandIter) next() (bool, error) {
	ec := x.ec
	st := x.st
	for {
		if !x.active {
			ok, err := x.input.next()
			if err != nil || !ok {
				return false, err
			}
			v := &ec.b.vals[st.fromSlot]
			if v.Kind != KindNode {
				continue // non-node binding (e.g. optional null): no expansion
			}
			x.inc = ec.e.view.IncidentEdges(x.inc[:0], v.Node.ID,
				expandDir(st.Edge.Dir, st.Reverse), st.Edge.Type)
			x.others = slices.Grow(x.others[:0], len(x.inc))
			for _, he := range x.inc {
				x.others = append(x.others, he.Other)
			}
			x.win.reset(x.others)
			x.active = true
		}
		x.undo()
		for {
			other := x.win.next(ec.e.view)
			if other == nil {
				break
			}
			if st.edgeSlot >= 0 {
				he := x.inc[x.win.i-1]
				if prev := &ec.b.vals[st.edgeSlot]; prev.Kind != kindUnbound {
					if prev.Kind != KindEdge || prev.Edge.ID != he.ID {
						continue
					}
				} else if ed := ec.e.view.Edge(he.ID); ed != nil {
					*prev = EdgeValue(ed)
					x.setEdge = true
				} else {
					continue
				}
			}
			if !nodeMatches(&st.To, other, ec.ps) {
				x.undo()
				continue
			}
			if prev := &ec.b.vals[st.toSlot]; prev.Kind != kindUnbound {
				if prev.Kind != KindNode || prev.Node.ID != other.ID {
					x.undo()
					continue
				}
			} else {
				*prev = NodeValue(other)
				x.setNode = true
			}
			ok, err := evalPreds(st.Filters, &ec.b, ec.ps)
			if err != nil {
				return false, err
			}
			if !ok {
				x.undo()
				continue
			}
			return true, nil
		}
		x.active = false
	}
}

// --- variable-length expand ---

// varExpandIter streams the bounded BFS of a variable-length pattern:
// for every input row it computes the set of nodes whose shortest
// distance from the anchor lies within the hop range (bfsWalk) and binds
// the target variable once per distinct endpoint.
type varExpandIter struct {
	ec     *execCtx
	st     *VarExpandStage
	input  iter
	active bool
	walk   bfsWalk
	win    nodeWindow
	set    bool
}

func (x *varExpandIter) next() (bool, error) {
	ec := x.ec
	st := x.st
	for {
		if !x.active {
			ok, err := x.input.next()
			if err != nil || !ok {
				return false, err
			}
			v := &ec.b.vals[st.fromSlot]
			if v.Kind != KindNode {
				continue // non-node binding (e.g. optional null): nothing reachable
			}
			x.win.reset(x.walk.targets(ec.e.view, v.Node.ID, st.Edge, st.Reverse))
			x.active = true
		}
		if x.set {
			ec.b.unset(st.toSlot)
			x.set = false
		}
		for {
			n := x.win.next(ec.e.view)
			if n == nil {
				break
			}
			if !nodeMatches(&st.To, n, ec.ps) {
				continue
			}
			if prev := &ec.b.vals[st.toSlot]; prev.Kind != kindUnbound {
				if prev.Kind != KindNode || prev.Node.ID != n.ID {
					continue
				}
			} else {
				*prev = NodeValue(n)
				x.set = true
			}
			ok, err := evalPreds(st.Filters, &ec.b, ec.ps)
			if err != nil {
				return false, err
			}
			if !ok {
				if x.set {
					ec.b.unset(st.toSlot)
					x.set = false
				}
				continue
			}
			return true, nil
		}
		x.active = false
	}
}

// --- hash join ---

// joinKey evaluates the key expressions against a binding and appends
// them to buf[:0] as one hashable key. ok=false when any component is
// null: a null key can never satisfy the equality the join implements,
// so the row is dropped exactly as the predicate filter would have
// dropped it.
func joinKey(buf []byte, keys []Expr, b *binding, ps params) ([]byte, bool, error) {
	buf = buf[:0]
	for i, k := range keys {
		v, err := evalExpr(k, b, ps)
		if err != nil {
			return buf, false, err
		}
		if v.Kind == KindNull {
			return buf, false, nil
		}
		if i > 0 {
			buf = append(buf, 0)
		}
		buf = v.appendKey(buf)
	}
	return buf, true, nil
}

// joinBucket holds the hashed side's rows for one key, in insertion
// order: projected build variables when the chain is hashed, whole
// frames when the input is.
type joinBucket struct {
	rows   [][]Value
	frames []binding
}

// hashJoinIter executes a HashJoinStage. Build-side rows are charged to
// the query's byte budget as they are retained — the hash table is the
// stage's one materialization point. Bucket contents keep insertion
// order and the chain enumerates deterministically, so output order is
// byte-stable across runs. Keys are built in a reused buffer and probed
// as string(key), so only a bucket's first row allocates its key.
type hashJoinIter struct {
	ec      *execCtx
	st      *HashJoinStage
	input   iter
	started bool
	buckets map[string]*joinBucket
	key     []byte

	// build=chain mode: chain rows hashed, input rows probe.
	matches   [][]Value
	mi        int
	installed bool

	// build=input mode: input rows hashed, chain streams as probe.
	chain     iter
	chainB    binding
	inMatches []binding
	imi       int
	merged    *binding // bucket row currently extended with chain vars
	mergedSet []int    // chain slots installed into merged (for undo)
}

// bucket returns the bucket of the key in h.key, creating it if asked.
func (h *hashJoinIter) bucket(create bool) *joinBucket {
	bk := h.buckets[string(h.key)]
	if bk == nil && create {
		bk = &joinBucket{}
		h.buckets[string(h.key)] = bk
	}
	return bk
}

func (h *hashJoinIter) undo() {
	if h.installed {
		for _, slot := range h.st.buildSlots {
			h.ec.b.unset(slot)
		}
		h.installed = false
	}
}

func (h *hashJoinIter) next() (bool, error) {
	if h.st.BuildInput {
		return h.nextBuildInput()
	}
	ec := h.ec
	if !h.started {
		h.started = true
		h.buckets = map[string]*joinBucket{}
		// The build sub-pipeline runs once over a frame of its own; it
		// shares the engine, slot table, parameters and byte budget.
		bec := &execCtx{e: ec.e, b: newBinding(ec.b.tab), ps: ec.ps, bud: ec.bud, prof: ec.prof}
		chain := buildStageChain(bec, h.st.Build, nil)
		for {
			ok, err := chain.next()
			if err != nil {
				return false, err
			}
			if !ok {
				break
			}
			if h.key, ok, err = joinKey(h.key, h.st.BuildKeys, &bec.b, ec.ps); err != nil {
				return false, err
			}
			if !ok {
				continue
			}
			row := make([]Value, len(h.st.buildSlots))
			for i, slot := range h.st.buildSlots {
				row[i] = bec.b.vals[slot]
			}
			if err := ec.bud.charge(24 + len(h.key) + rowBytes(row)); err != nil {
				return false, err
			}
			bk := h.bucket(true)
			bk.rows = append(bk.rows, row)
		}
	}
	for {
		h.undo()
		for h.mi < len(h.matches) {
			row := h.matches[h.mi]
			h.mi++
			for i, slot := range h.st.buildSlots {
				ec.b.vals[slot] = row[i]
			}
			h.installed = true
			ok, err := evalPreds(h.st.Filters, &ec.b, ec.ps)
			if err != nil {
				return false, err
			}
			if ok {
				return true, nil
			}
			h.undo()
		}
		ok, err := h.input.next()
		if err != nil || !ok {
			return false, err
		}
		if h.key, ok, err = joinKey(h.key, h.st.ProbeKeys, &ec.b, ec.ps); err != nil {
			return false, err
		}
		if !ok {
			continue
		}
		h.matches, h.mi = nil, 0
		if bk := h.bucket(false); bk != nil {
			h.matches = bk.rows
		}
	}
}

// nextBuildInput is the flipped mode: the incoming rows are the smaller
// side, so they are drained into the hash table and the chain streams
// as the probe. The segment binding is swapped wholesale per emitted
// row (the same technique mutationIter uses to re-stream buffered rows).
func (h *hashJoinIter) nextBuildInput() (bool, error) {
	ec := h.ec
	if !h.started {
		h.started = true
		h.buckets = map[string]*joinBucket{}
		for {
			ok, err := h.input.next()
			if err != nil {
				return false, err
			}
			if !ok {
				break
			}
			if h.key, ok, err = joinKey(h.key, h.st.ProbeKeys, &ec.b, ec.ps); err != nil {
				return false, err
			}
			if !ok {
				continue
			}
			if err := ec.bud.charge(bindingBytes(ec.b)); err != nil {
				return false, err
			}
			bk := h.bucket(true)
			bk.frames = append(bk.frames, ec.b.clone())
		}
		h.chainB = newBinding(ec.b.tab)
		ec.b = h.chainB
		h.chain = buildStageChain(ec, h.st.Build, nil)
	}
	for {
		// Restore the previously emitted bucket row before reusing it (or
		// any other) — the same install/undo discipline the build=chain
		// mode applies to the shared binding, so no per-row clones.
		if h.merged != nil {
			for _, slot := range h.mergedSet {
				h.merged.unset(slot)
			}
			h.merged, h.mergedSet = nil, h.mergedSet[:0]
		}
		if h.imi < len(h.inMatches) {
			outer := &h.inMatches[h.imi]
			h.imi++
			// The build slots are unbound in every probe row (bound and
			// synthetic vars are excluded at plan time), so installing
			// into the bucket row cannot shadow anything.
			for _, slot := range h.st.buildSlots {
				if h.chainB.bound(slot) {
					outer.vals[slot] = h.chainB.vals[slot]
					h.mergedSet = append(h.mergedSet, slot)
				}
			}
			h.merged = outer
			ec.b = *outer
			ok, err := evalPreds(h.st.Filters, &ec.b, ec.ps)
			if err != nil {
				return false, err
			}
			if ok {
				return true, nil
			}
			continue
		}
		ec.b = h.chainB
		ok, err := h.chain.next()
		if err != nil || !ok {
			return false, err
		}
		if h.key, ok, err = joinKey(h.key, h.st.BuildKeys, &h.chainB, ec.ps); err != nil {
			return false, err
		}
		if !ok {
			continue
		}
		h.inMatches, h.imi = nil, 0
		if bk := h.bucket(false); bk != nil {
			h.inMatches = bk.frames
		}
	}
}

// --- bidirectional (counted) expand ---

// biExpandIter executes a BiExpandStage: per input row it runs a counted
// frontier expansion — each BFS level maps node → number of walks
// reaching it, so multiplicities collapse level by level instead of
// being enumerated path by path. With the far endpoint already bound it
// expands from both ends and intersects the counts at the middle level;
// otherwise it streams the final level in node-ID order (deterministic),
// emitting each row once per walk so the output multiset is exactly the
// nested Expand chain's.
type biExpandIter struct {
	ec    *execCtx
	st    *BiExpandStage
	input iter

	active    bool
	remaining int // duplicate emissions left for the current row
	ids       []graph.NodeID
	counts    map[graph.NodeID]int
	i         int
	set       bool
	inc       []graph.IncidentEdge // reusable incidence buffer
}

// stepCounts advances one counted BFS level across one hop: every walk
// count flows along each matching edge, landing only on nodes that
// match the hop's target pattern.
func (x *biExpandIter) stepCounts(cur map[graph.NodeID]int, edge EdgePattern, to NodePattern, reverse bool) map[graph.NodeID]int {
	ec := x.ec
	next := map[graph.NodeID]int{}
	dir := expandDir(edge.Dir, reverse)
	for id, c := range cur {
		x.inc = ec.e.view.IncidentEdges(x.inc[:0], id, dir, edge.Type)
		for _, he := range x.inc {
			otherID := he.Other
			if _, seen := next[otherID]; !seen {
				n := ec.e.view.Node(otherID)
				if n == nil || !nodeMatches(&to, n, ec.ps) {
					next[otherID] = -1 // rejected: cached so we match each node once
					continue
				}
				next[otherID] = 0
			}
			if next[otherID] >= 0 {
				next[otherID] += c
			}
		}
	}
	for id, c := range next {
		if c <= 0 {
			delete(next, id)
		}
	}
	return next
}

// forwardCounts runs the counted expansion over hops[0:n].
func (x *biExpandIter) forwardCounts(from graph.NodeID, hops []BiHop) map[graph.NodeID]int {
	cur := map[graph.NodeID]int{from: 1}
	for _, h := range hops {
		if len(cur) == 0 {
			return cur
		}
		cur = x.stepCounts(cur, h.Edge, h.To, h.Reverse)
	}
	return cur
}

// meetCount counts the walks from `from` to the bound node `to`:
// forward over the first half of the hops, backward (directions
// flipped) over the second half, then the dot product of the two count
// maps over the middle frontier.
func (x *biExpandIter) meetCount(from, to graph.NodeID) int {
	hops := x.st.Hops
	l := len(hops) / 2
	fwd := x.forwardCounts(from, hops[:l])
	if len(fwd) == 0 {
		return 0
	}
	bwd := map[graph.NodeID]int{to: 1}
	for j := len(hops) - 1; j >= l; j-- {
		if len(bwd) == 0 {
			return 0
		}
		// Walking hop j from its target back to its source: flip the
		// orientation; the landing nodes are hop j-1's targets.
		bwd = x.stepCounts(bwd, hops[j].Edge, hops[j-1].To, !hops[j].Reverse)
	}
	total := 0
	for id, c := range fwd {
		total += c * bwd[id]
	}
	return total
}

func (x *biExpandIter) clear() {
	if x.set {
		x.ec.b.unset(x.st.toSlot)
		x.set = false
	}
}

func (x *biExpandIter) next() (bool, error) {
	ec := x.ec
	to := x.st.toPattern()
	for {
		if x.remaining > 0 {
			x.remaining--
			return true, nil
		}
		if !x.active {
			x.clear()
			ok, err := x.input.next()
			if err != nil || !ok {
				return false, err
			}
			v := &ec.b.vals[x.st.fromSlot]
			if v.Kind != KindNode {
				continue // non-node binding (e.g. optional null): no walks
			}
			if prev := &ec.b.vals[x.st.toSlot]; prev.Kind != kindUnbound {
				// Far endpoint already bound: meet in the middle.
				if prev.Kind != KindNode || !nodeMatches(&to, prev.Node, ec.ps) {
					continue
				}
				c := x.meetCount(v.Node.ID, prev.Node.ID)
				if c == 0 {
					continue
				}
				ok, err := evalPreds(x.st.Filters, &ec.b, ec.ps)
				if err != nil {
					return false, err
				}
				if !ok {
					continue
				}
				x.remaining = c
				continue
			}
			x.counts = x.forwardCounts(v.Node.ID, x.st.Hops)
			x.ids = x.ids[:0]
			for id := range x.counts {
				x.ids = append(x.ids, id)
			}
			slices.Sort(x.ids)
			x.i = 0
			x.active = true
		}
		x.clear()
		for x.i < len(x.ids) {
			id := x.ids[x.i]
			x.i++
			n := ec.e.view.Node(id)
			if n == nil {
				continue
			}
			ec.b.vals[x.st.toSlot] = NodeValue(n)
			x.set = true
			ok, err := evalPreds(x.st.Filters, &ec.b, ec.ps)
			if err != nil {
				return false, err
			}
			if !ok {
				x.clear()
				continue
			}
			x.remaining = x.counts[id] - 1
			return true, nil
		}
		x.active = false
	}
}

// --- optional ---

// optionalIter runs the optional sub-pipeline once per input row. Rows
// with at least one extension stream each of them; rows with none pass
// through once with the sub-pipeline's variables bound to null. The
// inner chain is built once and shares the segment's binding, so
// anchored scans and expands read the outer row's variables directly;
// an exhausted chain has undone all its bindings and every stage but
// its head scan pulls afresh, so re-arming the head restarts it for the
// next input row with its buffers (incidence lists, node windows, the
// head's candidate IDs) kept.
type optionalIter struct {
	ec      *execCtx
	st      *OptionalStage
	input   iter
	head    *scanIter // first inner stage
	inner   iter      // last inner stage
	running bool      // inner is mid-enumeration for the current input row
	matched bool
	padded  bool
}

func (o *optionalIter) clearPad() {
	if o.padded {
		for _, slot := range o.st.slots {
			o.ec.b.unset(slot)
		}
		o.padded = false
	}
}

func (o *optionalIter) next() (bool, error) {
	for {
		if !o.running {
			o.clearPad()
			ok, err := o.input.next()
			if err != nil || !ok {
				return false, err
			}
			o.head.started = false
			o.running, o.matched = true, false
		}
		ok, err := o.inner.next()
		if err != nil {
			return false, err
		}
		if ok {
			o.matched = true
			return true, nil
		}
		o.running = false
		if !o.matched {
			for _, slot := range o.st.slots {
				o.ec.b.vals[slot] = NullValue()
			}
			o.padded = true
			return true, nil
		}
	}
}

// --- unwind ---

// unwindIter evaluates the UNWIND expression once per input row and
// streams its elements one at a time, binding each to Alias with the
// same install/undo discipline the expand iterators use. Null unwinds
// to zero rows; a non-list value unwinds to itself (one row). It never
// materializes more than the already-evaluated list, so a 10k-row
// $batch flows element by element into the eager MutationStage.
type unwindIter struct {
	ec     *execCtx
	st     *UnwindStage
	input  iter
	active bool
	list   []Value
	one    [1]Value // non-list backing: avoids a per-row allocation
	i      int
	set    bool
}

func (u *unwindIter) next() (bool, error) {
	ec := u.ec
	for {
		if !u.active {
			if u.set {
				ec.b.unset(u.st.slot)
				u.set = false
			}
			ok, err := u.input.next()
			if err != nil || !ok {
				return false, err
			}
			v, err := evalExpr(u.st.Expr, &ec.b, ec.ps)
			if err != nil {
				return false, err
			}
			switch v.Kind {
			case KindNull:
				continue
			case KindList:
				u.list = v.List
			default:
				u.one[0] = v
				u.list = u.one[:]
			}
			u.i = 0
			u.active = true
		}
		if u.set {
			ec.b.unset(u.st.slot)
			u.set = false
		}
		if u.i < len(u.list) {
			ec.b.vals[u.st.slot] = u.list[u.i]
			u.i++
			u.set = true
			return true, nil
		}
		u.active = false
	}
}

// --- mutation (eager write barrier) ---

// mutationIter applies a part's writing clauses: on the first pull it
// drains its entire input, cloning each row (charged to the byte
// budget), applies the writes once per buffered row in input order —
// all mutations complete before the first row leaves the stage — then
// re-streams the rows by installing each buffered (and write-extended)
// binding as the segment's current row. The input is nil for a
// write-only query rooted at the single virtual row.
type mutationIter struct {
	ec      *execCtx
	st      *MutationStage
	input   iter
	started bool
	buf     []binding
	i       int
}

func (m *mutationIter) next() (bool, error) {
	ec := m.ec
	if !m.started {
		m.started = true
		if m.input == nil {
			m.buf = append(m.buf, ec.b.clone())
		} else {
			for {
				ok, err := m.input.next()
				if err != nil {
					return false, err
				}
				if !ok {
					break
				}
				if err := ec.bud.charge(bindingBytes(ec.b)); err != nil {
					return false, err
				}
				m.buf = append(m.buf, ec.b.clone())
			}
		}
		for _, b := range m.buf {
			if err := ec.e.applyWrites(m.st.Writes, b, ec.ps, ec.writes); err != nil {
				return false, err
			}
		}
	}
	if m.i >= len(m.buf) {
		return false, nil
	}
	ec.b = m.buf[m.i]
	m.i++
	return true, nil
}

// --- WITH segment bridge ---

// withIter carries rows across a WITH: it pulls the upstream segment's
// projection (rows.go) one row at a time, installs the row in the
// downstream segment's frame slots — the segment's entire binding
// namespace — and applies the WITH ... WHERE filter there.
type withIter struct {
	p  *projection
	ec *execCtx // the downstream segment's
}

func (w *withIter) next() (bool, error) {
	seg := w.p.seg
	for {
		ok, err := w.p.next()
		if err != nil || !ok {
			return false, err
		}
		for i, slot := range seg.outSlots {
			w.ec.b.vals[slot] = w.p.row[i]
		}
		if seg.Filter == nil {
			return true, nil
		}
		v, err := evalExpr(seg.Filter, &w.ec.b, w.ec.ps)
		if err != nil {
			return false, err
		}
		if v.Truthy() {
			return true, nil
		}
	}
}

// --- plan execution ---

func explainResult(pl *Plan) *Result {
	res := &Result{Columns: []string{"plan"}}
	for _, line := range strings.Split(strings.TrimSuffix(pl.String(), "\n"), "\n") {
		res.Rows = append(res.Rows, []Value{StringValue(line)})
	}
	return res
}
