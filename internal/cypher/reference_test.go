package cypher

import (
	"fmt"

	"securitykg/internal/graph"
)

// The reference evaluator is the specification the engine is tested
// against: each clause materializes every binding, every pattern starts
// from a scan of every node, and a variable-length edge is a BFS of its
// own — no index, statistic, plan, cache or budget. It shares with the
// engine only what defines the dialect: the parser, expressions, projection,
// aggregation, ORDER BY, paging, writes, scoping, frames and requiredRuns.

// reference evaluates statements over one store.
type reference struct{ s *graph.Store }

// Query evaluates src atomically: a write statement runs in one store
// transaction, committed on success and rolled back on any error.
func (r reference) Query(src string, args map[string]any) (*Result, error) {
	q, err := Parse(src)
	if err == nil && (q.TxOp != TxNone || q.Explain) {
		err = fmt.Errorf("reference: %q is not a statement it evaluates", src)
	}
	if err != nil {
		return nil, err
	}
	ps, err := bindParams(q.Params, args)
	if err != nil {
		return nil, err
	}
	ex, finish, err := NewEngine(r.s, Options{}).beginScope(q.HasWrites())
	if err != nil {
		return nil, err
	}
	res, err := refEval{e: ex, ps: ps}.query(q)
	if err := finish(err); err != nil {
		return nil, err
	}
	return res, nil
}

// refEval evaluates one statement on the engine scoped to it.
type refEval struct {
	e  *Engine
	ps params
}

func (r refEval) query(q *Query) (*Result, error) {
	// One frame layout serves every part; a WITH hands over fresh frames.
	tab := &slotTable{}
	for pi := range q.Parts {
		part := &q.Parts[pi]
		for _, it := range part.Items {
			tab.add(it.Alias)
		}
		if part.Unwind != nil {
			tab.add(part.Unwind.Alias)
		}
		for _, mc := range part.Matches {
			patternVarsInto(tab, mc.Patterns)
		}
		for _, cc := range part.Creates {
			patternVarsInto(tab, cc.Patterns)
		}
	}
	res := &Result{}
	if q.HasWrites() {
		res.Writes = &WriteStats{}
	}
	bs := []binding{newBinding(tab)}
	for pi := range q.Parts {
		part := &q.Parts[pi]
		var err error
		if part.Unwind != nil {
			if bs, err = r.unwind(part.Unwind, bs); err != nil {
				return nil, err
			}
		}
		for _, run := range requiredRuns(part.Matches) {
			if bs, err = r.match(run, bs); err != nil {
				return nil, err
			}
		}
		// Writes wait for every read of the part: a CREATE never feeds its MATCH.
		if wc := writeClausesOf(part); wc != nil {
			for _, b := range bs {
				if err := r.e.applyWrites(wc, b, r.ps, res.Writes); err != nil {
					return nil, err
				}
			}
		}
		rows, err := r.project(part, bs)
		if err != nil {
			return nil, err
		}
		if pi == len(q.Parts)-1 {
			for _, it := range part.Items {
				res.Columns = append(res.Columns, it.Alias)
			}
			res.Rows = rows
			return res, nil
		}
		bs = bs[:0]
		for _, row := range rows {
			b := newBinding(tab)
			for i, it := range part.Items {
				b.set(it.Alias, row[i])
			}
			bs = append(bs, b)
		}
		if bs, err = r.match(matchRun{where: part.Where}, bs); err != nil {
			return nil, err
		}
	}
	return nil, fmt.Errorf("cypher: query has no RETURN part")
}

// unwind binds the alias to each element of the expression's list for
// each binding: null has no elements, a non-list value is its own.
func (r refEval) unwind(uc *UnwindClause, in []binding) ([]binding, error) {
	var out []binding
	for _, b := range in {
		v, err := evalExpr(uc.Expr, &b, r.ps)
		if err != nil {
			return nil, err
		}
		elems := []Value{v}
		if v.Kind == KindList || v.Kind == KindNull {
			elems = v.List // nil for null
		}
		for _, el := range elems {
			b2, _ := bind(b, uc.Alias, el)
			out = append(out, b2)
		}
	}
	return out, nil
}

// match extends every binding with every match of one clause run that
// its WHERE accepts (a run with no patterns is a filter). An OPTIONAL
// MATCH keeps a binding it cannot extend, its unbound variables null.
func (r refEval) match(run matchRun, in []binding) ([]binding, error) {
	pats, where := run.pats, run.where
	if run.optional != nil {
		pats, where = run.optional.Patterns, run.optional.Where
	}
	var out []binding
	for _, b := range in {
		before := len(out)
		err := r.patterns(pats, b, func(m binding) error {
			v := BoolValue(true)
			var err error
			if where != nil {
				v, err = evalExpr(where, &m, r.ps)
			}
			if err == nil && v.Truthy() {
				out = append(out, m.clone())
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		if run.optional != nil && len(out) == before {
			vars := &slotTable{}
			patternVarsInto(vars, pats)
			for _, name := range vars.names {
				b, _ = bind(b, name, NullValue())
			}
			out = append(out, b.clone())
		}
	}
	return out, nil
}

// patterns calls emit with every extension of b that matches all of
// pats, each pattern entered at its first node by a scan of every node.
func (r refEval) patterns(pats []Pattern, b binding, emit func(binding) error) error {
	if len(pats) == 0 {
		return emit(b)
	}
	var err error
	r.e.view.ForEachNode(func(n *graph.Node) bool {
		err = r.chain(pats[0], 0, n, b, func(b2 binding) error { return r.patterns(pats[1:], b2, emit) })
		return err == nil
	})
	return err
}

// chain binds n as p's node i and follows p's remaining edges from it.
func (r refEval) chain(p Pattern, i int, n *graph.Node, b binding, emit func(binding) error) error {
	if n == nil || !nodeMatches(&p.Nodes[i], n, r.ps) {
		return nil
	}
	b, ok := bind(b, p.Nodes[i].Var, NodeValue(n))
	if !ok {
		return nil
	}
	if i == len(p.Edges) {
		return emit(b)
	}
	ep := &p.Edges[i]
	var hops []graph.IncidentEdge
	if ep.VarLength() {
		hops = r.reach(n.ID, ep) // no edge variable: the parser forbids one
	} else {
		hops = r.e.view.IncidentEdges(nil, n.ID, expandDir(ep.Dir, false), ep.Type)
	}
	for _, he := range hops {
		if b2, ok := bind(b, ep.Var, EdgeValue(r.e.view.Edge(he.ID))); ok {
			if err := r.chain(p, i+1, r.e.view.Node(he.Other), b2, emit); err != nil {
				return err
			}
		}
	}
	return nil
}

// bind extends a copy of b with name = v, or reports false when name is
// bound to another value. An unnamed element, or null on a bound name,
// binds nothing.
func bind(b binding, name string, v Value) (binding, bool) {
	if prev, bound := b.get(name); name == "" || bound {
		return b, name == "" || v.Kind == KindNull || prev.Equal(v)
	}
	b = b.clone()
	b.set(name, v)
	return b, true
}

// reach returns hops to the nodes whose shortest distance from start,
// along edges of ep's type and direction, lies within ep's hop range.
func (r refEval) reach(start graph.NodeID, ep *EdgePattern) []graph.IncidentEdge {
	dist := map[graph.NodeID]int{start: 0}
	var out []graph.IncidentEdge
	for queue := []graph.NodeID{start}; len(queue) > 0; queue = queue[1:] {
		id := queue[0]
		d := dist[id]
		if d >= ep.MinHops {
			out = append(out, graph.IncidentEdge{Other: id})
		}
		if d == ep.MaxHops {
			continue
		}
		for _, he := range r.e.view.IncidentEdges(nil, id, expandDir(ep.Dir, false), ep.Type) {
			if _, seen := dist[he.Other]; !seen {
				dist[he.Other] = d + 1
				queue = append(queue, he.Other)
			}
		}
	}
	return out
}

// project evaluates a part's items over every binding — one row each,
// deduplicated under DISTINCT, or one per group when an item aggregates —
// sorts the rows stably by ORDER BY (hidden keys stripped), and pages them.
func (r refEval) project(part *QueryPart, in []binding) ([][]Value, error) {
	hasAgg := false
	for _, it := range part.Items {
		hasAgg = hasAgg || isAggregate(it.Expr)
	}
	op, err := resolveOrderKeys(part.OrderBy, part.Items, part.Distinct, hasAgg)
	if err != nil {
		return nil, err
	}
	var rows [][]Value
	if hasAgg {
		res := &Result{}
		i := -1
		err := aggregateRows(part.Items, res, func() (*binding, error) {
			if i++; i == len(in) {
				return nil, nil
			}
			return &in[i], nil
		}, r.ps)
		if err != nil {
			return nil, err
		}
		rows = res.Rows
	}
	seen := newRowSet()
	for i := 0; !hasAgg && len(part.Items) > 0 && i < len(in); i++ {
		row, err := projectRow(part.Items, op, &in[i], r.ps)
		if err != nil {
			return nil, err
		}
		if !part.Distinct || seen.add(row) {
			rows = append(rows, row)
		}
	}
	if op != nil {
		sortRows(part.OrderBy, rows, op.keyCols)
		stripHidden(rows, len(part.Items), op)
	}
	return pageRows(rows, part.Skip, part.Limit), nil
}
