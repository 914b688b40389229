package cypher

import (
	"fmt"
	"slices"
	"strings"

	"securitykg/internal/graph"
)

// Options tune query execution.
type Options struct {
	// UseIndexes enables index-based candidate selection (name, label and
	// exact-property lookups). Disabling it forces full scans — exposed so
	// the E11 ablation can measure the index's effect.
	UseIndexes bool
	// MaxRows caps materialized result size as a safety valve
	// (0 = unlimited): Engine.Query and Stmt.Query drop rows past the cap
	// and set Result.Truncated. Streaming cursors ignore it.
	//
	// Deprecated: MaxRows predates the byte budget and is honored only
	// for compatibility. Bound queries with MaxBytes (which fails loudly
	// instead of silently truncating) and explicit LIMITs.
	MaxRows int
	// MaxBytes is the per-query byte budget (0 = unlimited). Every row
	// the executor streams or materializes — including rows consumed by
	// aggregation or dropped by DISTINCT — is charged against it, and a
	// query that exceeds the budget aborts with a *BudgetError instead
	// of returning silently truncated results.
	MaxBytes int64
	// ReadOnly rejects statements with writing clauses (CREATE, MERGE,
	// SET, DELETE) at execution time. EXPLAIN of a write statement is
	// still allowed — it never executes.
	ReadOnly bool
}

// DefaultOptions enables indexes with a 100k row cap and a 64 MiB
// per-query byte budget.
func DefaultOptions() Options {
	return Options{UseIndexes: true, MaxRows: 100000, MaxBytes: 64 << 20}
}

// Engine executes parsed queries against a graph store. Engines are
// cheap: the compiled-plan cache lives on the store (cache.go), so every
// engine over one store shares it.
//
// Every statement executes against a consistent view of the store
// (tx.go): reads pin an MVCC snapshot for the cursor's lifetime, writes
// run inside an implicit store transaction committed when the cursor
// closes (rolled back wholesale on any error — statements are atomic).
// Engine.Begin opens an explicit multi-statement transaction.
type Engine struct {
	store *graph.Store
	// view is the read surface every match stage and expression reads
	// through: the bare store on an unscoped engine, a pinned Snap (read
	// statements) or graph.Tx (write statements, explicit transactions)
	// on the per-scope engine copies beginScope makes.
	view graph.View
	// w is the write surface (write.go): the scope's graph.Tx inside a
	// write scope, nil on an unscoped engine, which never writes. Its
	// Latest* reads see the writer's own uncommitted state — the write
	// path must act on latest state, not the pinned snapshot (a MERGE
	// must augment the node as it now is).
	w     *graph.Tx
	opts  Options
	cache *planCache
	// pinned marks an engine scoped to an explicit transaction
	// (Engine.Begin): beginScope passes statements through to the
	// transaction's view instead of opening per-statement scopes.
	pinned bool
	// failTx, set on explicit-transaction engines, aborts the owning
	// transaction: a failed statement rolls the whole transaction back.
	failTx func(error)
}

// NewEngine builds an engine over the store.
func NewEngine(s *graph.Store, opts Options) *Engine {
	return &Engine{store: s, view: s, opts: opts, cache: cacheFor(s)}
}

// Result is a rectangular query result.
type Result struct {
	Columns []string
	Rows    [][]Value
	// Truncated reports that rows were dropped by the MaxRows safety
	// valve (never by an explicit LIMIT).
	Truncated bool
	// Writes summarizes what a write statement changed (nil for
	// read-only statements). A write-only statement (no RETURN) yields
	// zero columns and rows; the counts are its result.
	Writes *WriteStats
	// BudgetUsed is the bytes charged against the statement's MaxBytes
	// budget (0 when the budget is unlimited) — the slow-query log's
	// measure of how much the statement enumerated.
	BudgetUsed int64
}

// params are the bound $parameter values for one execution, stored as
// parallel slices: binding sets are tiny (a handful of names), so a
// linear scan beats a map's per-bucket allocation on the hot path —
// prepared-statement workloads bind params on every execution.
type params struct {
	names []string
	vals  []Value
}

// get resolves one $parameter by name.
func (p params) get(name string) (Value, bool) {
	for i, n := range p.names {
		if n == name {
			return p.vals[i], true
		}
	}
	return Value{}, false
}

// bindParams converts the caller's arguments and validates that every
// $parameter the statement references is bound. Extra arguments are
// allowed (a shell can keep one binding set for many statements).
func bindParams(names []string, args map[string]any) (params, error) {
	var ps params
	if len(args) > 0 {
		ps.names = make([]string, 0, len(args))
		ps.vals = make([]Value, 0, len(args))
		for k, v := range args {
			val, err := ToValue(v)
			if err != nil {
				return ps, fmt.Errorf("cypher: parameter $%s: %w", k, err)
			}
			ps.names = append(ps.names, k)
			ps.vals = append(ps.vals, val)
		}
	}
	for _, n := range names {
		if _, ok := ps.get(n); !ok {
			return ps, fmt.Errorf("cypher: missing parameter $%s", n)
		}
	}
	return ps, nil
}

// Run parses and executes a statement with no parameters. Kept as the
// zero-ceremony entry point; parameterized callers use Query/QueryRows.
func (e *Engine) Run(src string) (*Result, error) { return e.Query(src, nil) }

// Query executes a statement with the given parameter bindings and
// materializes the full result — a thin wrapper over QueryRows that
// preserves the MaxRows safety valve and Result.Truncated semantics.
// Repeated statements (same text; parameters do not change the text)
// reuse the store-shared cached plan, skipping parse and planning.
func (e *Engine) Query(src string, args map[string]any) (*Result, error) {
	rows, err := e.QueryRows(src, args)
	if err != nil {
		return nil, err
	}
	return materialize(rows, e.opts.MaxRows)
}

// QueryRows executes a statement and returns an incremental cursor: the
// first row is available without materializing the match set, and
// closing the cursor early stops all upstream matching.
func (e *Engine) QueryRows(src string, args map[string]any) (*Rows, error) {
	if pl := e.cachedPlan(src); pl != nil {
		ps, err := bindParams(pl.Params, args)
		if err != nil {
			return nil, err
		}
		return e.rowsForPlan(pl, ps)
	}
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if q.TxOp != TxNone {
		return nil, errTxControl
	}
	pl, err := e.planQuery(q)
	if err != nil {
		return nil, err
	}
	if q.Explain {
		if q.Analyze {
			// EXPLAIN ANALYZE executes fully (writes included), then
			// returns the annotated plan lines as the result rows.
			ps, err := bindParams(q.Params, args)
			if err != nil {
				return nil, err
			}
			res, err := e.analyzeResult(pl, ps)
			if err != nil {
				return nil, err
			}
			return rowsFromResult(res), nil
		}
		// EXPLAIN renders the plan without executing: no bindings needed.
		return rowsFromResult(explainResult(pl)), nil
	}
	ps, err := bindParams(q.Params, args)
	if err != nil {
		return nil, err
	}
	e.storePlan(src, pl)
	return e.rowsForPlan(pl, ps)
}

// Explain parses src and renders the plan the streaming engine would run,
// without executing it.
func (e *Engine) Explain(src string) (string, error) {
	q, err := Parse(src)
	if err != nil {
		return "", err
	}
	pl, err := e.planQuery(q)
	if err != nil {
		return "", err
	}
	return pl.String(), nil
}

// ErrReadOnly is the rejection a ReadOnly engine returns for a statement
// with writing clauses, before it opens a scope or touches the store.
// Exported so callers can recognize it with errors.Is — a replica server
// turns it into a leader redirect.
var ErrReadOnly = fmt.Errorf("cypher: write clauses (CREATE/MERGE/SET/DELETE) are disabled on this read-only engine")

// bfsWalk holds the buffers of the bounded breadth-first walk behind
// variable-length patterns, so an iterator that walks once per input row
// reuses its visited set and frontiers instead of reallocating them.
type bfsWalk struct {
	visited        map[graph.NodeID]bool
	frontier, next []graph.NodeID
	out            []graph.NodeID
	inc            []graph.IncidentEdge
}

// targets returns the IDs of the nodes whose shortest distance from
// start — along edges matching the pattern's type and direction — lies
// within [MinHops, MaxHops] (MaxHops < 0 = unbounded). Each node is
// visited at most once, so the walk terminates on any graph. The result
// is valid until the walk's next call.
func (w *bfsWalk) targets(view graph.View, start graph.NodeID, ep EdgePattern, reverse bool) []graph.NodeID {
	dir := expandDir(ep.Dir, reverse)
	if w.visited == nil {
		w.visited = map[graph.NodeID]bool{}
	}
	clear(w.visited)
	w.visited[start] = true
	w.frontier = append(w.frontier[:0], start)
	w.out = w.out[:0]
	if ep.MinHops == 0 {
		w.out = append(w.out, start)
	}
	for depth := 1; len(w.frontier) > 0 && (ep.MaxHops < 0 || depth <= ep.MaxHops); depth++ {
		w.next = w.next[:0]
		for _, id := range w.frontier {
			w.inc = view.IncidentEdges(w.inc[:0], id, dir, ep.Type)
			for _, he := range w.inc {
				if w.visited[he.Other] {
					continue
				}
				w.visited[he.Other] = true
				w.next = append(w.next, he.Other)
				if depth >= ep.MinHops {
					w.out = append(w.out, he.Other)
				}
			}
		}
		w.frontier, w.next = w.next, w.frontier
	}
	return w.out
}

// nodeMatches checks label and inline property constraints, resolving
// $parameter-valued properties against the execution's bindings.
func nodeMatches(np *NodePattern, n *graph.Node, ps params) bool {
	if np.Label != "" && n.Type != np.Label {
		return false
	}
	for k, want := range np.Props {
		got := nodeProp(n, k)
		if !got.Equal(want) {
			return false
		}
	}
	for k, pn := range np.ParamProps {
		want, ok := ps.get(pn)
		if !ok {
			return false // unbound parameter: bindParams rejects this upfront
		}
		got := nodeProp(n, k)
		if !got.Equal(want) {
			return false
		}
	}
	return true
}

// --- expression evaluation ---

func nodeProp(n *graph.Node, prop string) Value {
	switch prop {
	case "name":
		return StringValue(n.Name)
	case "type", "label":
		return StringValue(n.Type)
	case "id":
		return NumberValue(float64(n.ID))
	}
	if v, ok := n.Attrs.Lookup(prop); ok {
		return StringValue(v)
	}
	return NullValue()
}

func edgeProp(ed *graph.Edge, prop string) Value {
	switch prop {
	case "type":
		return StringValue(ed.Type)
	case "id":
		return NumberValue(float64(ed.ID))
	}
	if v, ok := ed.Attrs.Lookup(prop); ok {
		return StringValue(v)
	}
	return NullValue()
}

func evalExpr(e Expr, b *binding, ps params) (Value, error) {
	switch v := e.(type) {
	case LitExpr:
		return v.Val, nil
	case ParamExpr:
		if val, ok := ps.get(v.Name); ok {
			return val, nil
		}
		return NullValue(), fmt.Errorf("cypher: missing parameter $%s", v.Name)
	case ListExpr:
		elems := make([]Value, len(v.Elems))
		for i, ee := range v.Elems {
			ev, err := evalExpr(ee, b, ps)
			if err != nil {
				return NullValue(), err
			}
			elems[i] = ev
		}
		return Value{Kind: KindList, List: elems}, nil
	case VarExpr:
		if val, ok := b.lookup(v.slot, v.Name); ok {
			return *val, nil
		}
		return NullValue(), fmt.Errorf("cypher: unbound variable %q", v.Name)
	case PropExpr:
		val, ok := b.lookup(v.slot, v.Var)
		if !ok {
			return NullValue(), fmt.Errorf("cypher: unbound variable %q", v.Var)
		}
		switch val.Kind {
		case KindNode:
			return nodeProp(val.Node, v.Prop), nil
		case KindEdge:
			return edgeProp(val.Edge, v.Prop), nil
		case KindMap:
			// UNWIND batch rows: row.name reads the map entry (missing
			// keys are null, like absent node attributes).
			for i := range val.Map {
				if val.Map[i].Key == v.Prop {
					return val.Map[i].Val, nil
				}
			}
			return NullValue(), nil
		}
		return NullValue(), nil
	case NotExpr:
		inner, err := evalExpr(v.Inner, b, ps)
		if err != nil {
			return NullValue(), err
		}
		return BoolValue(!inner.Truthy()), nil
	case BoolExpr:
		l, err := evalExpr(v.Left, b, ps)
		if err != nil {
			return NullValue(), err
		}
		if v.Op == "and" && !l.Truthy() {
			return BoolValue(false), nil
		}
		if v.Op == "or" && l.Truthy() {
			return BoolValue(true), nil
		}
		r, err := evalExpr(v.Right, b, ps)
		if err != nil {
			return NullValue(), err
		}
		return BoolValue(r.Truthy()), nil
	case CmpExpr:
		l, err := evalExpr(v.Left, b, ps)
		if err != nil {
			return NullValue(), err
		}
		r, err := evalExpr(v.Right, b, ps)
		if err != nil {
			return NullValue(), err
		}
		switch v.Op {
		case "=":
			return BoolValue(l.Equal(r)), nil
		case "<>":
			if l.Kind == KindNull || r.Kind == KindNull {
				return BoolValue(false), nil
			}
			return BoolValue(!l.Equal(r)), nil
		case "<", ">", "<=", ">=":
			c, ok := l.Compare(r)
			if !ok {
				return BoolValue(false), nil
			}
			switch v.Op {
			case "<":
				return BoolValue(c < 0), nil
			case ">":
				return BoolValue(c > 0), nil
			case "<=":
				return BoolValue(c <= 0), nil
			default:
				return BoolValue(c >= 0), nil
			}
		case "contains":
			return BoolValue(l.Kind == KindString && r.Kind == KindString &&
				strings.Contains(l.Str, r.Str)), nil
		case "starts":
			return BoolValue(l.Kind == KindString && r.Kind == KindString &&
				strings.HasPrefix(l.Str, r.Str)), nil
		case "ends":
			return BoolValue(l.Kind == KindString && r.Kind == KindString &&
				strings.HasSuffix(l.Str, r.Str)), nil
		}
		return NullValue(), fmt.Errorf("cypher: unknown comparison %q", v.Op)
	case FuncExpr:
		switch v.Name {
		case "type":
			arg, err := evalExpr(v.Arg, b, ps)
			if err != nil {
				return NullValue(), err
			}
			if arg.Kind == KindEdge {
				return StringValue(arg.Edge.Type), nil
			}
			return NullValue(), nil
		case "id":
			arg, err := evalExpr(v.Arg, b, ps)
			if err != nil {
				return NullValue(), err
			}
			switch arg.Kind {
			case KindNode:
				return NumberValue(float64(arg.Node.ID)), nil
			case KindEdge:
				return NumberValue(float64(arg.Edge.ID)), nil
			}
			return NullValue(), nil
		case "labels":
			arg, err := evalExpr(v.Arg, b, ps)
			if err != nil {
				return NullValue(), err
			}
			if arg.Kind == KindNode {
				return StringValue(arg.Node.Type), nil
			}
			return NullValue(), nil
		case "lower", "upper":
			arg, err := evalExpr(v.Arg, b, ps)
			if err != nil {
				return NullValue(), err
			}
			if arg.Kind != KindString {
				return NullValue(), nil
			}
			if v.Name == "lower" {
				return StringValue(strings.ToLower(arg.Str)), nil
			}
			return StringValue(strings.ToUpper(arg.Str)), nil
		case "count", "min", "max", "sum", "collect":
			return NullValue(), fmt.Errorf("cypher: %s() outside RETURN/WITH", v.Name)
		}
		return NullValue(), fmt.Errorf("cypher: unknown function %q", v.Name)
	}
	return NullValue(), fmt.Errorf("cypher: unevaluable expression %T", e)
}

// isAggName reports whether name is an aggregate function.
func isAggName(name string) bool { return aggOpByName(name) != aggNone }

func isAggregate(e Expr) bool { return aggOpOf(e) != aggNone }

// --- projection, grouping, ordering ---

// projectRow evaluates the projection items against one binding, then
// the order plan's hidden ORDER BY expressions (op may be nil), into one
// row allocated at its final size.
func projectRow(items []ReturnItem, op *orderPlan, b *binding, ps params) ([]Value, error) {
	n := len(items)
	if op != nil {
		n += len(op.hidden)
	}
	row := make([]Value, n)
	if err := projectInto(row, items, op, b, ps); err != nil {
		return nil, err
	}
	return row, nil
}

// projectInto is projectRow into a caller-owned row of the right length
// — the top-k window's scratch row, so a row that never enters the
// window is never allocated.
func projectInto(row []Value, items []ReturnItem, op *orderPlan, b *binding, ps params) error {
	for i, it := range items {
		v, err := evalExpr(it.Expr, b, ps)
		if err != nil {
			return err
		}
		row[i] = v
	}
	if op != nil {
		for i, hx := range op.hidden {
			v, err := evalExpr(hx, b, ps)
			if err != nil {
				return err
			}
			row[len(items)+i] = v
		}
	}
	return nil
}

// appendRowKey appends the key identifying a row for DISTINCT and
// grouping: its values' keys, NUL-separated. Callers probe their maps
// with string(buf), which does not allocate; only a first sighting pays
// for the key string.
func appendRowKey(dst []byte, row []Value) []byte {
	for i := range row {
		if i > 0 {
			dst = append(dst, 0)
		}
		dst = row[i].appendKey(dst)
	}
	return dst
}

// rowSet is the DISTINCT filter: the set of row keys seen so far.
type rowSet struct {
	seen map[string]struct{}
	buf  []byte
}

func newRowSet() *rowSet { return &rowSet{seen: map[string]struct{}{}} }

// add reports whether row is new, recording it if so.
func (s *rowSet) add(row []Value) bool {
	s.buf = appendRowKey(s.buf[:0], row)
	if _, dup := s.seen[string(s.buf)]; dup {
		return false
	}
	s.seen[string(s.buf)] = struct{}{}
	return true
}

// aggOp is an aggregate item's function, resolved once per aggregation
// rather than matched by name once per row.
type aggOp uint8

const (
	aggNone aggOp = iota // not an aggregate: a grouping key
	aggCount
	aggSum
	aggMin
	aggMax
	aggCollect
)

func aggOpByName(name string) aggOp {
	switch name {
	case "count":
		return aggCount
	case "sum":
		return aggSum
	case "min":
		return aggMin
	case "max":
		return aggMax
	case "collect":
		return aggCollect
	}
	return aggNone
}

func aggOpOf(e Expr) aggOp {
	if f, ok := e.(FuncExpr); ok {
		return aggOpByName(f.Name)
	}
	return aggNone
}

// strChain holds the strings collect() has folded, for every group of one
// aggregation: entries in arrival order, each linked to the previous
// entry of its own group, so a group's strings cost no slice of their
// own — an entry is the value's 16-byte string header, not an 88-byte
// Value in a per-group slice grown by doubling — until result builds the
// exact-size list.
type strChain struct {
	strs []string
	prev []int32 // prev[i] is 1 + the index of the entry before i in its group; 0 ends the chain
	buf  []string
}

// push appends s to the chain whose newest entry is *last (0 = empty).
func (c *strChain) push(last *int32, s string) {
	c.strs = append(c.strs, s)
	c.prev = append(c.prev, *last)
	*last = int32(len(c.strs))
}

// sorted returns the chain ending at last in byte order (Value.order on
// strings), in a buffer reused by the next call.
func (c *strChain) sorted(last int32) []string {
	c.buf = c.buf[:0]
	for i := last; i > 0; i = c.prev[i-1] {
		c.buf = append(c.buf, c.strs[i-1])
	}
	slices.Sort(c.buf)
	return c.buf
}

// aggState accumulates one aggregate column within one group.
type aggState struct {
	count    int
	sum      float64
	min, max Value // KindNull until a value is seen
	// collect: while every value is a string, the group's newest entry in
	// the aggregation's strChain; from the first other value on, the
	// values themselves.
	last int32
	vals []Value
}

func (a *aggState) add(op aggOp, v *Value, ch *strChain) error {
	if v.Kind == KindNull {
		return nil
	}
	a.count++
	switch op {
	case aggSum:
		if v.Kind != KindNumber {
			return fmt.Errorf("cypher: sum() over non-numeric value %s", v.String())
		}
		a.sum += v.Num
	case aggMin:
		if a.min.Kind == KindNull || v.order(&a.min) < 0 {
			a.min = *v
		}
	case aggMax:
		if a.max.Kind == KindNull || a.max.order(v) < 0 {
			a.max = *v
		}
	case aggCollect:
		if v.Kind == KindString && a.vals == nil {
			ch.push(&a.last, v.Str)
			return nil
		}
		if a.vals == nil {
			for _, s := range ch.sorted(a.last) {
				a.vals = append(a.vals, StringValue(s))
			}
		}
		a.vals = append(a.vals, *v)
	}
	return nil
}

func (a *aggState) result(op aggOp, ch *strChain) Value {
	switch op {
	case aggCount:
		return NumberValue(float64(a.count))
	case aggSum:
		return NumberValue(a.sum) // sum of nothing is 0
	case aggMin:
		return a.min
	case aggMax:
		return a.max
	case aggCollect:
		// Values that compare equal render identically, so the order among
		// them is invisible and the sort need not be stable.
		if a.vals == nil {
			strs := ch.sorted(a.last)
			vals := make([]Value, len(strs))
			for i, s := range strs {
				vals[i] = StringValue(s)
			}
			return ListValue(vals)
		}
		slices.SortFunc(a.vals, func(x, y Value) int { return x.order(&y) })
		return ListValue(a.vals)
	}
	return NullValue()
}

// aggGroup is one group of an aggregation: its output row — the grouping
// values at their item positions from the first row of the group, the
// aggregate columns filled in when the input is exhausted — and the
// running aggregates, one per aggregate column.
type aggGroup struct {
	row  []Value
	aggs []aggState
}

// aggregateRows consumes bindings from pull (nil binding = exhausted),
// grouping by the non-aggregate projection items and folding the
// aggregate ones (count/min/max/sum/collect). Groups are emitted in
// first-seen order; collect() lists are canonically ordered, so a list
// does not depend on the order the plan enumerated its rows in.
//
// A row costs no allocation once its group exists: the grouping values
// are evaluated into a scratch row and keyed through a reused buffer
// (appendRowKey), and only a group's first row is copied.
func aggregateRows(items []ReturnItem, res *Result, pull func() (*binding, error), ps params) error {
	var keyCols, aggCols []int
	var ops []aggOp // aligned with aggCols
	for i, it := range items {
		if op := aggOpOf(it.Expr); op == aggNone {
			keyCols = append(keyCols, i)
		} else {
			aggCols, ops = append(aggCols, i), append(ops, op)
		}
	}
	groups := map[string]*aggGroup{}
	var order []*aggGroup
	var ch strChain
	keyVals := make([]Value, len(keyCols))
	var keyBuf []byte
	for {
		b, err := pull()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		for k, col := range keyCols {
			if keyVals[k], err = evalExpr(items[col].Expr, b, ps); err != nil {
				return err
			}
		}
		keyBuf = appendRowKey(keyBuf[:0], keyVals)
		g, ok := groups[string(keyBuf)]
		if !ok {
			g = &aggGroup{row: make([]Value, len(items)), aggs: make([]aggState, len(aggCols))}
			for k, col := range keyCols {
				g.row[col] = keyVals[k]
			}
			groups[string(keyBuf)] = g
			order = append(order, g)
		}
		for a, col := range aggCols {
			fe := items[col].Expr.(FuncExpr)
			if fe.Star {
				g.aggs[a].count++
				continue
			}
			v, err := evalExpr(fe.Arg, b, ps)
			if err != nil {
				return err
			}
			if err := g.aggs[a].add(ops[a], &v, &ch); err != nil {
				return err
			}
		}
	}
	for _, g := range order {
		for a, col := range aggCols {
			g.row[col] = g.aggs[a].result(ops[a], &ch)
		}
		res.Rows = append(res.Rows, g.row)
	}
	return nil
}

// orderPlan is the resolved ORDER BY strategy: each key maps to a column
// index in the (visible + hidden) row. Keys naming a returned column by
// alias text sort on it directly; other expressions become hidden
// columns evaluated against the match binding and stripped after the
// sort.
type orderPlan struct {
	keyCols []int
	hidden  []Expr
}

// resolveOrderKeys maps ORDER BY keys onto returned columns or hidden
// expressions. Hidden keys are rejected under DISTINCT or aggregation,
// where the match binding is no longer in scope per output row. Returns
// nil when the query has no ORDER BY.
func resolveOrderKeys(orderBy []OrderKey, items []ReturnItem, distinct, hasAgg bool) (*orderPlan, error) {
	if len(orderBy) == 0 {
		return nil, nil
	}
	op := &orderPlan{keyCols: make([]int, len(orderBy))}
	for i, k := range orderBy {
		txt := exprText(k.Expr)
		col := -1
		for j := range items {
			if items[j].Alias == txt {
				col = j
				break
			}
		}
		if col < 0 {
			if distinct || hasAgg {
				return nil, fmt.Errorf("cypher: ORDER BY %q must reference a returned column when DISTINCT or aggregation is used", txt)
			}
			col = len(items) + len(op.hidden)
			op.hidden = append(op.hidden, k.Expr)
		}
		op.keyCols[i] = col
	}
	return op, nil
}

// compareRows is the ORDER BY comparison of two rows over the resolved
// key columns. It is a total preorder (Value.order is total, so nulls
// and mixed kinds have a place), which a comparison sort and the top-k
// heap both need: rows that compare equal here are ordered by arrival.
func compareRows(orderBy []OrderKey, keyCols []int, a, b []Value) int {
	for i, col := range keyCols {
		if c := a[col].order(&b[col]); c != 0 {
			if orderBy[i].Desc {
				return -c
			}
			return c
		}
	}
	return 0
}

// sortRows sorts rows by the resolved ORDER BY key columns, stably.
func sortRows(orderBy []OrderKey, rows [][]Value, keyCols []int) {
	slices.SortStableFunc(rows, func(a, b []Value) int {
		return compareRows(orderBy, keyCols, a, b)
	})
}

// stripHidden cuts the hidden ORDER BY columns off sorted rows.
func stripHidden(rows [][]Value, visible int, op *orderPlan) {
	if len(op.hidden) == 0 {
		return
	}
	for i, r := range rows {
		rows[i] = r[:visible]
	}
}
