package cypher

// Variables live in slot frames. Every WITH-delimited segment has one
// slotTable naming its variables — carried aliases, pattern variables
// (the planner's synthetic "$" names included), the UNWIND alias, the
// variables CREATE/MERGE introduce — and a binding is a []Value indexed
// by those slots. The planner stamps each stage and each VarExpr/PropExpr
// with its slot, so the executor indexes instead of hashing a name per
// access; the write path, which works from the parsed (unstamped)
// clauses, resolves names through the same table. A
// table is complete before the first frame over it exists and is never
// written again, so one cached plan's tables are shared by every
// concurrent execution.

// kindUnbound marks a slot no stage has bound (or one whose binding was
// undone on backtrack). It never leaves the executor: reading an unbound
// variable is the "unbound variable" error.
const kindUnbound ValueKind = -1

// slotTable maps a segment's variable names to frame slots.
type slotTable struct{ names []string }

// index returns name's slot, or -1. Tables hold a handful of names, so a
// scan beats a map.
func (t *slotTable) index(name string) int {
	for i, n := range t.names {
		if n == name {
			return i
		}
	}
	return -1
}

// add returns name's slot, registering it first if needed. Only the code
// that builds a table calls it.
func (t *slotTable) add(name string) int {
	if i := t.index(name); i >= 0 {
		return i
	}
	t.names = append(t.names, name)
	return len(t.names) - 1
}

// binding is one slot frame. Copies of a binding alias the same slots
// (the executor's stages all extend and undo one shared frame); clone
// makes an independent one.
type binding struct {
	vals []Value
	tab  *slotTable
}

func newBinding(tab *slotTable) binding {
	b := binding{vals: make([]Value, len(tab.names)), tab: tab}
	for i := range b.vals {
		b.vals[i].Kind = kindUnbound
	}
	return b
}

func (b binding) clone() binding {
	b.vals = append([]Value(nil), b.vals...)
	return b
}

func (b binding) bound(slot int) bool { return b.vals[slot].Kind != kindUnbound }

func (b binding) unset(slot int) { b.vals[slot].Kind = kindUnbound }

// lookup reads a variable through its stamped slot (1-based; 0 means the
// expression was never stamped) or, failing that, by name.
func (b binding) lookup(slot int, name string) (*Value, bool) {
	i := slot - 1
	if i < 0 {
		if i = b.tab.index(name); i < 0 {
			return nil, false
		}
	}
	v := &b.vals[i]
	return v, v.Kind != kindUnbound
}

// get reads a variable by name.
func (b binding) get(name string) (Value, bool) {
	if v, ok := b.lookup(0, name); ok {
		return *v, true
	}
	return Value{}, false
}

// set binds a variable by name. Every name a statement can bind is in its
// segment's table, so a miss is a table-construction bug.
func (b binding) set(name string, v Value) {
	i := b.tab.index(name)
	if i < 0 {
		panic("cypher: variable " + name + " has no frame slot")
	}
	b.vals[i] = v
}

// bindingBytes charges one retained frame: what it has bound, not what it
// has room for.
func bindingBytes(b binding) int {
	n := 48
	for i := range b.vals {
		if b.vals[i].Kind != kindUnbound {
			n += 16 + valueBytes(&b.vals[i])
		}
	}
	return n
}

// --- slot stamping (planner) ---

// stampExpr returns e with every variable reference the table knows
// stamped with its slot. Unknown names stay unstamped and fail at
// evaluation as unbound, exactly as before. The parsed query is shared
// with prepared statements (a Stmt re-plans it when its cache entry is
// evicted), so nothing is rewritten in place.
func stampExpr(e Expr, tab *slotTable) Expr {
	switch v := e.(type) {
	case VarExpr:
		v.slot = tab.index(v.Name) + 1
		return v
	case PropExpr:
		v.slot = tab.index(v.Var) + 1
		return v
	case CmpExpr:
		v.Left, v.Right = stampExpr(v.Left, tab), stampExpr(v.Right, tab)
		return v
	case BoolExpr:
		v.Left, v.Right = stampExpr(v.Left, tab), stampExpr(v.Right, tab)
		return v
	case NotExpr:
		v.Inner = stampExpr(v.Inner, tab)
		return v
	case FuncExpr:
		if v.Arg != nil {
			v.Arg = stampExpr(v.Arg, tab)
		}
		return v
	case ListExpr:
		v.Elems = stampExprs(v.Elems, tab)
		return v
	}
	return e
}

func stampExprs(es []Expr, tab *slotTable) []Expr {
	if es == nil {
		return nil
	}
	out := make([]Expr, len(es))
	for i, e := range es {
		out[i] = stampExpr(e, tab)
	}
	return out
}

// slotsOf registers names and returns their slots in order.
func slotsOf(tab *slotTable, names []string) []int {
	out := make([]int, len(names))
	for i, n := range names {
		out[i] = tab.add(n)
	}
	return out
}

// assignStageSlots registers the variables a stage list binds, in stage
// order, and records each stage's slots on it. Sub-pipelines (hash-join
// build chains, optional inners) share the segment's table: a build
// chain runs over a frame of its own, but a variable has the same slot
// in both, which is what lets matches be installed slot to slot.
func assignStageSlots(stages []Stage, tab *slotTable) {
	for _, st := range stages {
		switch s := st.(type) {
		case *UnwindStage:
			s.slot = tab.add(s.Alias)
		case *ScanStage:
			s.slot = tab.add(s.Node.Var)
		case *ExpandStage:
			s.fromSlot = tab.add(s.From)
			s.edgeSlot = -1
			if displayVar(s.Edge.Var) != "" {
				// Synthetic edge names are never read, so never bound.
				s.edgeSlot = tab.add(s.Edge.Var)
			}
			s.toSlot = tab.add(s.To.Var)
		case *VarExpandStage:
			s.fromSlot, s.toSlot = tab.add(s.From), tab.add(s.To.Var)
		case *BiExpandStage:
			s.fromSlot, s.toSlot = tab.add(s.From), tab.add(s.toPattern().Var)
		case *HashJoinStage:
			assignStageSlots(s.Build, tab)
			s.buildSlots = slotsOf(tab, s.BuildVars)
		case *OptionalStage:
			assignStageSlots(s.Inner, tab)
			s.slots = slotsOf(tab, s.Vars)
		}
	}
}

// stampStages stamps every expression the stages evaluate. It runs after
// the whole table is built, so a filter may reference any variable of
// the segment.
func stampStages(stages []Stage, tab *slotTable) {
	for _, st := range stages {
		switch s := st.(type) {
		case *UnwindStage:
			s.Expr = stampExpr(s.Expr, tab)
		case *ScanStage:
			s.Filters = stampExprs(s.Filters, tab)
		case *ExpandStage:
			s.Filters = stampExprs(s.Filters, tab)
		case *VarExpandStage:
			s.Filters = stampExprs(s.Filters, tab)
		case *BiExpandStage:
			s.Filters = stampExprs(s.Filters, tab)
		case *HashJoinStage:
			stampStages(s.Build, tab)
			s.ProbeKeys = stampExprs(s.ProbeKeys, tab)
			s.BuildKeys = stampExprs(s.BuildKeys, tab)
			s.Filters = stampExprs(s.Filters, tab)
		case *OptionalStage:
			stampStages(s.Inner, tab)
		}
	}
}

// patternVarsInto registers the named variables of write patterns: the
// ones CREATE/MERGE bind for the projection.
func patternVarsInto(tab *slotTable, pats []Pattern) {
	for _, p := range pats {
		for _, np := range p.Nodes {
			if np.Var != "" {
				tab.add(np.Var)
			}
		}
		for _, ep := range p.Edges {
			if ep.Var != "" {
				tab.add(ep.Var)
			}
		}
	}
}
