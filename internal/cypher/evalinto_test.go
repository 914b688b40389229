package cypher

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"securitykg/internal/graph"
)

// TestEvalIntoDirtySlot: evaluating into a slot that still holds an
// earlier row's value — a list, a map, a node or a number — gives exactly
// what evaluating into a fresh value gives, for every expression (and
// sub-expression) the property generators produce, under frames that bind
// its variables to every kind of value. A reused row slot must never keep
// a field of the previous row.
func TestEvalIntoDirtySlot(t *testing.T) {
	s := randomStore(3, 40)
	snap := s.Snapshot()
	defer snap.Release()
	nodes := snap.NodesByType("Malware")
	var edge *graph.Edge
	for _, id := range snap.AllNodeIDs() {
		if es := snap.Edges(id, graph.Out); len(es) > 0 {
			edge = es[0]
			break
		}
	}
	if len(nodes) < 2 || edge == nil {
		t.Fatal("random store has no Malware pair or no edge")
	}
	row := FieldsValue([]Field{{"name", StringValue("n1")}, {"n", NumberValue(-2)}, {"tags", ListValue([]Value{StringValue("a")})}})
	pool := []Value{
		NodeValue(nodes[0]), NodeValue(nodes[1]), EdgeValue(edge), row,
		ListValue([]Value{NumberValue(1), StringValue("n2"), NullValue()}),
		StringValue("n12"), NumberValue(3), NumberValue(math.Copysign(0, -1)),
		BoolValue(true), BoolValue(false), NullValue(),
	}
	stale := []Value{
		ListValue([]Value{StringValue("old"), NumberValue(9)}),
		FieldsValue([]Field{{"k", StringValue("old")}}),
		NodeValue(nodes[1]),
		NumberValue(42),
	}

	var qs []string
	qs = append(qs, equivalenceQueries...)
	for seed := int64(0); seed < 300; seed++ {
		qs = append(qs, genSurfaceQuery(rand.New(rand.NewSource(seed))), genWithWhereQuery(rand.New(rand.NewSource(seed))))
	}
	// Shapes no generator writes: parameters, map properties, the scalar
	// functions over every kind, and evaluation errors.
	qs = append(qs,
		`unwind $rows as row return row.name, row.missing, row.tags, lower(row.name), upper($p), id(row), labels(row), type(row)`,
		`match (a)-[r]->(b) where id(a) <> id(b) and a.name ends with "1" or not (b.type = $p) return [a, r, b.name, $p], id(r), r.type, r.id, a.id, a.label`,
		`match (a) where a.name <= $p or a.name > "n3" or a.name >= "n0" return a.nope, nope.x, nope, $missing, sum(a)`,
	)
	exprs := map[string]Expr{}
	for _, q := range qs {
		parsed, err := Parse(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		forEachExpr(parsed, func(e Expr) { exprs[exprText(e)] = e })
	}
	texts := make([]string, 0, len(exprs))
	for txt := range exprs {
		texts = append(texts, txt)
	}
	sort.Strings(texts)

	ps := params{names: []string{"p", "rows"}, vals: []Value{StringValue("N2"), ListValue([]Value{row})}}
	rng := rand.New(rand.NewSource(1))
	checked := 0
	for _, txt := range texts {
		e := exprs[txt]
		vars := map[string]bool{}
		exprVars(e, vars)
		tab := &slotTable{}
		for v := range vars {
			tab.add(v)
		}
		for trial := 0; trial < 20; trial++ {
			b := newBinding(tab)
			for i := range b.vals {
				if rng.Intn(8) > 0 { // now and then a variable stays unbound
					b.vals[i] = pool[rng.Intn(len(pool))]
				}
			}
			want, wantErr := evalExpr(e, &b, ps)
			for _, old := range stale {
				dst := old
				if err := evalInto(&dst, e, &b, ps); (err == nil) != (wantErr == nil) {
					t.Fatalf("%s over a stale %s: error %v, fresh slot's %v", txt, old, err, wantErr)
				} else if err == nil && !reflect.DeepEqual(dst, want) {
					t.Fatalf("%s over a stale %s: %#v, fresh slot's %#v", txt, old, dst, want)
				}
				checked++
			}
		}
	}
	if len(texts) < 50 {
		t.Errorf("only %d expression shapes: the generators' expressions are not reaching the test", len(texts))
	}
	t.Logf("%d expression shapes, %d dirty-slot evaluations", len(texts), checked)
}

// forEachExpr calls fn on every expression of q and on each of its
// sub-expressions; an aggregate contributes its argument.
func forEachExpr(q *Query, fn func(Expr)) {
	var walk func(Expr)
	walk = func(e Expr) {
		switch x := e.(type) {
		case nil:
			return
		case ListExpr:
			for _, el := range x.Elems {
				walk(el)
			}
		case CmpExpr:
			walk(x.Left)
			walk(x.Right)
		case BoolExpr:
			walk(x.Left)
			walk(x.Right)
		case NotExpr:
			walk(x.Inner)
		case FuncExpr:
			walk(x.Arg)
			if isAggregate(x) {
				return
			}
		}
		fn(e)
	}
	for _, part := range q.Parts {
		if part.Unwind != nil {
			walk(part.Unwind.Expr)
		}
		for _, mc := range part.Matches {
			walk(mc.Where)
			for _, p := range mc.Patterns {
				for _, np := range p.Nodes {
					for _, e := range np.ExprProps {
						walk(e)
					}
				}
			}
		}
		for _, it := range part.Items {
			walk(it.Expr)
		}
		walk(part.Where)
		for _, k := range part.OrderBy {
			walk(k.Expr)
		}
		for _, si := range part.Sets {
			walk(si.Val)
		}
	}
}
