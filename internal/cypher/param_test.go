package cypher

// Tests for the driver-grade query API: $parameter binding, prepared
// statements over the store-shared plan cache, the streaming Rows
// cursor, and the byte budget's typed error.

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"securitykg/internal/graph"
)

func TestParseCollectsParams(t *testing.T) {
	q, err := Parse(`match (a {name: $who})-[:USE]->(b) where b.name <> $other and b.name contains $frag return b.name, $who`)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(q.Params, ",")
	if got != "frag,other,who" {
		t.Errorf("params = %q, want frag,other,who", got)
	}
	np := q.Parts[0].Matches[0].Patterns[0].Nodes[0]
	if np.ParamProps["name"] != "who" {
		t.Errorf("ParamProps = %v, want name->who", np.ParamProps)
	}
	if _, err := Parse(`match (n) where n.name = $ return n`); err == nil {
		t.Error("bare '$' parsed without error")
	}
}

func TestMissingAndBadParams(t *testing.T) {
	s := randomStore(1, 20)
	eng := NewEngine(s, DefaultOptions())
	if _, err := eng.Query(`match (n {name: $who}) return n`, nil); err == nil ||
		!strings.Contains(err.Error(), "missing parameter $who") {
		t.Errorf("want missing-parameter error, got %v", err)
	}
	if _, err := eng.Query(`match (n {name: $who}) return n`,
		map[string]any{"who": struct{}{}}); err == nil ||
		!strings.Contains(err.Error(), "unsupported parameter type") {
		t.Errorf("want unsupported-type error, got %v", err)
	}
	// Extra bindings are allowed (shells keep one set for many queries).
	if _, err := eng.Query(`match (n) return count(*)`,
		map[string]any{"unused": 1}); err != nil {
		t.Errorf("extra binding rejected: %v", err)
	}
}

func TestParamEquivalentToLiteral(t *testing.T) {
	// A parameterized statement must return exactly what the same
	// statement with the value spliced as a literal returns — on the
	// engine with and without indexes, and on the reference.
	s := randomStore(3, 40)
	for qi, q := range []querier{
		NewEngine(s, Options{UseIndexes: true}),
		NewEngine(s, Options{UseIndexes: false}),
		reference{s},
	} {
		for _, name := range []string{"n1", "n17", "does-not-exist"} {
			lit, err := q.Query(fmt.Sprintf(`match (a {name: %q})-[r]-(b) return type(r), b.name`, name), nil)
			if err != nil {
				t.Fatal(err)
			}
			par, err := q.Query(`match (a {name: $n})-[r]-(b) return type(r), b.name`,
				map[string]any{"n": name})
			if err != nil {
				t.Fatal(err)
			}
			if !sameMultiset(renderRows(lit), renderRows(par)) {
				t.Errorf("querier %d name=%s:\nliteral: %v\nparam:   %v",
					qi, name, renderRows(lit), renderRows(par))
			}
		}
	}
}

// paramQueryTemplates are the differential shapes for randomized
// parameter bindings: inline props, WHERE equalities (the index-hint
// path), string operators, numeric comparisons after aggregation, and
// var-length anchors.
var paramQueryTemplates = []string{
	`match (n {name: $a}) return n.type, n.name`,
	`match (n) where n.name = $a return n.type, n.name`,
	`match (n:Malware) where n.name = $a or n.name = $b return n.name`,
	`match (x)-[:CONNECT]->(y) where x.name = $a or y.name starts with $b return x.name, y.name`,
	`match (n) where n.name contains $a and not n.name = $b return n.name`,
	`match (a {name: $a})-[:RELATED_TO*1..2]-(b) return b.name`,
	`match (a {name: $a}) optional match (a)-[r]-(b) return a.name, b.name`,
	`match (a)-[:USE]->(b) with a, count(b) as c where c >= $k return a.name, c`,
	`match (n) where n.name = $a return n.name, $b`,
}

// Property: over randomized graphs, queries and parameter bindings, the
// planned engine and the reference agree row-for-row.
func TestParamDifferentialQuick(t *testing.T) {
	f := func(seed int64, qi uint8, av, bv uint8, kv int8) bool {
		s := randomStore(seed%1000, 40)
		q := paramQueryTemplates[int(qi)%len(paramQueryTemplates)]
		args := map[string]any{
			"a": fmt.Sprintf("n%d", int(av)%45),
			"b": fmt.Sprintf("n%d", int(bv)%45),
			"k": int(kv % 4),
		}
		planned, err1 := NewEngine(s, Options{UseIndexes: true}).Query(q, args)
		ref, err2 := reference{s}.Query(q, args)
		if (err1 == nil) != (err2 == nil) {
			t.Logf("error mismatch for %q %v: planned=%v reference=%v", q, args, err1, err2)
			return false
		}
		if err1 != nil {
			return true
		}
		if !sameMultiset(renderRows(planned), renderRows(ref)) {
			t.Logf("row mismatch for %q %v (seed %d):\nplanned:   %v\nreference: %v",
				q, args, seed, renderRows(planned), renderRows(ref))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

func TestPreparedReuseOnePlanManyBindings(t *testing.T) {
	// The acceptance-criteria shape: one prepared statement, 100 distinct
	// bindings, exactly one parse+plan — verified by the shared cache's
	// hit/miss counters and by every binding returning its own row.
	s := graph.New()
	for i := 0; i < 200; i++ {
		s.MergeNode("Malware", fmt.Sprintf("m%d", i), nil)
	}
	eng := NewEngine(s, DefaultOptions())
	base := eng.PlanCacheStats()
	stmt, err := eng.Prepare(`match (n:Malware {name: $name}) return n.name`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		res, err := stmt.Query(map[string]any{"name": fmt.Sprintf("m%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0].Str != fmt.Sprintf("m%d", i) {
			t.Fatalf("binding %d: rows %v", i, renderRows(res))
		}
	}
	st := eng.PlanCacheStats()
	if misses := st.Misses - base.Misses; misses != 1 {
		t.Errorf("plan builds = %d, want exactly 1 (parse+plan only at Prepare)", misses)
	}
	if hits := st.Hits - base.Hits; hits != 100 {
		t.Errorf("plan-cache hits = %d, want 100 (one per execution)", hits)
	}
}

func TestSharedPlanCacheAcrossEngines(t *testing.T) {
	// Satellite regression: two engines over one store must hit each
	// other's plans — the cache is keyed per store, not per engine.
	s := graph.New()
	for i := 0; i < 50; i++ {
		s.MergeNode("T", fmt.Sprintf("n%d", i), nil)
	}
	q := `match (n:T) where n.name = $x return n.name`
	eng1 := NewEngine(s, DefaultOptions())
	base := eng1.PlanCacheStats()
	if _, err := eng1.Query(q, map[string]any{"x": "n5"}); err != nil {
		t.Fatal(err)
	}
	eng2 := NewEngine(s, DefaultOptions())
	res, err := eng2.Query(q, map[string]any{"x": "n7"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Str != "n7" {
		t.Fatalf("eng2 rows: %v", renderRows(res))
	}
	st := eng2.PlanCacheStats()
	if st.Misses-base.Misses != 1 || st.Hits-base.Hits != 1 {
		t.Errorf("misses=%d hits=%d after two engines ran the same text, want 1/1",
			st.Misses-base.Misses, st.Hits-base.Hits)
	}
	// Engines with different planning options must NOT share entries.
	eng3 := NewEngine(s, Options{UseIndexes: false})
	if _, err := eng3.Query(q, map[string]any{"x": "n5"}); err != nil {
		t.Fatal(err)
	}
	if got := eng3.PlanCacheStats().Misses - base.Misses; got != 2 {
		t.Errorf("no-index engine misses = %d, want its own entry (2 total misses)", got)
	}
}

func TestParamValuesNeverParsedAsQueryText(t *testing.T) {
	// The injection-shaped footgun: a value full of Cypher syntax binds
	// as an inert string. Spliced, it would change the statement; bound,
	// it matches (or not) literally.
	s := graph.New()
	hostile := `x" return n // `
	s.MergeNode("Malware", hostile, nil)
	s.MergeNode("Malware", "benign", nil)
	res, err := NewEngine(s, Options{UseIndexes: true}).Query(`match (n {name: $v}) return n.name, labels(n)`,
		map[string]any{"v": hostile})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Str != hostile {
		t.Errorf("hostile value did not bind literally: %v", renderRows(res))
	}
}

func TestParamSeekPlansLikeLiteral(t *testing.T) {
	// A $param name equality must pick the same index kinds a literal
	// does, with the param carried in the plan (visible via EXPLAIN).
	s := graph.New()
	s.IndexAttr("platform")
	for i := 0; i < 100; i++ {
		// A $param seek is costed by structure, at one node like a literal
		// (label, name) seek, so the composite attr seek beats the
		// 100-node label scan although the bound value is unknown.
		s.MergeNode("Malware", fmt.Sprintf("m%d", i), map[string]string{"platform": fmt.Sprintf("os%d", i%10)})
	}
	eng := NewEngine(s, DefaultOptions())
	plan, err := eng.Explain(`match (n:Malware {name: $who}) return n`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "IndexSeek(label+name)") || !strings.Contains(plan, "name=$who") {
		t.Errorf("param name seek missing from plan:\n%s", plan)
	}
	plan, err = eng.Explain(`match (n:Malware) where n.platform = $p return n`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "IndexSeek(label+attr)") || !strings.Contains(plan, "platform=$p") {
		t.Errorf("param attr seek missing from plan:\n%s", plan)
	}
	// Non-string bindings for a name seek are an empty (not erroneous) match.
	res, err := eng.Query(`match (n {name: $who}) return n`, map[string]any{"who": 7})
	if err != nil || len(res.Rows) != 0 {
		t.Errorf("numeric name binding: rows=%v err=%v, want empty/nil", res, err)
	}
	// EXPLAIN never executes, so it must not require bindings.
	res, err = NewEngine(s, Options{UseIndexes: true}).Query(`explain match (n:Malware {name: $who}) return n`, nil)
	if err != nil || len(res.Rows) == 0 {
		t.Errorf("EXPLAIN of unbound param statement: rows=%v err=%v", res, err)
	}
}

// --- Rows cursor ---

func TestRowsStreamsFirstRowWithoutMaterializing(t *testing.T) {
	// Acceptance shape: a LIMIT 1 over an effectively unbounded cross
	// product (1000^3 = 1e9 combinations). Materializing would run for
	// hours; the cursor must surface its row immediately because the
	// executor only pulls what the cursor asks for.
	s := graph.New()
	for i := 0; i < 1000; i++ {
		s.MergeNode("T", fmt.Sprintf("n%d", i), nil)
	}
	eng := NewEngine(s, DefaultOptions())
	rows, err := eng.QueryRows(`match (a), (b), (c) return a.name, b.name, c.name limit 1`, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := rows.Drain(func([]Value) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("LIMIT 1 produced %d rows", n)
	}

	// Without a LIMIT, pulling a handful of rows and stopping the drain
	// must be equally immediate.
	rows, err = eng.QueryRows(`match (a), (b), (c) return a.name`, nil)
	if err != nil {
		t.Fatal(err)
	}
	stop := errors.New("stop")
	n = 0
	err = rows.Drain(func([]Value) error {
		if n++; n == 5 {
			return stop
		}
		return nil
	})
	if err != stop || n != 5 {
		t.Fatalf("Drain = %v after %d rows, want the stop after 5", err, n)
	}
}

func TestDrainStopsOnCallbackError(t *testing.T) {
	// An error from Drain's callback stops the pull at that row, becomes
	// the statement's error and is what Drain returns: a read releases
	// its snapshot, and a write — whose mutations all ran on the first
	// pull — rolls back, leaving the store as it was.
	s := graph.New()
	for i := 0; i < 50; i++ {
		s.MergeNode("T", fmt.Sprintf("n%d", i), nil)
	}
	names := map[string]any{"names": []any{"h1", "h2", "h3"}}
	for _, tc := range []struct {
		q    string
		args map[string]any
		stop int
	}{
		{`match (a), (b), (c) return a.name`, nil, 3},
		{`unwind $names as n create (h:Host {name: n}) return h.name`, names, 2},
		{`unwind $names as n create (h:Host {name: n}) return h.name`, names, 1},
	} {
		before := s.Stats().Nodes
		rows, err := NewEngine(s, DefaultOptions()).QueryRows(tc.q, tc.args)
		if err != nil {
			t.Fatal(err)
		}
		stop := errors.New("stop")
		n := 0
		err = rows.Drain(func([]Value) error {
			if n++; n == tc.stop {
				return stop
			}
			return nil
		})
		if err != stop || n != tc.stop {
			t.Errorf("%s: Drain = %v after %d rows, want the callback's error after %d", tc.q, err, n, tc.stop)
		}
		if err := rows.Drain(func([]Value) error { n++; return nil }); err != stop || n != tc.stop {
			t.Errorf("%s: the cursor is still open after Drain returned (%v, %d rows)", tc.q, err, n)
		}
		if got := s.Stats().Nodes; got != before {
			t.Errorf("%s: %d nodes after the stopped drain, want %d: the statement landed", tc.q, got, before)
		}
		if st := s.MVCCStats(); st != (graph.MVCCStats{}) {
			t.Errorf("%s: MVCC overlay after Drain returned: %+v", tc.q, st)
		}
	}
}

func TestRowsColumnsAndScan(t *testing.T) {
	s := graph.New()
	s.MergeNode("Malware", "wannacry", nil)
	eng := NewEngine(s, DefaultOptions())
	rows, err := eng.QueryRows(`match (n:Malware) return n.name as name, count(*) as c`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cols := rows.Columns(); len(cols) != 2 || cols[0] != "name" || cols[1] != "c" {
		t.Fatalf("columns = %v", rows.Columns())
	}
	var got [][]Value
	err = rows.Drain(func(row []Value) error {
		got = append(got, append([]Value(nil), row...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0][0].Str != "wannacry" || got[0][1].Num != 1 {
		t.Errorf("rows = %v", got)
	}
}

func TestRowsOrderedAndAggregatedPaths(t *testing.T) {
	// The buffered cursor paths (sort, aggregate) must agree with the
	// materializing API.
	s := randomStore(11, 40)
	eng := NewEngine(s, DefaultOptions())
	for _, q := range []string{
		`match (n) return n.name order by n.name desc skip 3 limit 4`,
		`match (a)-[:CONNECT]->(b) return a.type, count(b) order by a.type`,
		`match (n) return distinct n.type order by n.type`,
	} {
		res, err := eng.Query(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := eng.QueryRows(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := drainStrings(rows)
		if err != nil {
			t.Fatal(err)
		}
		want := renderRows(res)
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("%s:\ncursor: %v\nquery:  %v", q, got, want)
		}
	}
}

func TestBudgetErrorIsTypedNotTruncation(t *testing.T) {
	// Acceptance: exceeding the byte budget surfaces *BudgetError — on
	// the materializing path and through the cursor.
	s := graph.New()
	for i := 0; i < 2000; i++ {
		s.MergeNode("T", fmt.Sprintf("node-with-a-long-name-%d", i), nil)
	}
	opts := Options{UseIndexes: true, MaxBytes: 8 << 10}
	_, err := NewEngine(s, opts).Query(`match (n) return n.name`, nil)
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("materialized: want *BudgetError, got %v", err)
	}
	if be.Limit != 8<<10 || be.Used <= be.Limit {
		t.Errorf("budget fields: limit=%d used=%d", be.Limit, be.Used)
	}

	rows, err := NewEngine(s, opts).QueryRows(`match (n) return n.name`, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	err = rows.Drain(func([]Value) error { n++; return nil })
	if !errors.As(err, &be) {
		t.Fatalf("cursor: want *BudgetError after %d rows, got %v", n, err)
	}
	if n == 0 {
		t.Error("cursor produced no rows before tripping the budget")
	}

	// Under the budget the same query succeeds exactly.
	res, err := NewEngine(s, Options{UseIndexes: true, MaxBytes: 1 << 20}).Query(`match (n) return count(*)`, nil)
	if err != nil || res.Rows[0][0].Num != 2000 {
		t.Errorf("under budget: res=%v err=%v", res, err)
	}
}

func TestRowsParamStreamRandomBindings(t *testing.T) {
	// Streaming with rotating bindings over one prepared statement:
	// every pull must see its own binding's rows (no state bleed).
	s := randomStore(5, 60)
	eng := NewEngine(s, DefaultOptions())
	stmt, err := eng.Prepare(`match (a {name: $who})-[r]-(b) return type(r), b.name`)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 30; i++ {
		who := fmt.Sprintf("n%d", rng.Intn(60))
		want, err := eng.Query(fmt.Sprintf(`match (a {name: %q})-[r]-(b) return type(r), b.name`, who), nil)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := stmt.QueryRows(map[string]any{"who": who})
		if err != nil {
			t.Fatal(err)
		}
		got, err := drainStrings(rows)
		if err != nil {
			t.Fatal(err)
		}
		if !sameMultiset(got, renderRows(want)) {
			t.Fatalf("binding %q: cursor %v, query %v", who, got, renderRows(want))
		}
	}
}

// drainStrings drains a cursor into one "|"-joined string per row.
func drainStrings(rows *Rows) ([]string, error) {
	var out []string
	err := rows.Drain(func(row []Value) error {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = v.String()
		}
		out = append(out, strings.Join(cells, "|"))
		return nil
	})
	return out, err
}
