package cypher

// Tests for the final row operators: the total ORDER BY comparator, and
// the bounded top-k heap against the full stable sort it must be a
// prefix of.

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"regexp"
	"testing"
	"testing/quick"

	"securitykg/internal/graph"
)

// TestOrderByTotalOrder: ORDER BY places null and mixed-kind keys instead
// of treating them as equal to everything. The first case is the one
// that exposed the bug: every third key missing used to return a null
// first and then different rows on the windowed top-k and on a full
// sort.
func TestOrderByTotalOrder(t *testing.T) {
	s := graph.New()
	for i := 0; i < 5000; i++ {
		var attrs map[string]string
		if i%3 != 0 {
			attrs = map[string]string{"published": fmt.Sprintf("2021-%04d", (i*7919)%5000)}
		}
		s.MergeNode("R", fmt.Sprintf("r%05d", i), attrs)
	}
	first := func(q string) []string {
		t.Helper()
		var out []string
		for _, row := range bothEnginesOrdered(t, s, q).Rows {
			out = append(out, row[0].String())
		}
		return out
	}
	// Descending: nulls first, in arrival (ID) order.
	got := first(`match (r:R) return r.name order by r.published desc limit 5`)
	if want := []string{"r00000", "r00003", "r00006", "r00009", "r00012"}; !reflect.DeepEqual(got, want) {
		t.Errorf("desc limit 5: %v, want %v", got, want)
	}
	// Ascending: every dated row before any null.
	rows := bothEnginesOrdered(t, s, `match (r:R) return r.name, r.published order by r.published, r.name`).Rows
	nulls := 0
	for i, row := range rows {
		if row[1].Kind == KindNull {
			nulls++
		} else if nulls > 0 {
			t.Fatalf("row %d: dated row %v after %d nulls", i, row, nulls)
		} else if i > 0 && rows[i-1][1].Str > row[1].Str {
			t.Fatalf("row %d: %v after %v", i, row, rows[i-1])
		}
	}
	if nulls != 1667 {
		t.Errorf("%d null keys, want 1667", nulls)
	}
	// Mixed kinds: strings, numbers, booleans by kind, null last.
	mixed := `unwind [2, "b", null, true, 1.5, "a", false] as v return v order by v`
	if got, want := first(mixed), []string{"a", "b", "1.5", "2", "false", "true", "null"}; !reflect.DeepEqual(got, want) {
		t.Errorf("mixed ascending: %v, want %v", got, want)
	}
	if got, want := first(mixed+` desc limit 3`), []string{"null", "true", "false"}; !reflect.DeepEqual(got, want) {
		t.Errorf("mixed descending: %v, want %v", got, want)
	}
}

// bothEnginesOrdered runs q on the engine and the reference and asserts
// identical rows in identical order.
func bothEnginesOrdered(t *testing.T, s *graph.Store, q string) *Result {
	t.Helper()
	planned, err := NewEngine(s, DefaultOptions()).Query(q, nil)
	if err != nil {
		t.Fatalf("planned %q: %v", q, err)
	}
	ref, err := reference{s}.Query(q, nil)
	if err != nil {
		t.Fatalf("reference %q: %v", q, err)
	}
	if a, b := renderRows(planned), renderRows(ref); !reflect.DeepEqual(a, b) {
		t.Fatalf("engine and reference disagree on %q:\nplanned:   %v\nreference: %v", q, a, b)
	}
	return planned
}

// Property: ORDER BY ... SKIP s LIMIT l (the bounded heap) returns exactly
// rows [s, s+l) of the same statement without the paging (the full
// stable sort) — under ties, DESC keys, DISTINCT and hidden keys — and
// under a tight byte budget both trip at the same row.
func TestTopKMatchesFullSortQuick(t *testing.T) {
	orders := []string{
		`a.type`,                 // heavy ties: arrival order decides
		`a.type desc, b.name`,    // mixed directions
		`b.name desc`,            // ties across a
		`b.type, a.name desc`,    // hidden key (b.type is not returned)
		`a.name, b.name, a.type`, // total
		`id(b) desc`,             // hidden numeric key
	}
	f := func(seed int64, oi, k, sk uint8, distinct bool) bool {
		s := randomStore(seed%500, 40)
		order := orders[int(oi)%len(orders)]
		limit, skip := 1+int(k%15), int(sk%12)
		head := `match (a)-[:CONNECT]->(b) return `
		if distinct {
			// DISTINCT forbids hidden keys: order by returned columns only.
			head, order = head+`distinct `, orders[int(oi)%3]
		}
		base := head + `a.type, a.name, b.name order by ` + order
		paged := fmt.Sprintf(`%s skip %d limit %d`, base, skip, limit)
		eng := NewEngine(s, Options{UseIndexes: true, MaxBytes: 1 << 30})
		full, err := eng.Query(base, nil)
		if err != nil {
			t.Logf("%s: %v", base, err)
			return false
		}
		top, err := eng.Query(paged, nil)
		if err != nil {
			t.Logf("%s: %v", paged, err)
			return false
		}
		want := renderRows(&Result{Rows: pageRows(full.Rows, skip, limit)})
		if got := renderRows(top); !reflect.DeepEqual(got, want) && (len(got) > 0 || len(want) > 0) {
			t.Logf("%s (seed %d):\n got: %v\nwant: %v", paged, seed, got, want)
			return false
		}
		if len(full.Rows) == 0 {
			return true
		}
		// A budget that admits only part of the stream: same trip point.
		tight := NewEngine(s, Options{UseIndexes: true, MaxBytes: full.BudgetUsed / 2})
		_, e1 := tight.Query(base, nil)
		_, e2 := tight.Query(paged, nil)
		var b1, b2 *BudgetError
		if !errors.As(e1, &b1) || !errors.As(e2, &b2) || b1.Used != b2.Used {
			t.Logf("%s: budget trips differ: %v vs %v", paged, e1, e2)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Error(err)
	}
}

// scanStore is n :R nodes with a `published` attribute (one node in
// seven shares its date with others) and a `vendor` out of 40.
func scanStore(n int) *graph.Store {
	s := graph.New()
	for i := 0; i < n; i++ {
		s.MergeNode("R", fmt.Sprintf("r%05d", i), map[string]string{
			"published": fmt.Sprintf("2021-%03d", (i*7919)%(n/7)),
			"vendor":    fmt.Sprintf("v%02d", i%40),
		})
	}
	return s
}

// TestWithEarlyCutoff: a LIMIT after a non-aggregating WITH stops the
// scan, with and without a WHERE on the WITH: the bridge pulls only the
// rows it needs to pass three on.
func TestWithEarlyCutoff(t *testing.T) {
	s := scanStore(30000)
	for _, tc := range []struct{ q, want string }{
		{`match (r:R) with r.name as n return n limit 3`, `LabelScan \(r:R\) .* act=3 `},
		{`match (r:R) with r.name as n where n > "r29990" return n limit 3`, `=> With r.name \[in=29994 out=3 `},
	} {
		_, plan, err := NewEngine(s, DefaultOptions()).QueryAnalyze(tc.q, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.q, err)
		}
		if !regexp.MustCompile(tc.want).MatchString(plan) {
			t.Errorf("%s: plan does not match %q:\n%s", tc.q, tc.want, plan)
		}
	}
}
