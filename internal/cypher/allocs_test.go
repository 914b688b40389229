//go:build !race

// Allocation regression guards for the executor hot path. AllocsPerRun
// is meaningless under the race detector, so these run in the plain
// pass `make test` adds alongside the -race suite.

package cypher

import (
	"fmt"
	"testing"

	"securitykg/internal/graph"
)

// TestAnalyzeDisabledAllocs locks down that EXPLAIN ANALYZE
// instrumentation costs nothing when it is off: the profiling
// decorators are attached at pipeline construction only when a profile
// sink exists, so the ordinary warm prepared path (plan-cache hit,
// 200-row expand) must stay at its pre-instrumentation allocation
// count. The ceilings carry a few allocs of headroom for incidental
// churn, but any unconditional per-pull bookkeeping — one allocation
// per row pulled — overshoots them by ~200 and fails loudly.
func TestAnalyzeDisabledAllocs(t *testing.T) {
	s := graph.New()
	hub, _ := s.MergeNode("Malware", "hub", nil)
	for i := 0; i < 200; i++ {
		ip, _ := s.MergeNode("IP", fmt.Sprintf("10.0.0.%d", i), nil)
		s.AddEdge(hub, "CONNECT", ip, nil)
	}
	eng := NewEngine(s, DefaultOptions())
	args := map[string]any{"name": "hub"}

	agg, err := eng.Prepare(`match (m:Malware {name: $name})-[:CONNECT]->(ip) return count(*)`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := agg.Query(args); err != nil { // warm the plan cache
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := agg.Query(args); err != nil {
			t.Fatal(err)
		}
	}); allocs > 40 {
		t.Errorf("warm expand+aggregate allocates %.0f/op, want <= 40 (baseline 35): disabled instrumentation must add nothing", allocs)
	}

	proj, err := eng.Prepare(`match (m:Malware {name: $name})-[:CONNECT]->(ip) return ip.name`)
	if err != nil {
		t.Fatal(err)
	}
	drain := func() {
		rows, err := proj.QueryRows(args)
		if err != nil {
			t.Fatal(err)
		}
		if err := rows.Drain(func([]Value) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	drain()
	if allocs := testing.AllocsPerRun(200, drain); allocs > 32 {
		t.Errorf("warm expand cursor drain allocates %.0f/op, want <= 32 (baseline 27)", allocs)
	}
}

// allocsOf runs a warm prepared statement to exhaustion through its
// cursor and reports allocations per execution.
func allocsOf(t *testing.T, s *graph.Store, q string, wantRows int) float64 {
	t.Helper()
	stmt, err := NewEngine(s, DefaultOptions()).Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		rows, err := stmt.QueryRows(nil)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		if err := rows.Drain(func([]Value) error { n++; return nil }); err != nil {
			t.Fatal(err)
		}
		if n != wantRows {
			t.Fatalf("%s: %d rows, want %d", q, n, wantRows)
		}
	}
	run()
	return testing.AllocsPerRun(20, run)
}

// The row-path pins: what a row may cost between the label index and the
// caller. Each ceiling is a small constant — cursor, iterators, frames,
// ID list, window buffers — so anything that creeps back in per row (a
// key string, a projected row that is then dropped, a per-node lookup
// result) overshoots by the row count and fails loudly.

// TestTopKAllocs: ORDER BY + LIMIT k over 30 000 rows allocates O(k), not
// O(rows) — a row that cannot enter the window is never materialized.
func TestTopKAllocs(t *testing.T) {
	s := scanStore(30000)
	for _, tc := range []struct {
		q string
		k int
	}{
		{`match (r:R) return r.name order by r.published desc, r.name limit 10`, 10},
		{`match (r:R) return r.name order by r.published skip 40 limit 10`, 50},
	} {
		if allocs := allocsOf(t, s, tc.q, 10); allocs > float64(40+2*tc.k) {
			t.Errorf("%s: %.0f allocs/op, want <= %d for a window of %d over 30000 rows", tc.q, allocs, 40+2*tc.k, tc.k)
		}
	}
}

// TestLabelScanAllocs: streaming 30 000 scanned rows through a cursor
// allocates nothing per row (chunked node reads into a reused window,
// slot frames, one reused row buffer).
func TestLabelScanAllocs(t *testing.T) {
	s := scanStore(30000)
	if allocs := allocsOf(t, s, `match (r:R) return r.name, r.published`, 30000); allocs > 30 {
		t.Errorf("label scan of 30000 rows: %.0f allocs/op, want <= 30", allocs)
	}
}

// TestGroupByAllocs: grouping 30 000 rows allocates per group, not per
// row — 40 groups here. Each aggregate argument is evaluated into one
// reused scratch value, of which min() and max() keep their own copy, so
// ordering the groups by an aggregate changes nothing per row.
func TestGroupByAllocs(t *testing.T) {
	s := scanStore(30000)
	for _, q := range []string{
		`match (r:R) return r.vendor, count(*), min(r.published)`,
		`match (r:R) return r.vendor, max(r.published) order by max(r.published) desc, r.vendor`,
	} {
		if allocs := allocsOf(t, s, q, 40); allocs > 40+5*40 {
			t.Errorf("%s: group-by of 30000 rows into 40 groups: %.0f allocs/op, want <= %d", q, allocs, 40+5*40)
		}
	}
}

// TestCollectAllocs: an aggregating WITH that collects 10 000 strings into
// 100 groups allocates per group, not per doubling of a group's list —
// the strings share one chain for the whole aggregation and each group's
// list is built once, at its exact size.
func TestCollectAllocs(t *testing.T) {
	s := graph.New()
	for i := 0; i < 10000; i++ {
		s.MergeNode("R", fmt.Sprintf("r%05d", i), map[string]string{"grp": fmt.Sprintf("g%02d", i%100)})
	}
	q := `match (r:R) with r.grp as g, collect(r.name) as names return g, names`
	if allocs := allocsOf(t, s, q, 100); allocs > 60+6*100 {
		t.Errorf("collect of 10000 strings into 100 groups: %.0f allocs/op, want <= %d", allocs, 60+6*100)
	}
}

// The WITH pins: a bridge carries each projected row into the next
// segment's frame without allocating, so a WITH costs what the same
// RETURN costs. A projected row allocated per upstream row overshoots
// by the row count.

// TestWithBridgeAllocs: a non-aggregating WITH streams 30 000 rows
// through the one reused row buffer.
func TestWithBridgeAllocs(t *testing.T) {
	s := scanStore(30000)
	if allocs := allocsOf(t, s, `match (r:R) with r.name as n, r.published as p return n, p`, 30000); allocs > 40 {
		t.Errorf("WITH bridge over 30000 rows: %.0f allocs/op, want <= 40", allocs)
	}
}

// TestWithDistinctAllocs: a DISTINCT WITH allocates per distinct row (40
// vendors here), not per row it drops.
func TestWithDistinctAllocs(t *testing.T) {
	s := scanStore(30000)
	if allocs := allocsOf(t, s, `match (r:R) with distinct r.vendor as v return v`, 40); allocs > 120 {
		t.Errorf("DISTINCT WITH of 30000 rows into 40: %.0f allocs/op, want <= 120", allocs)
	}
}
