package cypher

import (
	"errors"
	"regexp"
	"strings"
	"testing"

	"securitykg/internal/graph"
)

// The ANALYZE golden suite pins the profiled-plan rendering on the same
// fixture stores the golden-plan suite uses: per-operator actual rows,
// input rows, and iterator calls are exact (the fixtures and plans are
// deterministic); wall times are masked, since they are the one
// nondeterministic field.

var analyzeTimeRe = regexp.MustCompile(`time=[^\s\]]+`)

// analyzeGolden runs the statement under EXPLAIN ANALYZE and returns
// the profiled plan with durations masked.
func analyzeGolden(t *testing.T, s *graph.Store, q string) string {
	t.Helper()
	_, plan, err := NewEngine(s, DefaultOptions()).QueryAnalyze(q, nil)
	if err != nil {
		t.Fatalf("analyze %q: %v", q, err)
	}
	return analyzeTimeRe.ReplaceAllString(plan, "time=*")
}

func TestAnalyzeGoldenScanExpandAggregate(t *testing.T) {
	got := analyzeGolden(t, goldenMeshStore(),
		`match (a:H {name: "h0"})-[:R]->(b) return count(*)`)
	assertGolden(t, got, `
plan (streaming, greedy-ordered, analyzed):
   1. IndexSeek(label+name) (a:H {name: "h0"}) name="h0"           est≈1 act=1 in=1 calls=2 time=*
   2. Expand (a)-[:R]->(b)                                         est≈39 act=39 in=1 calls=40 time=*
   => Aggregate count(*) [in=39 out=1 time=*]
`)
}

func TestAnalyzeGoldenVarExpandDrift(t *testing.T) {
	// The uniform-walk estimate over a clique wildly overshoots the
	// deduplicated reachable set (est 1560 vs 39 actual): the stage line
	// must carry the drift! marker.
	got := analyzeGolden(t, goldenMeshStore(),
		`match (a:H {name: "h0"})-[:R*1..2]->(b) return count(*)`)
	assertGolden(t, got, `
plan (streaming, greedy-ordered, analyzed):
   1. IndexSeek(label+name) (a:H {name: "h0"}) name="h0"           est≈1 act=1 in=1 calls=2 time=*
   2. VarExpand (a)-[:R*1..2]->(b)                                 est≈1560 act=39 in=1 calls=40 time=* drift!
   => Aggregate count(*) [in=39 out=1 time=*]
`)
}

func TestAnalyzeGoldenHashJoinSort(t *testing.T) {
	// HashJoin act=200 (the 300/300 name overlap), plus profiled
	// Project and Sort ops under a limit.
	got := analyzeGolden(t, goldenJoinStore(),
		`match (a:Src), (b:Dst) where a.name = b.name return a.name, b.name order by a.name limit 5`)
	assertGolden(t, got, `
plan (streaming, greedy-ordered, analyzed):
   1. LabelScan (a:Src)                                            est≈300 act=300 in=1 calls=301 time=*
   2. HashJoin on a.name = b.name (build=chain)                    est≈300 act=200 in=300 calls=201 time=*
      where a.name = b.name
       2.1 LabelScan (b:Dst)                                       est≈300 act=300 in=1 calls=301 time=*
   => Project a.name, b.name [in=200 out=5 time=*]
   => Sort a.name [in=200 time=*]
   => Limit 5 (early cutoff)
`)
}

func TestAnalyzeGoldenBiExpand(t *testing.T) {
	got := analyzeGolden(t, goldenMeshStore(),
		`match (a:H {name: "h0"})-[:R]->()-[:R]->()-[:R]->()-[:R]->(b:H {name: "h1"}) return count(*)`)
	assertGolden(t, got, `
plan (streaming, greedy-ordered, analyzed):
   1. IndexSeek(label+name) (a:H {name: "h0"}) name="h0"           est≈1 act=1 in=1 calls=2 time=*
   2. BiExpand (a)-[:R]->()-[:R]->()-[:R]->()-[:R]->(b:H {name: "h1"}) [4 hops, meet@2] est≈57836.0 act=57836 in=1 calls=57837 time=*
   => Aggregate count(*) [in=57836 out=1 time=*]
`)
}

func TestAnalyzeGoldenOptional(t *testing.T) {
	// The inner chain profiles too: the Expand under Optional produced
	// zero rows (no :NOPE edges), yet the Optional stage still emits its
	// input row with x unbound.
	got := analyzeGolden(t, goldenMeshStore(),
		`match (a:H {name: "h0"}) optional match (a)-[:NOPE]->(x) return a.name, x.name`)
	assertGolden(t, got, `
plan (streaming, greedy-ordered, analyzed):
   1. IndexSeek(label+name) (a:H {name: "h0"}) name="h0"           est≈1 act=1 in=1 calls=2 time=*
   2. Optional [introduces x]                                      est≈1 act=1 in=1 calls=2 time=*
       2.1 BoundRef (a)                                            est≈1 act=1 in=1 calls=2 time=*
       2.2 Expand (a)-[:NOPE]->(x)                                 est≈1 act=0 in=1 calls=1 time=*
   => Project a.name, x.name [in=1 out=1 time=*]
`)
}

func TestAnalyzeGoldenFilterSortDesc(t *testing.T) {
	// A filtered scan: act counts rows surviving the where clause (111
	// of 300 names contain "k1"), making filter selectivity visible.
	got := analyzeGolden(t, goldenJoinStore(),
		`match (a:Src) where a.name contains "k1" return a.name order by a.name desc limit 3`)
	assertGolden(t, got, `
plan (streaming, greedy-ordered, analyzed):
   1. LabelScan (a:Src)                                            est≈300 act=111 in=1 calls=112 time=*
      where a.name contains "k1"
   => Project a.name [in=111 out=3 time=*]
   => Sort a.name desc [in=111 time=*]
   => Limit 3 (early cutoff)
`)
}

func TestAnalyzeGoldenMutations(t *testing.T) {
	s := graph.New()
	got := analyzeGolden(t, s,
		`create (m:Malware {name: "wannacry"})-[:USE]->(t:Technique {name: "T1486"})`)
	assertGolden(t, got, `
plan (streaming, greedy-ordered, analyzed):
   1. Mutate (eager) [Create 1 pattern(s)]                         est≈1 act=1 in=1 calls=2 time=*
   => Project (write counts only) [in=1 out=0 time=*]
`)
	// ANALYZE executes for real: the created pattern must be visible.
	if s.Stats().Nodes != 2 || s.Stats().Edges != 1 {
		t.Fatalf("analyzed CREATE did not apply: %+v", s.Stats())
	}

	got = analyzeGolden(t, goldenJoinStore(),
		`match (a:Src {name: "k7"}) set a.triaged = "yes" return a.name`)
	assertGolden(t, got, `
plan (streaming, greedy-ordered, analyzed):
   1. IndexSeek(label+name) (a:Src {name: "k7"}) name="k7"         est≈1 act=1 in=1 calls=2 time=*
   2. Mutate (eager) [Set 1 prop(s)]                               est≈1 act=1 in=1 calls=2 time=*
   => Project a.name [in=1 out=1 time=*]
`)
}

// TestAnalyzeDifferentialRows pins ANALYZE's execution equivalence:
// the result rows of an analyzed statement are byte-identical to the
// same statement executed plainly.
func TestAnalyzeDifferentialRows(t *testing.T) {
	queries := []string{
		`match (a:Src), (b:Dst) where a.name = b.name return a.name, b.name order by a.name, b.name`,
		`match (a:Src) where a.name contains "k1" return a.name order by a.name desc limit 10`,
		`match (a:Src) return count(*)`,
	}
	for _, q := range queries {
		plainEng := NewEngine(goldenJoinStore(), DefaultOptions())
		plain, err := plainEng.Query(q, nil)
		if err != nil {
			t.Fatalf("plain %q: %v", q, err)
		}
		analyzedEng := NewEngine(goldenJoinStore(), DefaultOptions())
		analyzed, _, err := analyzedEng.QueryAnalyze(q, nil)
		if err != nil {
			t.Fatalf("analyze %q: %v", q, err)
		}
		if render := renderRowsText(analyzed); render != renderRowsText(plain) {
			t.Errorf("%q: analyzed rows diverge from plain execution:\n--- analyzed ---\n%s--- plain ---\n%s",
				q, render, renderRowsText(plain))
		}
	}
}

func renderRowsText(res *Result) string {
	var b strings.Builder
	b.WriteString(strings.Join(res.Columns, "|"))
	b.WriteByte('\n')
	for _, row := range res.Rows {
		for i, v := range row {
			if i > 0 {
				b.WriteByte('|')
			}
			b.WriteString(v.String())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestExplainAnalyzeStatement drives the parser path: an
// "explain analyze <stmt>" statement through the plain Query API
// executes fully and returns the profiled plan as rows.
func TestExplainAnalyzeStatement(t *testing.T) {
	s := graph.New()
	e := NewEngine(s, DefaultOptions())
	res, err := e.Query(`explain analyze create (m:Malware {name: "x"})`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) != 1 || res.Columns[0] != "plan" {
		t.Fatalf("columns = %v, want [plan]", res.Columns)
	}
	joined := ""
	for _, row := range res.Rows {
		joined += row[0].String() + "\n"
	}
	if !strings.Contains(joined, "analyzed") || !strings.Contains(joined, "act=1") {
		t.Fatalf("plan rows missing profile annotations:\n%s", joined)
	}
	if res.Writes == nil || res.Writes.NodesCreated != 1 {
		t.Fatalf("explain analyze create must report its write: %+v", res.Writes)
	}
	if s.Stats().Nodes != 1 {
		t.Fatalf("explain analyze create must apply: %+v", s.Stats())
	}
	// Plain EXPLAIN still must not execute.
	if _, err := e.Query(`explain create (m:Malware {name: "y"})`, nil); err != nil {
		t.Fatal(err)
	}
	if s.Stats().Nodes != 1 {
		t.Fatal("plain EXPLAIN executed a write")
	}
}

// TestAnalyzeHasNoSideEffect: analyzing a statement whose estimate is far
// off — every run below carries the drift marker — changes neither the
// store's stats version nor the plan cache, so the statement's cached
// plan keeps being served.
func TestAnalyzeHasNoSideEffect(t *testing.T) {
	s := goldenMeshStore()
	e := NewEngine(s, DefaultOptions())
	const q = `match (a:H {name: "h0"})-[:R*1..2]->(b) return count(*)`
	if _, err := e.Query(q, nil); err != nil { // plans q and caches the plan
		t.Fatal(err)
	}
	version, cache, plan := s.StatsVersion(), e.PlanCacheStats(), explain(t, s, q)

	for i := 0; i < 5; i++ {
		_, text, err := e.QueryAnalyze(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(text, " drift!") {
			t.Fatalf("run %d is not a drifting one:\n%s", i, text)
		}
	}
	if got := e.PlanCacheStats(); got != cache {
		t.Errorf("plan cache after QueryAnalyze = %+v, want %+v", got, cache)
	}
	// The statement form looks its own text up in the cache (a miss each
	// time) but must leave q's entry alone.
	for i := 0; i < 5; i++ {
		if _, err := e.Query("explain analyze "+q, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.StatsVersion(); got != version {
		t.Errorf("stats version moved %d -> %d under EXPLAIN ANALYZE", version, got)
	}
	before := e.PlanCacheStats()
	if _, err := e.Query(q, nil); err != nil {
		t.Fatal(err)
	}
	if got := e.PlanCacheStats(); got.Hits != before.Hits+1 || got.Misses != before.Misses {
		t.Errorf("the statement was planned again after being analyzed: cache %+v -> %+v", before, got)
	}
	if got := explain(t, s, q); got != plan {
		t.Errorf("plan changed after being analyzed:\n%s\nwas:\n%s", got, plan)
	}
}

// TestAnalyzeBudgetStillEnforced: the profiled path threads the same
// byte budget as plain execution.
func TestAnalyzeBudgetStillEnforced(t *testing.T) {
	s := goldenMeshStore()
	opts := DefaultOptions()
	opts.MaxBytes = 1 << 10
	e := NewEngine(s, opts)
	_, _, err := e.QueryAnalyze(`match (a:H)-[:R]->(b) return a.name, b.name`, nil)
	if err == nil {
		t.Fatal("expected byte-budget abort under ANALYZE")
	}
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("want BudgetError, got %T: %v", err, err)
	}
}

// TestAnalyzeParamsNeverInPlan: parameter *values* must not leak into
// the profiled plan text — only $names appear (the plan is logged and
// scraped, bindings may hold hunted IOCs).
func TestAnalyzeParamsNeverInPlan(t *testing.T) {
	s := goldenJoinStore()
	e := NewEngine(s, DefaultOptions())
	_, plan, err := e.QueryAnalyze(
		`match (a:Src) where a.name = $secret return a.name`,
		map[string]any{"secret": "k7-sensitive-value"})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plan, "k7-sensitive-value") {
		t.Fatalf("parameter value leaked into plan text:\n%s", plan)
	}
	if !strings.Contains(plan, "$secret") {
		t.Fatalf("plan should reference the parameter by placeholder:\n%s", plan)
	}
}
