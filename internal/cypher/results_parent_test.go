package cypher

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"hash"
	"sort"
	"strings"
	"testing"

	"securitykg/internal/graph"
)

var updateResults = flag.Bool("update-results", false, "rewrite testdata/results_parent.txt from the reference evaluator")

// querier runs one statement to a materialized result: an *Engine or the
// reference evaluator.
type querier interface {
	Query(src string, args map[string]any) (*Result, error)
}

// parentArgs binds the parameters the parent corpus references; a
// statement ignores the ones it does not use.
var parentArgs = map[string]any{"secret": "k7", "p": "solaris"}

// tooBigToMaterialize lists the corpus statements the results listing
// skips: the reference materializes every binding, and these have more
// than it can hold.
var tooBigToMaterialize = map[string]bool{
	`match (a), (b), (c) return count(*)`: true, // 501³ bindings on the skewed hub
}

// TestReferenceMatchesParent holds the reference evaluator to
// testdata/results_parent.txt, which the tree-walking matcher it replaced
// wrote: what every statement of parentCorpus returns over its fixture,
// and what every statement of the write-differential scripts returns
// together with the Save hash of the store each script leaves behind.
// Regenerate (-update-results) only when a change means to alter what a
// statement returns.
func TestReferenceMatchesParent(t *testing.T) {
	got := resultsListing(t, func(s *graph.Store, _ Options) querier { return reference{s} })
	matchesParentFile(t, "testdata/results_parent.txt", got, *updateResults)
}

// TestEngineMatchesParent holds the engine to the same listing. It also
// pins what each statement charges against its byte budget: the SHA-256
// of every statement's Result.BudgetUsed, in listing order.
func TestEngineMatchesParent(t *testing.T) {
	h := sha256.New()
	got := resultsListing(t, func(s *graph.Store, opts Options) querier {
		return budgetHasher{NewEngine(s, opts), h}
	})
	matchesParentFile(t, "testdata/results_parent.txt", got, false)
	if sum := fmt.Sprintf("%x", h.Sum(nil)); sum != parentBudgetHash {
		t.Errorf("budget charges hash to %s, want %s", sum, parentBudgetHash)
	}
}

// parentBudgetHash is TestEngineMatchesParent's budget hash. It last
// moved when the planner began to hash the side of a join with the
// smaller entry count: two join-store statements with an expansion on
// each side now hash their input instead of their chain, and charge for
// the input rows they buffer.
const parentBudgetHash = "13d8ac2e6b4e86650a7ad7122055036eb3870cd8be9dbf11e6b219025e86f60e"

// budgetHasher folds each statement's budget use into h.
type budgetHasher struct {
	q querier
	h hash.Hash
}

func (b budgetHasher) Query(src string, args map[string]any) (*Result, error) {
	res, err := b.q.Query(src, args)
	used := int64(-1)
	if err == nil {
		used = res.BudgetUsed
	}
	fmt.Fprintf(b.h, "%s\t%d\n", src, used)
	return res, err
}

// resultsListing runs parentCorpus and the write scripts through the
// querier open returns for each store and renders one line per
// statement (resultLine), plus one Save hash per write script.
func resultsListing(t *testing.T, open func(*graph.Store, Options) querier) string {
	var out strings.Builder
	run := func(q querier, src string, args map[string]any) {
		res, err := q.Query(src, args)
		fmt.Fprintf(&out, "-- %s\n%s\n", src, resultLine(src, res, err))
	}
	parentCorpus(t, func(name string, s *graph.Store, opts Options, queries ...string) {
		fmt.Fprintf(&out, "== %s\n", name)
		q := open(s, opts)
		for _, src := range queries {
			if !tooBigToMaterialize[src] {
				run(q, src, parentArgs)
			}
		}
	})
	script := func(name string, stmts []string, args map[string]any) {
		fmt.Fprintf(&out, "== %s\n", name)
		s := writeFixture()
		q := open(s, Options{UseIndexes: true})
		for _, src := range stmts {
			run(q, strings.TrimPrefix(src, "!"), args)
		}
		fmt.Fprintf(&out, "save sha256=%x\n", sha256.Sum256(storeBytes(t, s)))
	}
	script("scripted writes", scriptedWrites, scriptedWriteArgs)
	for round, stmts := range randomWriteScripts() {
		script(fmt.Sprintf("random writes, round %d", round), stmts, nil)
	}
	return out.String()
}

// resultLine renders one statement's outcome: its error, or its row count
// and the SHA-256 of its columns, rows and write counts, the rows sorted
// unless an ORDER BY covers every column. Under a LIMIT or SKIP without
// such an ORDER BY, which rows come back depends on arrival order, so
// only their count is recorded.
func resultLine(src string, res *Result, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	q, err := Parse(src)
	if err != nil {
		return "error: " + err.Error()
	}
	fin := &q.Parts[len(q.Parts)-1]
	ordered := len(fin.OrderBy) > 0
	for _, it := range fin.Items {
		covered := false
		for _, k := range fin.OrderBy {
			covered = covered || exprText(k.Expr) == it.Alias
		}
		ordered = ordered && covered
	}
	if !ordered && (fin.Limit >= 0 || fin.Skip > 0) {
		return fmt.Sprintf("rows=%d", len(res.Rows))
	}
	rows := renderRows(res)
	if !ordered {
		sort.Strings(rows)
	}
	h := sha256.New()
	fmt.Fprintf(h, "cols=%v\n", res.Columns)
	for _, r := range rows {
		fmt.Fprintln(h, r)
	}
	if res.Writes != nil {
		fmt.Fprintf(h, "writes=%s\n", res.Writes)
	}
	return fmt.Sprintf("rows=%d sha256=%x", len(res.Rows), h.Sum(nil))
}
