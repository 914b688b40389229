package cypher

import (
	"fmt"
	"strings"
	"time"
)

// EXPLAIN ANALYZE profiling. The executor's iterators are untouched:
// when a statement is analyzed, buildStageChain wraps each stage
// iterator, and wrapOp each segment's end (its WITH bridge, or the final
// projection), in a profIter that counts pulls and rows and accumulates
// monotonic wall time. The wrap happens only when the profile is
// non-nil — one pointer test at pipeline *construction* time — so an
// un-analyzed execution runs the exact same iterator chain as before,
// with zero per-row overhead and zero extra allocations.
//
// Reported times are inclusive of the operator's inputs (each iterator
// pulls its upstream inside next()), matching the convention EXPLAIN
// ANALYZE users know from Postgres.

// stageProf accumulates the observed runtime behavior of one plan
// operator across the whole execution. Operators whose iterators are
// rebuilt per input row (optional sub-pipelines, hash-join build
// chains) share one stageProf per Stage, so their counts accumulate.
type stageProf struct {
	in      *stageProf // upstream operator's profile; nil at pipeline roots
	calls   int64      // next()/pull() invocations
	rows    int64      // rows produced (rows-out)
	elapsed time.Duration
}

// inRows is the operator's rows-in: the upstream's rows-out, or the
// single virtual input row at a pipeline root.
func (sp *stageProf) inRows() int64 {
	if sp.in == nil {
		return 1
	}
	return sp.in.rows
}

// sortProf captures the final ORDER BY separately from the projection
// operator: rows fed into the sort and time spent inside sortRows.
type sortProf struct {
	rows    int64
	elapsed time.Duration
}

// planProf is one analyzed execution's profile, keyed by operator
// identity (Stage pointers and segment pointers are stable for the
// plan's lifetime; the profile itself is per-execution, so a shared
// cached plan never sees another execution's counts).
type planProf struct {
	stages map[Stage]*stageProf
	ops    map[*PlanSegment]*stageProf // projection (With/Project/Aggregate)
	sorts  map[*PlanSegment]*sortProf
}

func newPlanProf() *planProf {
	return &planProf{
		stages: map[Stage]*stageProf{},
		ops:    map[*PlanSegment]*stageProf{},
		sorts:  map[*PlanSegment]*sortProf{},
	}
}

func (p *planProf) stageFor(st Stage) *stageProf {
	sp, ok := p.stages[st]
	if !ok {
		sp = &stageProf{}
		p.stages[st] = sp
	}
	return sp
}

// wrap instruments one stage iterator. input is the already-wrapped
// upstream iterator (nil at pipeline roots).
func (p *planProf) wrap(st Stage, it iter, input iter) iter {
	sp := p.stageFor(st)
	if pi, ok := input.(*profIter); ok {
		sp.in = pi.sp
	}
	return &profIter{inner: it, sp: sp}
}

// wrapOp instruments the end of a segment: the WITH bridge into the
// next segment, or the final projection the cursor reads. It counts the
// rows the consumer receives, so a WITH's out is what its WHERE keeps,
// and wires the operator's rows-in to the segment's last stage. With no
// profile it returns it unwrapped.
func (p *planProf) wrapOp(proj *projection, it iter) iter {
	if p == nil {
		return it
	}
	sp, ok := p.ops[proj.seg]
	if !ok {
		sp = &stageProf{}
		p.ops[proj.seg] = sp
	}
	if pi, ok := proj.in.(*profIter); ok {
		sp.in = pi.sp
	}
	return &profIter{inner: it, sp: sp}
}

// noteSort records the final segment's sort: rows buffered in, time
// spent sorting.
func (p *planProf) noteSort(seg *PlanSegment, rows int64, elapsed time.Duration) {
	sp, ok := p.sorts[seg]
	if !ok {
		sp = &sortProf{}
		p.sorts[seg] = sp
	}
	sp.rows += rows
	sp.elapsed += elapsed
}

// profIter times and counts one operator's next() calls.
type profIter struct {
	inner iter
	sp    *stageProf
}

func (p *profIter) next() (bool, error) {
	start := time.Now()
	ok, err := p.inner.next()
	p.sp.elapsed += time.Since(start)
	p.sp.calls++
	if ok {
		p.sp.rows++
	}
	return ok, err
}

// --- annotated rendering (plan.go's render consumes these) ---

// stageSuffix renders the observed counters appended to a stage line,
// or "" when the plan is rendered un-analyzed (plain EXPLAIN).
func (p *planProf) stageSuffix(st Stage) string {
	if p == nil {
		return ""
	}
	sp := p.stages[st]
	if sp == nil {
		return " act=0 in=0 calls=0 time=0s" // planned but never pulled
	}
	s := fmt.Sprintf(" act=%d in=%d calls=%d time=%s", sp.rows, sp.inRows(), sp.calls, sp.elapsed)
	if est, ok := scanEst(st); ok && cardinalityDrifted(est*float64(sp.inRows()), float64(sp.rows)) {
		s += " drift!"
	}
	return s
}

// opSuffix renders the projection operator's counters.
func (p *planProf) opSuffix(seg *PlanSegment) string {
	if p == nil {
		return ""
	}
	sp := p.ops[seg]
	if sp == nil {
		return ""
	}
	return fmt.Sprintf(" [in=%d out=%d time=%s]", sp.inRows(), sp.rows, sp.elapsed)
}

// sortSuffix renders the final sort's counters.
func (p *planProf) sortSuffix(seg *PlanSegment) string {
	if p == nil {
		return ""
	}
	sp := p.sorts[seg]
	if sp == nil {
		return ""
	}
	return fmt.Sprintf(" [in=%d time=%s]", sp.rows, sp.elapsed)
}

// A scan or seek is marked " drift!" when its observed rows are a
// driftRatio multiple away from its candidate count times its rows-in
// (the scan runs once per input row), with a small-floor guard
// so tiny absolute differences (est 2, act 0) never count: below the
// floor the planner's choice cannot have been wrong by enough to
// matter.
const (
	driftRatio = 8.0
	driftFloor = 16.0
)

func cardinalityDrifted(est, act float64) bool {
	if est < driftFloor && act < driftFloor {
		return false
	}
	return act > est*driftRatio || est > act*driftRatio
}

// --- execution entry points ---

// analyzeResult executes pl fully under profiling, discards its rows,
// and returns the annotated plan rendered as an EXPLAIN-shaped result —
// the statement form `EXPLAIN ANALYZE <query>`. The statement's writes
// (if any) apply exactly as they would un-analyzed.
func (e *Engine) analyzeResult(pl *Plan, ps params) (*Result, error) {
	prof := newPlanProf()
	rows, err := e.rowsForPlanProf(pl, ps, prof)
	if err != nil {
		return nil, err
	}
	for rows.Next() {
	}
	if err := rows.Close(); err != nil {
		return nil, err
	}
	mAnalyzeRuns.Inc()
	res := &Result{Columns: []string{"plan"}}
	for _, line := range strings.Split(strings.TrimSuffix(pl.render(prof), "\n"), "\n") {
		res.Rows = append(res.Rows, []Value{StringValue(line)})
	}
	res.Writes = rows.Writes()
	return res, nil
}

// QueryAnalyze executes a statement exactly as Query would — same rows,
// same writes, same budget — while profiling every pipeline stage, and
// returns the materialized result together with the annotated plan
// text. Analyzing has no effect of its own on the store or the plan
// cache.
func (e *Engine) QueryAnalyze(src string, args map[string]any) (*Result, string, error) {
	q, err := Parse(src)
	if err != nil {
		return nil, "", err
	}
	if q.TxOp != TxNone {
		return nil, "", errTxControl
	}
	pl, err := e.planQuery(q)
	if err != nil {
		return nil, "", err
	}
	ps, err := bindParams(q.Params, args)
	if err != nil {
		return nil, "", err
	}
	prof := newPlanProf()
	rows, err := e.rowsForPlanProf(pl, ps, prof)
	if err != nil {
		return nil, "", err
	}
	res, err := materialize(rows, e.opts.MaxRows)
	if err != nil {
		return nil, "", err
	}
	mAnalyzeRuns.Inc()
	return res, pl.render(prof), nil
}
