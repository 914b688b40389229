package cypher

// The cursor and the operator behind it: Rows reads the final segment's
// projection, the one operator that ends every segment of a plan —
// streaming, buffered (aggregation, ORDER BY) or draining (a write-only
// statement) — and the byte budget it charges.

import (
	"errors"
	"fmt"
	"slices"
	"time"
)

// Rows is an incremental cursor over a query's result stream: rows are
// produced as Drain pulls them, so a LIMIT-ed or stopped query never
// materializes its full match set. Drain is the one way to read it:
//
//	rows, err := eng.QueryRows(src, args)
//	if err != nil { ... }
//	err = rows.Drain(func(row []Value) error {
//		fmt.Println(row[0])
//		return nil
//	})
//
// A statement ends exactly once, where Drain or Close ends the cursor.
// It lands only when Drain pulls it to exhaustion; a callback that
// returns an error, or a Close before Drain, stops it and rolls it back.
// Aggregation and ORDER BY cannot emit their first row before consuming
// their input; those queries buffer internally on the first pull
// (charging the byte budget), then stream the buffered result.
type Rows struct {
	cols   []string
	src    iter        // the final projection, or its ANALYZE wrapper
	proj   *projection // whose row is the current row after src.next
	err    error
	done   bool
	writes *WriteStats
	// finish ends the cursor's execution scope (tx.go) exactly once:
	// commit the statement's implicit transaction (nil error) or roll it
	// back (non-nil) — aborting an explicit transaction instead — or
	// release the pinned read snapshot. The whole statement is atomic —
	// a write statement's mutations become visible to other sessions
	// only when its cursor is drained to the end.
	finish func(error) error
	// Statement observability (metrics.go): kind is 'r'/'w' for cursors
	// produced by plan execution (0 for adapted results, which were
	// observed by their own execution), began anchors the latency
	// histogram, nrows counts emitted rows, bud exposes budget use.
	kind  byte
	began time.Time
	nrows int64
	bud   *byteBudget
}

// errClosed is the error of a statement whose cursor was closed before
// Drain ended it.
var errClosed = errors.New("cypher: cursor closed before Drain ended it")

// BudgetUsed returns the bytes charged against the statement's byte
// budget so far (0 when the budget is unlimited). Slow-query logs
// report it as a proxy for how much the statement enumerated.
func (r *Rows) BudgetUsed() int64 {
	if r.bud == nil {
		return 0
	}
	return r.bud.used
}

// Writes returns the statement's write counters (nil for read-only
// statements). A write statement applies all of its mutations on the
// first pull (the mutation stage is an eager barrier), so the counters
// are complete once Drain has returned nil. A statement that ended in
// error rolled back, so its counters are all zero.
func (r *Rows) Writes() *WriteStats { return r.writes }

// Columns returns the result column names, available before Drain. The
// caller must not modify the returned slice.
func (r *Rows) Columns() []string { return r.cols }

// Drain hands each row to each, in order, and ends the statement: the
// one loop that reads a cursor. An error from each stops the pull and
// becomes the statement's error, so the statement rolls back (an
// explicit transaction aborts) and Drain returns that error; otherwise
// Drain returns the statement's own error, which includes a failed
// commit. Nothing past the last pulled row is ever computed. The row
// passed to each is valid only during the call. Draining an ended
// cursor returns its error again.
func (r *Rows) Drain(each func(row []Value) error) error {
	for !r.done {
		ok, err := r.src.next()
		if err == nil && ok {
			r.nrows++
			err = each(r.proj.row)
		}
		if err != nil || !ok {
			r.end(err)
		}
	}
	return r.err
}

// Close ends a cursor that Drain has not: the statement stops where it
// is and rolls back — its writes never land — and a read releases its
// snapshot. Closing an ended cursor does nothing.
func (r *Rows) Close() {
	if !r.done {
		r.end(errClosed)
	}
}

// end ends the statement with err (nil when it ran to exhaustion):
// records the metrics and runs the scope's finish hook, whose commit
// failure becomes the statement's error.
func (r *Rows) end(err error) {
	r.err, r.done, r.src = err, true, nil
	if r.kind != 0 {
		observeStatement(r.kind, time.Since(r.began), r.nrows, err)
	}
	if r.finish != nil {
		if ferr := r.finish(err); ferr != nil && r.err == nil {
			r.err = ferr // commit failure: the statement did not land
		}
		r.finish = nil
	}
	if r.err != nil && r.writes != nil {
		r.writes = &WriteStats{}
	}
}

// rowsFromResult adapts an already-materialized result to the cursor
// interface: EXPLAIN and EXPLAIN ANALYZE output, and the empty result of
// a COMMIT or ROLLBACK. Its projection is a filled buffer.
func rowsFromResult(res *Result) *Rows {
	p := &projection{mode: buffered, started: true, buf: res.Rows}
	return &Rows{cols: res.Columns, src: p, proj: p, writes: res.Writes}
}

// materialize drains a cursor into a rectangular Result.
func materialize(rows *Rows) (*Result, error) {
	res := &Result{Columns: rows.Columns()}
	err := rows.Drain(func(row []Value) error {
		if rows.proj.mode == streaming { // the next pull overwrites row
			row = append([]Value(nil), row...)
		}
		res.Rows = append(res.Rows, row)
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Writes = rows.Writes()
	res.BudgetUsed = rows.BudgetUsed()
	return res, nil
}

// --- byte budget ---

// BudgetError is the typed error a query returns when it exceeds its
// Options.MaxBytes byte budget. It replaces the silent match-set
// truncation the engine used to apply: an over-budget query fails
// loudly instead of returning quietly wrong (truncated) aggregates.
type BudgetError struct {
	Limit int64 // the configured budget
	Used  int64 // bytes charged when the budget tripped
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("cypher: query exceeded its %d-byte budget (≈%d bytes streamed/materialized); add a LIMIT, narrow the match, or raise Options.MaxBytes", e.Limit, e.Used)
}

// byteBudget accrues the bytes a query streams or materializes. A nil
// budget (MaxBytes <= 0) is unlimited. Charges are coarse estimates —
// the point is bounding runaway queries, not exact accounting.
type byteBudget struct {
	limit int64
	used  int64
}

func newBudget(limit int64) *byteBudget {
	if limit <= 0 {
		return nil
	}
	return &byteBudget{limit: limit}
}

func (b *byteBudget) charge(n int) error {
	if b == nil {
		return nil
	}
	b.used += int64(n)
	if b.used > b.limit {
		return &BudgetError{Limit: b.limit, Used: b.used}
	}
	return nil
}

// aggRowCost is the flat per-row charge for rows consumed by an
// aggregation: the row itself is folded, not retained, so the charge
// models enumeration work (and bounds unbounded cross products) rather
// than held memory.
const aggRowCost = 64

// --- plan execution as a row stream ---

// runPlan wires a (possibly cached, possibly shared) plan into the
// streaming iterator pipeline and returns a cursor over its output. When
// prof is non-nil (ANALYZE), every stage iterator and segment end is
// wrapped in a profiling decorator (analyze.go).
func (e *Engine) runPlan(pl *Plan, ps params, prof *planProf) (*Rows, error) {
	if pl.HasWrites && e.opts.ReadOnly {
		return nil, ErrReadOnly
	}
	// Scope the statement (tx.go): reads pin a snapshot, writes open an
	// implicit store transaction. The returned cursor carries the scope's
	// finish hook.
	ex, finish, err := e.beginScope(pl.HasWrites)
	if err != nil {
		return nil, err
	}
	rows := ex.rowsForPlanScoped(pl, ps, prof)
	rows.finish = finish
	return rows, nil
}

// rowsForPlanScoped is runPlan's body, running on the per-statement
// scoped engine: each segment is its stage chain ended by a projection,
// a WITH bridge carries one segment's projection into the next, and the
// cursor reads the final one.
func (e *Engine) rowsForPlanScoped(pl *Plan, ps params, prof *planProf) *Rows {
	bud := newBudget(e.opts.MaxBytes)
	var writes *WriteStats
	if pl.HasWrites {
		writes = &WriteStats{}
	}
	began := time.Now()
	var p *projection
	var root iter
	for _, seg := range pl.Segments {
		ec := &execCtx{e: e, b: newBinding(seg.tab), ps: ps, bud: bud, writes: writes, prof: prof}
		if p != nil {
			root = prof.wrapOp(p, &withIter{p: p, ec: ec})
		}
		p = newProjection(seg, ec, buildStageChain(ec, seg.Stages, root))
	}
	r := &Rows{cols: p.seg.cols, src: prof.wrapOp(p, p), proj: p, writes: writes, began: began, bud: bud, kind: 'r'}
	if pl.HasWrites {
		r.kind = 'w'
	}
	return r
}

// --- the projection operator ---

// projection ends every segment: it pulls the segment's bindings and
// yields its projected rows, the current one in row. A WITH bridge
// (iter.go) carries the rows into the next segment; the cursor reads the
// final segment's. It runs in one of three modes:
//
//   - streaming: each binding is projected into the one reused row
//     buffer, and DISTINCT, SKIP and LIMIT apply row by row, so a
//     satisfied LIMIT stops upstream matching at once;
//   - buffered, for aggregation and ORDER BY: the first pull groups the
//     input (aggregateRows) or orders it (sortInput), strips the hidden
//     ORDER BY keys and cuts the SKIP/LIMIT page, and the rows are yielded
//     from that buffer;
//   - draining, when the segment projects nothing (a write-only
//     statement) or a write statement's LIMIT is 0: the first pull
//     exhausts the input, applying every mutation, and yields no row.
//
// Every projected row is charged against the byte budget as it is
// made, rows DISTINCT drops included, so the charge bounds enumeration,
// not just retained memory; an aggregation instead charges aggRowCost
// for each input row it folds.
type projection struct {
	seg     *PlanSegment
	ec      *execCtx
	in      iter
	mode    projMode
	row     []Value   // the current row
	seen    *rowSet   // DISTINCT, when not aggregating
	n       int       // streaming: rows past DISTINCT so far
	buf     [][]Value // buffered: the page still to yield
	started bool      // buffered, draining: the first pull ran
}

type projMode uint8

const (
	streaming projMode = iota
	buffered
	draining
)

func newProjection(seg *PlanSegment, ec *execCtx, in iter) *projection {
	p := &projection{seg: seg, ec: ec, in: in}
	switch {
	case len(seg.Items) == 0 || ec.writes != nil && seg.Limit == 0:
		// A LIMIT 0 returns no rows, but a statement's writes apply
		// whatever its RETURN keeps.
		p.mode = draining
	case seg.HasAggregate || seg.op != nil:
		p.mode = buffered
	default:
		p.row = make([]Value, len(seg.Items))
	}
	if seg.Distinct && !seg.HasAggregate {
		p.seen = newRowSet()
	}
	return p
}

func (p *projection) next() (bool, error) {
	if p.mode == streaming {
		return p.stream()
	}
	if !p.started {
		p.started = true
		if err := p.fill(); err != nil {
			return false, err
		}
	}
	if len(p.buf) == 0 {
		return false, nil
	}
	p.row, p.buf = p.buf[0], p.buf[1:]
	return true, nil
}

func (p *projection) stream() (bool, error) {
	seg, ec := p.seg, p.ec
	// Pull until LIMIT rows are past SKIP.
	for seg.Limit < 0 || max(p.n, seg.Skip) < seg.Skip+seg.Limit {
		ok, err := p.in.next()
		if err != nil || !ok {
			return false, err
		}
		if err := projectInto(p.row, seg.Items, nil, &ec.b, ec.ps); err != nil {
			return false, err
		}
		if err := ec.bud.charge(rowBytes(p.row)); err != nil {
			return false, err
		}
		if p.seen != nil && !p.seen.add(p.row) {
			continue
		}
		if p.n++; p.n > seg.Skip {
			return true, nil
		}
	}
	return false, nil
}

// fill runs a buffered or draining projection's first pull, leaving the
// rows to yield in buf.
func (p *projection) fill() error {
	seg := p.seg
	var rows [][]Value
	switch {
	case p.mode == draining:
		for {
			ok, err := p.in.next()
			if err != nil || !ok {
				return err
			}
		}
	case seg.HasAggregate:
		res := &Result{}
		if err := aggregateRows(seg.Items, res, p.consume, p.ec.ps); err != nil {
			return err
		}
		rows = res.Rows
		if seg.op != nil {
			sortRows(seg.OrderBy, rows, seg.op.keyCols)
		}
	case seg.Limit != 0:
		var err error
		if rows, err = p.sortInput(); err != nil {
			return err
		}
		stripHidden(rows, len(seg.cols), seg.op)
	}
	p.buf = pageRows(rows, seg.Skip, seg.Limit)
	return nil
}

// consume feeds one upstream binding to the aggregation, charging the
// byte budget so unbounded enumerations abort instead of hanging.
func (p *projection) consume() (*binding, error) {
	ok, err := p.in.next()
	if err != nil || !ok {
		return nil, err
	}
	if err := p.ec.bud.charge(aggRowCost); err != nil {
		return nil, err
	}
	return &p.ec.b, nil
}

// sortInput drains the input in ORDER BY order, before paging. Each row
// is projected — hidden ORDER BY keys included — into a scratch row
// first, so the budget charge and the DISTINCT check see exactly the row
// streaming would have produced, and only a row that is kept is copied
// out of it. Without a LIMIT every row is kept and sorted once; with one
// only the Skip+Limit best are, in a bounded window ordered by (ORDER BY
// keys, arrival) — exactly the first Skip+Limit rows of the full stable
// sort — so memory and allocations are O(k) while every matched row is
// still considered and charged.
func (p *projection) sortInput() ([][]Value, error) {
	seg, ec := p.seg, p.ec
	visible := len(seg.cols)
	scratch := make([]Value, visible+len(seg.op.hidden))
	top := topK{fin: seg}
	k := seg.Skip + seg.Limit // meaningful only with a LIMIT
	var rows [][]Value
	fed := 0
	for {
		ok, err := p.in.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if err := projectInto(scratch, seg.Items, seg.op, &ec.b, ec.ps); err != nil {
			return nil, err
		}
		if err := ec.bud.charge(rowBytes(scratch[:visible])); err != nil {
			return nil, err
		}
		if p.seen != nil && !p.seen.add(scratch[:visible]) {
			continue
		}
		if seg.Limit > 0 {
			top.offer(scratch, fed, k)
		} else {
			rows = append(rows, append([]Value(nil), scratch...))
		}
		fed++
	}
	t := time.Now()
	if seg.Limit > 0 {
		rows = top.sorted()
	} else {
		sortRows(seg.OrderBy, rows, seg.op.keyCols)
	}
	if ec.prof != nil {
		ec.prof.noteSort(seg, int64(fed), time.Since(t))
	}
	return rows, nil
}

// topRow is one row of the top-k window with its arrival number, the
// tie-break that makes the window the prefix of a stable sort.
type topRow struct {
	row []Value
	seq int
}

// topK is the bounded window: a binary max-heap whose root is the worst
// row kept, i.e. the one the next better row evicts.
type topK struct {
	fin  *PlanSegment
	rows []topRow
}

// after reports whether a sorts after b in (keys, arrival) order.
func (t *topK) after(a, b *topRow) bool {
	if c := compareRows(t.fin.OrderBy, t.fin.op.keyCols, a.row, b.row); c != 0 {
		return c > 0
	}
	return a.seq > b.seq
}

func (t *topK) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !t.after(&t.rows[i], &t.rows[p]) {
			return
		}
		t.rows[i], t.rows[p] = t.rows[p], t.rows[i]
		i = p
	}
}

func (t *topK) down(i int) {
	for {
		c := 2*i + 1
		if c >= len(t.rows) {
			return
		}
		if c+1 < len(t.rows) && t.after(&t.rows[c+1], &t.rows[c]) {
			c++
		}
		if !t.after(&t.rows[c], &t.rows[i]) {
			return
		}
		t.rows[i], t.rows[c] = t.rows[c], t.rows[i]
		i = c
	}
}

// offer considers the scratch row (the seq-th to arrive) for a window of
// k rows. A row that enters is copied — into the evicted row's storage
// once the window is full, so a full window allocates nothing; a row
// that cannot enter costs one comparison against the root.
func (t *topK) offer(scratch []Value, seq, k int) {
	cand := topRow{row: scratch, seq: seq}
	if len(t.rows) < k {
		cand.row = append([]Value(nil), scratch...)
		t.rows = append(t.rows, cand)
		t.up(len(t.rows) - 1)
		return
	}
	if !t.after(&t.rows[0], &cand) {
		return
	}
	cand.row = t.rows[0].row
	copy(cand.row, scratch)
	t.rows[0] = cand
	t.down(0)
}

// sorted empties the window into (keys, arrival) order.
func (t *topK) sorted() [][]Value {
	slices.SortFunc(t.rows, func(a, b topRow) int {
		if t.after(&a, &b) {
			return 1
		}
		return -1
	})
	out := make([][]Value, len(t.rows))
	for i := range t.rows {
		out[i] = t.rows[i].row
	}
	return out
}

// pageRows applies SKIP and LIMIT to a materialized row buffer.
func pageRows(rows [][]Value, skip, limit int) [][]Value {
	if skip > 0 {
		if skip >= len(rows) {
			return nil
		}
		rows = rows[skip:]
	}
	if limit >= 0 && len(rows) > limit {
		rows = rows[:limit]
	}
	return rows
}
