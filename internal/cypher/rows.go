package cypher

import (
	"fmt"
	"slices"
	"time"
)

// Rows is an incremental cursor over a query's result stream, in the
// spirit of database/sql.Rows: rows are produced as the caller pulls
// them, so a LIMIT-ed or abandoned query never materializes its full
// match set. Usage:
//
//	rows, err := eng.QueryRows(src, args)
//	if err != nil { ... }
//	defer rows.Close()
//	for rows.Next() {
//		var name string
//		if err := rows.Scan(&name); err != nil { ... }
//	}
//	if err := rows.Err(); err != nil { ... }
//
// Aggregation and ORDER BY cannot emit their first row before consuming
// their input; those queries buffer internally on the first Next call
// (charging the byte budget), then stream the buffered result.
type Rows struct {
	cols    []string
	src     rowSource
	cur     []Value
	err     error
	done    bool
	started bool // Next was called at least once
	writes  *WriteStats
	// finish ends the cursor's execution scope (tx.go) exactly once, at
	// close: commit the statement's implicit transaction (nil error) or
	// roll it back (non-nil), or release the pinned read snapshot. The
	// whole statement is atomic — a write statement's mutations become
	// visible to other sessions only when its cursor closes cleanly.
	finish func(error) error
	// Statement observability (metrics.go): kind is 'r'/'w' for cursors
	// produced by plan execution (0 for adapted results, which were
	// observed by their own execution), began anchors the latency
	// histogram, nrows counts emitted rows, bud exposes budget use.
	kind  byte
	began time.Time
	nrows int64
	bud   *byteBudget
	// reused marks a source that overwrites the row it returned on its
	// next pull (the streaming path: a cursor consumer reads a row before
	// asking for the next, so one row buffer serves the whole stream);
	// materialize copies such rows to keep them.
	reused bool
}

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
// first Next call (the mutation stage is an eager barrier); closing a
// write cursor that was never advanced applies them too (Close pulls
// once), so the counters are complete once the cursor is exhausted or
// closed. An error during that deferred application surfaces via Err.
func (r *Rows) Writes() *WriteStats { return r.writes }

// rowSource produces rows one at a time; nil row = exhausted. Sources
// are small structs rather than closures so a cursor costs one
// allocation, not one per captured variable — prepared-statement
// workloads execute millions of these.
type rowSource interface {
	pull() ([]Value, error)
}

func newRows(cols []string, src rowSource) *Rows {
	return &Rows{cols: cols, src: src}
}

// Columns returns the result column names, available before the first
// Next call. The caller must not modify the returned slice.
func (r *Rows) Columns() []string { return r.cols }

// Next advances to the next row, returning false when the stream is
// exhausted or failed (check Err to tell the two apart).
func (r *Rows) Next() bool {
	if r.done {
		return false
	}
	r.started = true
	row, err := r.src.pull()
	if err != nil {
		r.err = err
		r.close()
		return false
	}
	if row == nil {
		r.close()
		return false
	}
	r.nrows++
	r.cur = row
	return true
}

// Row returns the current row's values. The slice is valid until the
// next call to Next or Close.
func (r *Rows) Row() []Value { return r.cur }

// Scan copies the current row into dest, one destination per column.
// Supported destinations: *Value (verbatim), *string (rendered),
// *float64/*int (numbers), *bool, and *any (plain Go representation).
func (r *Rows) Scan(dest ...any) error {
	if r.cur == nil {
		return fmt.Errorf("cypher: Scan called without a row (call Next first)")
	}
	if len(dest) != len(r.cur) {
		return fmt.Errorf("cypher: Scan expects %d destinations, got %d", len(r.cur), len(dest))
	}
	for i, d := range dest {
		v := r.cur[i]
		switch p := d.(type) {
		case *Value:
			*p = v
		case *string:
			*p = v.String()
		case *float64:
			if v.Kind != KindNumber {
				return fmt.Errorf("cypher: column %q is not a number", r.cols[i])
			}
			*p = v.Num
		case *int:
			if v.Kind != KindNumber {
				return fmt.Errorf("cypher: column %q is not a number", r.cols[i])
			}
			*p = int(v.Num)
		case *bool:
			if v.Kind != KindBool {
				return fmt.Errorf("cypher: column %q is not a boolean", r.cols[i])
			}
			*p = v.Bool
		case *any:
			*p = v.Go()
		default:
			return fmt.Errorf("cypher: unsupported Scan destination %T for column %q", d, r.cols[i])
		}
	}
	return nil
}

// Err returns the error that terminated iteration, if any. A query that
// exceeds its byte budget surfaces a *BudgetError here.
func (r *Rows) Err() error { return r.err }

// Close releases the cursor. Abandoning a cursor early (e.g. after the
// first row of interest) stops all upstream pattern matching — nothing
// past the pulled rows is ever computed. The one exception is a write
// statement whose cursor was never advanced: its mutations have not
// run yet (they apply on the first pull), so Close pulls once to apply
// them — a write a caller was handed must not silently evaporate. Any
// error from that application lands in Err.
func (r *Rows) Close() error {
	if r.writes != nil && !r.started && !r.done && r.src != nil {
		if _, err := r.src.pull(); err != nil {
			r.err = err
		}
	}
	r.close()
	return r.err
}

func (r *Rows) close() {
	if !r.done && r.kind != 0 {
		observeStatement(r.kind, time.Since(r.began), r.nrows, r.err)
	}
	r.done = true
	r.cur = nil
	r.src = nil
	if r.finish != nil {
		fin := r.finish
		r.finish = nil
		if err := fin(r.err); err != nil && r.err == nil {
			r.err = err // commit failure: the statement did not land
		}
	}
}

// sliceSource streams an already-materialized row set: EXPLAIN and
// EXPLAIN ANALYZE output, and the empty result of a COMMIT or ROLLBACK.
type sliceSource struct {
	rows [][]Value
	i    int
}

func (s *sliceSource) pull() ([]Value, error) {
	if s.i >= len(s.rows) {
		return nil, nil
	}
	row := s.rows[s.i]
	s.i++
	return row, nil
}

// rowsFromResult adapts an already-materialized result to the cursor
// interface.
func rowsFromResult(res *Result) *Rows {
	r := newRows(res.Columns, &sliceSource{rows: res.Rows})
	r.writes = res.Writes
	return r
}

// materialize drains a cursor into a rectangular Result, honoring the
// deprecated-but-honored MaxRows safety valve: when the cap drops rows,
// Result.Truncated is set (a probe distinguishes an exactly-cap stream
// from a truncated one).
func materialize(rows *Rows, maxRows int) (*Result, error) {
	res := &Result{Columns: rows.Columns()}
	truncated, err := rows.Drain(maxRows, func(row []Value) {
		if rows.reused {
			row = append([]Value(nil), row...)
		}
		res.Rows = append(res.Rows, row)
	})
	if err != nil {
		return nil, err
	}
	res.Truncated = truncated
	res.Writes = rows.Writes()
	res.BudgetUsed = rows.BudgetUsed()
	return res, nil
}

// Drain hands each row to each, in order, up to maxRows of them (0: no
// cap), and closes the cursor. It reports whether the cap dropped rows,
// and the statement's error, which includes a failed commit. It is
// Engine.Query's materialization for a caller that encodes rows as they
// come instead of keeping them: the row passed to each is valid only
// during the call.
func (r *Rows) Drain(maxRows int, each func(row []Value)) (truncated bool, err error) {
	for n := 0; r.Next(); n++ {
		if maxRows > 0 && n == maxRows {
			truncated = true
			break
		}
		each(r.Row())
	}
	// Close before checking Err: closing ends the statement's execution
	// scope, and a commit failure surfaces there.
	return truncated, r.Close()
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

// rowsForPlan wires a (possibly cached, possibly shared) plan into the
// streaming iterator pipeline and returns a cursor over its output.
// Every projected row is charged against the query's byte budget as it
// streams, whether the caller keeps it or not — rows dropped by
// DISTINCT included, so the charge bounds enumeration, not just
// retained memory.
func (e *Engine) rowsForPlan(pl *Plan, ps params) (*Rows, error) {
	return e.rowsForPlanProf(pl, ps, nil)
}

// rowsForPlanProf is rowsForPlan with an optional ANALYZE profile: when
// prof is non-nil, every stage iterator and row source is wrapped in a
// profiling decorator (analyze.go).
func (e *Engine) rowsForPlanProf(pl *Plan, ps params, prof *planProf) (*Rows, error) {
	if pl.HasWrites && e.opts.ReadOnly {
		return nil, ErrReadOnly
	}
	// Scope the statement (tx.go): reads pin a snapshot, writes open an
	// implicit store transaction. The returned cursor carries the scope's
	// finish hook; errors before the cursor exists end the scope here.
	ex, finish, err := e.beginScope(pl.HasWrites)
	if err != nil {
		return nil, err
	}
	rows, err := ex.rowsForPlanScoped(pl, ps, prof)
	if err != nil {
		return nil, finish(err)
	}
	rows.finish = finish
	return rows, nil
}

// rowsForPlanScoped is rowsForPlan's body, running on the per-statement
// scoped engine.
func (e *Engine) rowsForPlanScoped(pl *Plan, ps params, prof *planProf) (*Rows, error) {
	fin := pl.final()
	bud := newBudget(e.opts.MaxBytes)
	var writes *WriteStats
	if pl.HasWrites {
		writes = &WriteStats{}
	}
	began := time.Now()
	var ec *execCtx
	var root iter
	for si, seg := range pl.Segments {
		nec := &execCtx{e: e, b: newBinding(seg.tab), ps: ps, bud: bud, writes: writes, prof: prof}
		if si > 0 {
			prev := pl.Segments[si-1]
			w := &withIter{srcEC: ec, dstEC: nec, seg: prev, src: root}
			if prev.Distinct && !prev.HasAggregate {
				w.seen = newRowSet()
			}
			if prof != nil {
				root = prof.wrapOp(prev, w, root)
			} else {
				root = w
			}
		}
		ec = nec
		root = buildStageChain(ec, seg.Stages, root)
	}

	if writes != nil && fin.Limit == 0 && len(fin.Items) > 0 {
		// LIMIT 0 returns no rows, but a statement's writes apply
		// whatever its RETURN keeps, and the row sources would
		// short-circuit without ever pulling the mutation stage. Drain
		// the pipeline now; the source below then emits nothing.
		for {
			ok, err := root.next()
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
		}
	}

	var src rowSource
	reused := false
	switch {
	case len(fin.Items) == 0:
		// Write-only statement: drain the pipeline (applying every
		// mutation), emit no rows.
		src = &drainSource{root: root}
	case fin.HasAggregate:
		src = &aggSource{fin: fin, root: root, ec: ec}
	case fin.op != nil:
		ss := &sortedSource{fin: fin, root: root, ec: ec}
		if fin.Distinct {
			ss.seen = newRowSet()
		}
		src = ss
	default:
		st := &streamSource{fin: fin, root: root, ec: ec, row: make([]Value, len(fin.Items))}
		if fin.Distinct {
			st.seen = newRowSet()
		}
		src, reused = st, true
	}
	if prof != nil {
		src = &profSource{src: src, sp: prof.opFor(fin, root)}
	}
	r := newRows(fin.cols, src)
	r.reused = reused
	r.writes = writes
	r.began = began
	r.bud = bud
	r.kind = 'r'
	if pl.HasWrites {
		r.kind = 'w'
	}
	return r, nil
}

// drainSource exhausts the pipeline without projecting: the execution
// path of a write-only statement, whose result is its WriteStats.
type drainSource struct {
	root iter
	done bool
}

func (d *drainSource) pull() ([]Value, error) {
	if d.done {
		return nil, nil
	}
	d.done = true
	for {
		ok, err := d.root.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, nil
		}
	}
}

// streamSource is the fully incremental path: projection, DISTINCT,
// SKIP and LIMIT are applied row by row, so a satisfied LIMIT stops
// upstream matching immediately. Every row is projected into the one
// row buffer (Rows.reused), so streaming a row allocates nothing.
type streamSource struct {
	fin     *PlanSegment
	root    iter
	ec      *execCtx
	row     []Value
	seen    *rowSet
	skipped int
	emitted int
	done    bool
}

func (s *streamSource) pull() ([]Value, error) {
	fin := s.fin
	if s.done || (fin.Limit >= 0 && s.emitted >= fin.Limit) {
		s.done = true
		return nil, nil
	}
	for {
		ok, err := s.root.next()
		if err != nil {
			s.done = true
			return nil, err
		}
		if !ok {
			s.done = true
			return nil, nil
		}
		if err := projectInto(s.row, fin.Items, nil, &s.ec.b, s.ec.ps); err != nil {
			return nil, err
		}
		if err := s.ec.bud.charge(rowBytes(s.row)); err != nil {
			s.done = true
			return nil, err
		}
		if s.seen != nil && !s.seen.add(s.row) {
			continue
		}
		if s.skipped < fin.Skip {
			s.skipped++
			continue
		}
		s.emitted++
		return s.row, nil
	}
}

// sortedSource orders and pages the stream on the first pull. Without a
// LIMIT it buffers every row and sorts once. With one it keeps only the
// Skip+Limit best rows seen so far in a bounded heap ordered by (ORDER
// BY keys, arrival) — exactly the first Skip+Limit rows of the full
// stable sort — so memory and allocations are O(k) while every matched
// row is still considered and charged to the byte budget.
type sortedSource struct {
	fin     *PlanSegment
	root    iter
	ec      *execCtx
	seen    *rowSet
	started bool
	buf     [][]Value
	bi      int
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

func (s *sortedSource) pull() ([]Value, error) {
	fin := s.fin
	if !s.started {
		s.started = true
		if fin.Limit == 0 {
			return nil, nil
		}
		if err := s.fill(); err != nil {
			return nil, err
		}
		stripHidden(s.buf, len(fin.cols), fin.op)
		s.buf = pageRows(s.buf, fin.Skip, fin.Limit)
	}
	if s.bi >= len(s.buf) {
		return nil, nil
	}
	row := s.buf[s.bi]
	s.bi++
	return row, nil
}

// fill drains the pipeline into s.buf in ORDER BY order (before paging).
// Each row is projected — hidden ORDER BY keys included — into a scratch
// row first, so the budget charge and the DISTINCT check see exactly the
// row streaming would have produced, and only a row that is kept is
// copied out of it.
func (s *sortedSource) fill() error {
	fin, ec := s.fin, s.ec
	visible := len(fin.cols)
	scratch := make([]Value, visible+len(fin.op.hidden))
	top := topK{fin: fin}
	k := fin.Skip + fin.Limit // meaningful only with a LIMIT
	fed := 0
	for {
		ok, err := s.root.next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if err := projectInto(scratch, fin.Items, fin.op, &ec.b, ec.ps); err != nil {
			return err
		}
		if err := ec.bud.charge(rowBytes(scratch[:visible])); err != nil {
			return err
		}
		if s.seen != nil && !s.seen.add(scratch[:visible]) {
			continue
		}
		if fin.Limit > 0 {
			top.offer(scratch, fed, k)
		} else {
			s.buf = append(s.buf, append([]Value(nil), scratch...))
		}
		fed++
	}
	t := time.Now()
	if fin.Limit > 0 {
		s.buf = top.sorted()
	} else {
		sortRows(fin.OrderBy, s.buf, fin.op.keyCols)
	}
	if ec.prof != nil {
		ec.prof.noteSort(fin, int64(fed), time.Since(t))
	}
	return nil
}

// aggSource lazily runs the final aggregation on the first pull
// (sorting the group table when asked), then streams the SKIP/LIMIT
// window.
type aggSource struct {
	fin     *PlanSegment
	root    iter
	ec      *execCtx
	started bool
	buf     [][]Value
	bi      int
}

func (s *aggSource) pull() ([]Value, error) {
	fin := s.fin
	if !s.started {
		s.started = true
		res := &Result{}
		if err := aggregateRows(fin.Items, res, s.consume, s.ec.ps); err != nil {
			return nil, err
		}
		if fin.op != nil {
			sortRows(fin.OrderBy, res.Rows, fin.op.keyCols)
		}
		s.buf = pageRows(res.Rows, fin.Skip, fin.Limit)
	}
	if s.bi >= len(s.buf) {
		return nil, nil
	}
	row := s.buf[s.bi]
	s.bi++
	return row, nil
}

// consume feeds one upstream binding to the aggregation, charging the
// byte budget so unbounded enumerations abort instead of hanging.
func (s *aggSource) consume() (*binding, error) {
	ok, err := s.root.next()
	if err != nil || !ok {
		return nil, err
	}
	if err := s.ec.bud.charge(aggRowCost); err != nil {
		return nil, err
	}
	return &s.ec.b, nil
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
